"""The one theta walk per call: rows, batches and character sums against
oracles that share none of its code, negative norms, and the memory of a
row whose keys have more prefixes than any table cache would hold."""

import math
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from oracles import (
    catalog_names,
    enumerated_character_sums,
    recursive_theta_counts,
    trace_p_oracle,
)

from flatspec import lattice
from flatspec.bieberbach import IsometryElement, SignedPermutation, expand_holonomy
from flatspec.families import catalog, kn_family, torus, z2_family
from flatspec.spectra import character_sum, multiplicity_row

SRC = Path(__file__).resolve().parent.parent / "src"


def oracle_rows(group, top: int) -> list[tuple[int, ...]]:
    """Rows 0..top coset by coset: wedge-basis traces times the recursive
    theta coefficient of each coset's key, averaged and checked exact."""
    cosets = [
        (element.theta_key, [trace_p_oracle(element.linear, p) for p in range(group.dim + 1)])
        for element in group.holonomy
    ]
    rows = []
    for norm_sq in range(top + 1):
        totals = [0] * (group.dim + 1)
        for key, traces in cosets:
            value = recursive_theta_counts(key, norm_sq)
            totals = [total + trace * value for total, trace in zip(totals, traces)]
        assert all(total % group.order == 0 and total >= 0 for total in totals), (group.label(), norm_sq)
        rows.append(tuple(total // group.order for total in totals))
    return rows


def _oracle_groups():
    groups = [catalog(name) for name in catalog_names()]
    groups += list(kn_family(5))
    return groups + [g for n in range(2, 7) for g in z2_family(n)]


def test_rows_match_the_coset_oracle():
    # every catalog group, every K_5 member and the z2 family for n <= 6
    groups = _oracle_groups()
    assert len(groups) == 21 + 64 + 28
    norms = tuple(range(61))
    for group in groups:
        assert list(multiplicity_row((group,), norms)[0]) == oracle_rows(group, 60), group.label()


def _reflection():
    # diag(-1, 1, 1) with no translation: an orbifold's group, whose key
    # (1, 0)^2 is a proper prefix of the torus key (1, 0)^3
    return expand_holonomy([IsometryElement(SignedPermutation.diagonal((-1, 1, 1)), (0, 0, 0))], 3, name="reflection")


def _half_flip():
    # diag(-1, 1, 1) L(0, 1/2, 1/2): its key (1, 2)^2 extends hw3/M1's (1, 2)
    return expand_holonomy([IsometryElement(SignedPermutation.diagonal((-1, 1, 1)), (0, 2, 2))], 3, name="half-flip")


def _pairs():
    """Pairs that share keys, and pairs where a key of one is a proper
    prefix of a key of the other."""
    yield _reflection(), torus(3)
    yield catalog("hw3/M1"), _half_flip()
    yield _half_flip(), catalog("hw3/M3")
    yield torus(5), next(kn_family(5))
    yield next(kn_family(5)), torus(5)
    yield catalog("dim6/z4z2_M"), catalog("dim6/z4z2_Mp")
    yield catalog("dim6/z4_M"), catalog("dim6/z4_Mp")
    yield catalog("dim6/z4_M"), torus(6)
    yield catalog("hw3/M1"), catalog("hw3/M3")
    yield catalog("dim3/m10"), catalog("dim3/m10")


def _keys(group):
    return {key for key, _count in group.key_counts}


def _one_prefixes_the_other(left, right) -> bool:
    pairs = [(a, b) for a in _keys(left) for b in _keys(right)]
    return any(len(a) != len(b) and (a[: len(b)] == b or b[: len(a)] == a) for a, b in pairs)


def test_a_batch_equals_its_groups_one_at_a_time():
    norms = (0, 1, 2, 3, 7, 16, 40, 3)
    pairs = list(_pairs())
    for left, right in pairs:
        alone = tuple(multiplicity_row((group,), norms)[0] for group in (left, right))
        assert multiplicity_row((left, right), norms) == alone, (left.label(), right.label())
        assert multiplicity_row((right, left, right), norms) == alone[::-1] + alone[1:]
    assert sum(_one_prefixes_the_other(left, right) for left, right in pairs) >= 4


def test_a_batch_leaks_no_series_into_a_group_without_the_key():
    # a K_5 member's identity key is the torus key, and its other keys branch
    # off the torus key's prefixes; the reflection's key is one of those
    # prefixes.  In one walk the torus rows must stay C(n, p) r_n(N)
    norms = tuple(range(31))
    for other, t in ((next(kn_family(5)), torus(5)), (_reflection(), torus(3))):
        assert _keys(t) <= _keys(other) or _one_prefixes_the_other(other, t)
        _rows_other, rows_torus = multiplicity_row((other, t), norms)
        for norm_sq, row in zip(norms, rows_torus):
            size = recursive_theta_counts(((1, 0),) * t.dim, norm_sq)
            assert row == tuple(math.comb(t.dim, p) * size for p in range(t.dim + 1)), norm_sq


def test_the_walk_yields_each_distinct_key_once_in_sorted_order():
    keys = [((1, 0), (1, 2)), ((1, 0),), (), ((1, 0), (1, 2)), ((1, 0), (1, 0)), ((2, 2),)]
    walked = list(lattice.theta_series(keys, 30))
    assert [key for key, _series in walked] == sorted(set(keys))
    for key, series in walked:
        assert series == [recursive_theta_counts(key, norm_sq) for norm_sq in range(31)], key


def test_character_sums_match_the_enumeration():
    top = 10
    for name in catalog_names():
        group = catalog(name)
        if group.dim > 6:
            continue
        sums = character_sum(group.holonomy, top)
        assert len(sums) == group.order
        for norm_sq in range(top + 1):
            assert [series[norm_sq] for series in sums] == enumerated_character_sums(group, norm_sq), name


def test_a_negative_norm_raises():
    group = catalog("hw3/M1")
    for call in (
        lambda: lattice.theta_series([((1, 0), (1, 0))], -1),
        lambda: multiplicity_row((group,), (-1,)),
        lambda: multiplicity_row((group,), (4, -1)),
        lambda: character_sum(group.holonomy, -1),
    ):
        with pytest.raises(ValueError, match="squared norm must be >= 0, got -1"):
            call()


# one row of a dim-64 mask group: 16 random diagonal generators, each
# negating axes with a density drawn from {0.05, ..., 0.5}, translated by
# random halves.  Its keys have 1123 prefixes, more than the 1024 tables a
# shared table cache held; with that cache the row peaked at 133 MiB.
_ROW_CHILD = """
import random
from flatspec import lattice, spectra
from flatspec.bieberbach import IsometryElement, SignedPermutation, expand_holonomy

rng = random.Random(2)
generators = []
for _ in range(16):
    density = rng.choice((0.05, 0.1, 0.2, 0.3, 0.5))
    signs = [-1 if rng.random() < density else 1 for _ in range(64)]
    linear = SignedPermutation.diagonal(signs)
    generators.append(IsometryElement(linear, [2 * rng.randrange(2) for _ in range(64)]))
group = expand_holonomy(generators, 64)
keys = [key for key, _count in group.key_counts]
prefixes = len({key[:i] for key in keys for i in range(len(key) + 1)})
((row,),) = spectra.multiplicity_row((group,), (2000,))
((_key, shells),) = lattice.theta_series([((1, 0),) * 64], 2000)
assert sum(row) == 2**64 // group.order * shells[2000]  # d_f = 2^(n-k) r_n(N)
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(prefixes, peak)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_a_row_over_many_key_prefixes_holds_only_the_live_chain():
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_ROW_CHILD)],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    prefixes, peak_kib = map(int, result.stdout.split())
    assert prefixes >= 1024
    assert peak_kib < 64 * 1024, f"the row peaked at {peak_kib // 1024} MiB"
