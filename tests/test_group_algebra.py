"""Generator-level group checks against the pairwise oracle: validate and
classify_holonomy must agree with it, reject corrupted groups, and stay
within |F| * g and g(g-1) products."""

import time
from dataclasses import replace

import pytest
from oracles import pairwise_group_check

from flatspec import lattice, spectra
from flatspec.bieberbach import (
    BieberbachGroup,
    IsometryElement,
    SignedPermutation,
    classify_holonomy,
    expand_holonomy,
    validate,
)
from flatspec.families import catalog, catalog_names, kn_family, torus, z2_family


def hyperoctahedral(n: int) -> BieberbachGroup:
    """B_n, all 2^n n! signed permutations, from a transposition, an n-cycle
    and one sign flip, with zero translations (so it has torsion)."""
    zero = (0,) * n
    swap = (1, 0, *range(2, n))
    cycle = tuple((j + 1) % n for j in range(n))
    flip = (-1,) + (1,) * (n - 1)
    generators = [
        IsometryElement(SignedPermutation(swap, (1,) * n), zero),
        IsometryElement(SignedPermutation(cycle, (1,) * n), zero),
        IsometryElement(SignedPermutation.diagonal(flip), zero),
    ]
    return expand_holonomy(generators, n, name=f"B{n}")


def _cases():
    for name in catalog_names():
        yield name, catalog(name)
    for n in range(2, 6):
        for group in kn_family(n):
            yield group.label(), group
    for n in range(2, 7):
        for group in z2_family(n):
            yield f"{group.label()}/n={n}", group
    yield "T^3", torus(3)
    for n in (3, 4):
        yield f"B{n}", hyperoctahedral(n)


CASES = dict(_cases())


def assert_agrees_with_oracle(group):
    report = validate(group)
    closure, cocycle, abelian = pairwise_group_check(group)
    assert (report.closure, report.cocycle) == (closure, cocycle), report.error
    assert classify_holonomy(group).abelian == abelian
    return report


@pytest.mark.parametrize("label", list(CASES))
def test_validate_and_classify_agree_with_the_pairwise_oracle(label):
    group = CASES[label]
    report = assert_agrees_with_oracle(group)
    assert report.closure and report.cocycle
    assert report.accepted == (not label.startswith("B"))
    if group.order <= 64:
        # no generators: the representatives generate
        ungenerated = assert_agrees_with_oracle(replace(group, generators=()))
        assert ungenerated == report


def test_hyperoctahedral_orders_and_classes():
    assert [hyperoctahedral(n).order for n in (3, 4)] == [48, 384]
    assert classify_holonomy(hyperoctahedral(3)).description == "nonabelian of order 48"


def _mutations(group):
    """(kind, corrupted representatives, flag that must fail, witness text)."""
    reps = list(group.holonomy)
    victim = reps[-1]
    bumped = IsometryElement(victim.linear, tuple(q + 1 for q in victim.translation))
    yield "translation", reps[:-1] + [bumped], "cocycle", "demands translation"
    yield "dropped", reps[:-1], "closure", "leaves the representative set"
    n = group.dim
    stranger = IsometryElement(SignedPermutation((1, 0, *range(2, n)), (1,) * n), (0,) * n)
    assert stranger.linear not in {e.linear for e in reps}
    yield "extra", reps + [stranger], "closure", "is not reached from the generators"
    # the later duplicate is the one lookups find, so only the final scan sees this
    yield "duplicate", [reps[0], bumped, *reps[1:]], "cocycle", "has two representatives"


# |F| > 2, so that dropping a representative never leaves a subgroup, which
# the pairwise check would accept and the generators would not
@pytest.mark.parametrize("name", ["hw3/M1", "dim6/z4z2_Mp", "hw5/H1"])
def test_corrupted_groups_are_rejected(name):
    group = catalog(name)
    for kind, reps, flag, witness in _mutations(group):
        corrupted = BieberbachGroup(group.dim, tuple(reps), group.generators, name=kind)
        report = validate(corrupted)
        assert not getattr(report, flag), kind
        assert not report.accepted
        assert witness in report.error, (kind, report.error)
        closure, cocycle, _abelian = pairwise_group_check(corrupted)
        assert (report.closure, report.cocycle) == (closure, cocycle), kind
        assert_agrees_with_oracle(replace(corrupted, generators=()))


def test_identity_coset_checked():
    group = catalog("hw3/M1")
    moved = IsometryElement(group.holonomy[0].linear, (2, 0, 0))
    report = validate(replace(group, holonomy=(moved, *group.holonomy[1:])))
    assert not report.cocycle
    assert report.error == "identity coset missing or carries a nonzero translation"
    report = validate(replace(group, holonomy=group.holonomy[1:]))
    assert not report.cocycle and not report.closure


def _count_calls(monkeypatch, cls, name):
    counter = [0]
    original = getattr(cls, name)

    def counted(*args):
        counter[0] += 1
        return original(*args)

    monkeypatch.setattr(cls, name, counted)
    return counter


def test_validate_and_classify_stay_generator_level(monkeypatch):
    group = hyperoctahedral(4)
    order, gens = group.order, len(group.generators)
    composes = _count_calls(monkeypatch, IsometryElement, "compose")
    validate(group)
    assert 0 < composes[0] <= order * gens
    products = _count_calls(monkeypatch, SignedPermutation, "compose")
    classify_holonomy(group)
    assert products[0] <= gens * (gens - 1)


def test_validate_b5_within_budget():
    group = hyperoctahedral(5)
    assert group.order == 3840
    start = time.perf_counter()
    report = validate(group)
    elapsed = time.perf_counter() - start
    assert report.closure and report.cocycle and not report.torsion_free
    assert elapsed < 2.0, f"validate(B_5) took {elapsed:.2f} s"


def test_signed_permutation_hash_matches_equality():
    a = SignedPermutation((2, 0, 1), (1, -1, 1))
    b = SignedPermutation((2, 0, 1), (1, -1, 1))
    assert a == b and hash(a) == hash(b) == hash((a.perm, a.signs))
    assert a != replace(a, signs=(1, 1, 1))
    assert hash(replace(a, signs=(1, 1, 1))) == hash(((2, 0, 1), (1, 1, 1)))
    assert len({a, b, a.inverse().inverse()}) == 1


def test_row_checks_the_norm_once_and_scans_no_membership(monkeypatch):
    expected = spectra.multiplicity_row(catalog("hw3/M1"), 5)
    calls = _count_calls(monkeypatch, lattice, "check_norm")
    monkeypatch.setattr(
        spectra,
        "character_sum",
        lambda *args: pytest.fail("multiplicity_row went through character_sum"),
    )
    assert spectra.multiplicity_row(catalog("hw3/M1").renamed("row-probe"), 5) == expected
    assert calls[0] == 1
