"""Generator-level group checks against the pairwise oracle: validate and
classify_holonomy must agree with it, reject corrupted groups, and stay
within |F| * g and g(g-1) products."""

import random
import time
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    abelian_candidates,
    expand_by_compose,
    holonomy_description_by_search,
    pairwise_group_check,
)

from flatspec import bieberbach, lattice, spectra
from flatspec.bieberbach import (
    BieberbachGroup,
    IsometryElement,
    SignedPermutation,
    classify_holonomy,
    expand_holonomy,
    validate,
    validate_generators,
)
from flatspec.families import (
    GhwArray,
    catalog,
    catalog_names,
    free_parameter_count,
    kn_family,
    kn_group_from_array,
    torus,
    z2_family,
)


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


def abelian_group(factors) -> BieberbachGroup:
    """Z_{d_1} x ... x Z_{d_r} for prime powers d, zero translations: Z_{2^k}
    as a cycle of length 2^(k-1) with one sign flip, an odd Z_d as a d-cycle,
    each on its own coordinates.  Above DIM_CAP, which a prime d > 64 needs,
    expand_holonomy refuses the dimension, so the compose oracle expands."""
    blocks = [(d // 2, -1) if d % 2 == 0 else (d, 1) for d in factors]
    n = sum(length for length, _sign in blocks)
    generators, start = [], 0
    for length, sign in blocks:
        perm, signs = list(range(n)), [1] * n
        for j in range(length):
            perm[start + j] = start + (j + 1) % length
        signs[start] = sign
        generators.append(IsometryElement(SignedPermutation(tuple(perm), tuple(signs)), (0,) * n))
        start += length
    n = max(n, 1)
    if n <= bieberbach.DIM_CAP:
        return expand_holonomy(generators, n)
    return BieberbachGroup(n, expand_by_compose(generators, n), tuple(generators))


def test_classify_matches_the_search_on_every_abelian_type_to_order_128():
    checked = 0
    for order in range(1, 129):
        for factors in abelian_candidates(order):
            group = abelian_group(factors)
            assert group.order == order, factors
            cls = classify_holonomy(group)
            assert cls.description == holonomy_description_by_search(group), factors
            if any(d > 2 for d in factors):
                assert cls.description == " x ".join(f"Z{d}" for d in factors)
                assert cls.abelian and cls.elementary_rank is None
            checked += 1
    assert checked == 247  # sum over m <= 128 of the number of abelian groups of order m


@pytest.mark.parametrize("label", [label for label in CASES if CASES[label].order <= 64])
def test_classify_matches_the_search_on_catalog_and_families(label):
    group = CASES[label]
    assert classify_holonomy(group).description == holonomy_description_by_search(group)


def test_representatives_that_are_not_a_group_stay_unnamed():
    group = catalog("dim6/z4z2_M")
    # element orders 1, 4, 2, 2, 4, 4, 2, 4: drop one or two, or repeat four
    for reps in (group.holonomy[:-1], group.holonomy[:-2], group.holonomy[:4] * 2):
        corrupted = BieberbachGroup(group.dim, reps, group.generators)
        assert classify_holonomy(corrupted).description == f"abelian of order {len(reps)}"


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


def test_repeated_representatives_fail_the_cocycle():
    # equal copies: the identity eight times, and one coset of hw3/M1 twice
    group = catalog("hw3/M1")
    for repeated in (
        BieberbachGroup(6, (IsometryElement.identity(6),) * 8),
        replace(group, holonomy=(*group.holonomy, group.holonomy[2])),
    ):
        report = validate(repeated)
        assert report.closure and not report.cocycle and not report.accepted
        witness = f"linear part {repeated.holonomy[-1].linear} has two representatives"
        assert report.error == witness


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


def test_validate_k13_within_budget():
    # a mask group with 12 generators, a sample of what HOLONOMY_CAP admits
    bits = random.Random(13).choices((0, 1), k=free_parameter_count(13))
    group = kn_group_from_array(GhwArray.from_bits(13, bits))
    assert group.order == 4096
    start = time.perf_counter()
    report = validate(group)
    elapsed = time.perf_counter() - start
    assert report.accepted and report.elementary_rank == 12
    assert elapsed < 2.0, f"validate(K_13) took {elapsed:.2f} s"


def test_repeated_generators_are_walked_once():
    bits = random.Random(12).choices((0, 1), k=free_parameter_count(12))
    plain = kn_group_from_array(GhwArray.from_bits(12, bits)).generators
    start = time.perf_counter()
    _, expected = validate_generators(plain, 12)
    once = time.perf_counter() - start
    start = time.perf_counter()
    group, report = validate_generators(plain * 10, 12)
    repeated = time.perf_counter() - start
    assert report == expected and report.accepted
    assert group.generators == plain
    assert repeated < 2 * once, f"10 copies took {repeated:.2f} s, one {once:.2f} s"


def test_signed_permutation_hash_matches_equality():
    a = SignedPermutation((2, 0, 1), (1, -1, 1))
    b = SignedPermutation((2, 0, 1), (1, -1, 1))
    assert a == b and hash(a) == hash(b) == hash((a.perm, a.signs))
    assert a != replace(a, signs=(1, 1, 1))
    assert hash(replace(a, signs=(1, 1, 1))) == hash(((2, 0, 1), (1, 1, 1)))
    assert len({a, b, a.inverse().inverse()}) == 1


def test_group_hash_matches_equality():
    group = catalog("hw3/M1")
    copy = replace(group)
    assert copy is not group and copy == group
    # equal groups have equal generators, so the representatives need not enter
    fields = (group.dim, group.generators, group.name)
    assert hash(copy) == hash(group) == hash(fields)
    assert len({group, copy, group.renamed("other")}) == 2


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


def _half_element(n, neg, trans):
    signs = tuple(-1 if neg >> j & 1 else 1 for j in range(n))
    translation = tuple(2 * (trans >> j & 1) for j in range(n))
    return IsometryElement(SignedPermutation.diagonal(signs), translation)


@st.composite
def half_generator_sets(draw):
    """(n, generators): diagonal with translations in (1/2)Z^n, n <= 6; the
    set may be empty, hold a product of two of its members (dependent), or
    a member's linear part with another translation (inconsistent)."""
    n = draw(st.integers(1, 6))
    masks = st.integers(0, 2**n - 1)
    gens = draw(st.lists(st.builds(lambda a, b: _half_element(n, a, b), masks, masks), max_size=5))
    if gens and draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)).compose(draw(st.sampled_from(gens))))
    if gens and draw(st.booleans()):
        victim = draw(st.sampled_from(gens))
        moved = tuple((q + 2 * draw(st.integers(0, 1))) % 4 for q in victim.translation)
        gens.insert(draw(st.integers(0, len(gens))), IsometryElement(victim.linear, moved))
    return n, gens


def _outcome(expand):
    try:
        return expand()
    except bieberbach.HolonomyExpansionError as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=300)
@given(half_generator_sets(), st.sampled_from([None, 4]))
def test_mask_walk_matches_the_compose_walk(case, cap):
    n, gens = case
    cap = cap or bieberbach.HOLONOMY_CAP

    def refuse(*args):
        raise AssertionError("a diagonal half-translation group took the general product")

    with mock.patch.object(bieberbach, "HOLONOMY_CAP", cap):
        expected = _outcome(lambda: expand_by_compose(gens, n))
        with mock.patch.object(IsometryElement, "compose", refuse):
            got = _outcome(lambda: expand_holonomy(gens, n).holonomy)
    assert got == expected
