"""Generator-level group checks against the pairwise oracle: every group
expand_holonomy builds must pass it, validate must form no product and
classify_holonomy at most g(g-1), and no module but bieberbach may make a
group."""

import ast
import importlib
import inspect
import pkgutil
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


@pytest.mark.parametrize("label", list(CASES))
def test_validate_and_classify_agree_with_the_pairwise_oracle(label):
    group = CASES[label]
    report = validate(group)
    assert pairwise_group_check(group) == (True, True, classify_holonomy(group).abelian)
    assert report.closure and report.cocycle
    assert report.accepted == (not label.startswith("B"))
    # read off the generators, these must match their per-coset definitions
    assert report.diagonal_type == all(e.half_masks() is not None for e in group.holonomy)
    assert report.orientable == all(e.linear.det() == 1 for e in group.holonomy)


def test_groups_have_no_public_constructor():
    group = catalog("hw3/M1")
    with pytest.raises(TypeError):
        BieberbachGroup(group.dim, group.holonomy, group.generators, group.name)
    with pytest.raises(TypeError):
        replace(group, holonomy=group.holonomy[:-1])


def test_only_bieberbach_makes_groups():
    # validate trusts closure and cocycle because expand_holonomy is the one
    # maker: no other module may construct a group or bypass its checks
    import flatspec

    makers = []
    for info in pkgutil.iter_modules(flatspec.__path__):
        if info.name == "bieberbach":
            continue
        source = inspect.getsource(importlib.import_module(f"flatspec.{info.name}"))
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            names = [_called_name(node.func)]
            if names[0] == "_trusted" and node.args:
                names.append(_called_name(node.args[0]))
            if "BieberbachGroup" in names:
                makers.append(f"{info.name}:{node.lineno}")
    assert makers == []


def _called_name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_hyperoctahedral_orders_and_classes():
    assert [hyperoctahedral(n).order for n in (3, 4)] == [48, 384]
    assert classify_holonomy(hyperoctahedral(3)).description == "nonabelian of order 48"


def abelian_group(factors) -> BieberbachGroup:
    """Z_{d_1} x ... x Z_{d_r} for prime powers d, zero translations: Z_{2^k}
    as a cycle of length 2^(k-1) with one sign flip, an odd Z_d as a d-cycle,
    each on its own coordinates.  Above DIM_CAP, which a prime d > 64 needs,
    expand_holonomy refuses the dimension, so the compose oracle expands and
    bieberbach._trusted assembles the group."""
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
    reps, generators = expand_by_compose(generators, n), tuple(generators)
    fields = {"dim": n, "holonomy": reps, "generators": generators, "name": None}
    return bieberbach._trusted(BieberbachGroup, **fields)


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
    gens = len(group.generators)
    composes = _count_calls(monkeypatch, IsometryElement, "compose")
    validate(group)
    assert composes[0] == 0
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


def test_validate_k17_at_the_cap_within_budget():
    # 2^16 cosets, HOLONOMY_CAP: validate reads the mask basis and builds none
    bits = random.Random(17).choices((0, 1), k=free_parameter_count(17))
    generators = kn_group_from_array(GhwArray.from_bits(17, bits)).generators
    start = time.perf_counter()
    group = expand_holonomy(generators, 17)
    report = validate(group)
    elapsed = time.perf_counter() - start
    assert group.order == bieberbach.HOLONOMY_CAP
    assert report.accepted and report.elementary_rank == 16
    assert "holonomy" not in vars(group)
    assert elapsed < 1.0, f"expand and validate of K_17 took {elapsed:.2f} s"


def _best_time(call, *args, runs=3):
    """(least time of runs calls, last result): the least is the one least
    disturbed by other work on the machine."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        result = call(*args)
        times.append(time.perf_counter() - start)
    return min(times), result


def test_repeated_generators_are_walked_once():
    bits = random.Random(12).choices((0, 1), k=free_parameter_count(12))
    k12 = kn_group_from_array(GhwArray.from_bits(12, bits)).generators
    # a mask group, and B_4, whose expansion walks |F| * g products
    for plain, n in ((k12, 12), (hyperoctahedral(4).generators, 4)):
        once, (_, expected) = _best_time(validate_generators, plain, n)
        repeated, (_, report) = _best_time(validate_generators, plain * 10, n)
        assert report == expected and report.accepted == (n == 12)
        assert expand_holonomy(plain * 10, n).generators == plain
        assert repeated < 2 * once, f"10 copies took {repeated:.4f} s, one {once:.4f} s"


def test_signed_permutation_hash_matches_equality():
    a = SignedPermutation((2, 0, 1), (1, -1, 1))
    b = SignedPermutation((2, 0, 1), (1, -1, 1))
    assert a == b and hash(a) == hash(b) == hash((a.perm, a.signs))
    assert a != replace(a, signs=(1, 1, 1))
    assert hash(replace(a, signs=(1, 1, 1))) == hash(((2, 0, 1), (1, 1, 1)))
    assert len({a, b, a.compose(SignedPermutation.identity(3))}) == 1


def test_group_hash_matches_equality():
    group = catalog("hw3/M1")
    copy = group.renamed(group.name)
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
