"""Group model: composition convention, expansion, validation, classification."""

import json
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import canonical_key, inverse

from flatspec import bieberbach
from flatspec.bieberbach import (
    HolonomyExpansionError,
    IsometryElement,
    SignedPermutation,
    classify_holonomy,
    coset_is_torsion_free,
    expand_holonomy,
    group_from_json,
    is_orientable,
    is_torsion_free,
    validate,
    validate_generators,
)
from flatspec.families import catalog, kn_family, torus


def iso(signs, translation):
    return IsometryElement(SignedPermutation.diagonal(signs), tuple(translation))


# signed permutations -------------------------------------------------------


def test_signed_permutation_validation():
    with pytest.raises(ValueError):
        SignedPermutation((0, 0), (1, 1))
    with pytest.raises(ValueError):
        SignedPermutation((0, 1), (2, 1))
    with pytest.raises(ValueError):
        SignedPermutation((0, 1), (1,))


@st.composite
def isometries(draw, n):
    """Any coset B L_q in dimension n, q in quarter units 0..3."""
    perm = tuple(draw(st.permutations(range(n))))
    signs = tuple(draw(st.sampled_from((1, -1))) for _ in range(n))
    translation = tuple(draw(st.integers(0, 3)) for _ in range(n))
    return IsometryElement(SignedPermutation(perm, signs), translation)


@settings(deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(isometries(n), isometries(n))))
def test_trusted_products_equal_checked_ones(pair):
    # products skip the constructors' checks: they must be the elements the
    # checked constructors build from the same formula, with Bb^-1 a formed
    # through the inverse matrix
    a, b = pair
    n = a.dim
    expected = IsometryElement(
        SignedPermutation(
            tuple(a.linear.perm[b.linear.perm[j]] for j in range(n)),
            tuple(b.linear.signs[j] * a.linear.signs[b.linear.perm[j]] for j in range(n)),
        ),
        tuple(x + y for x, y in zip(inverse(b.linear).apply(a.translation), b.translation)),
    )
    trusted = a.compose(b)
    assert trusted == expected and hash(trusted) == hash(expected)
    assert hash(trusted.linear) == hash((expected.linear.perm, expected.linear.signs))
    assert all(0 <= q < 4 for q in trusted.translation)


def test_records_are_frozen_values_of_one_class():
    calls = []

    class Pair(bieberbach.Record):
        left: int
        right: int

        @cached_property
        def total(self):
            calls.append(self)
            return self.left + self.right

    class Twin(bieberbach.Record):
        left: int
        right: int

    class Heir(Pair):
        pass

    pair = Pair(1, right=2)
    assert pair == Pair(1, 2) and hash(pair) == hash((1, 2))
    assert repr(pair).endswith("Pair(left=1, right=2)")
    assert pair != Twin(1, 2) and Twin(1, 2) != pair
    assert pair != Heir(1, 2) and Heir(1, 2) != pair
    for bad in ((1,), (1, 2, 3)):
        with pytest.raises(TypeError):
            Pair(*bad)
    with pytest.raises(AttributeError):
        pair.left = 5
    with pytest.raises(AttributeError):
        del pair.right
    with pytest.raises(AttributeError):
        pair.total = 0
    assert pair.total == pair.total == 3 and calls == [pair]
    assert (pair.left, pair.right) == (1, 2)


def test_public_constructors_still_check():
    with pytest.raises(ValueError):
        SignedPermutation((0, 2), (1, 1))
    with pytest.raises(ValueError):
        SignedPermutation.diagonal((1, 0))
    with pytest.raises(TypeError):
        IsometryElement(SignedPermutation.identity(2), (0, 0.5))
    with pytest.raises(TypeError):
        IsometryElement(SignedPermutation.identity(2), (0, True))
    with pytest.raises(ValueError):
        IsometryElement(SignedPermutation.identity(2), (0,))
    # a diagonal element keeps the int form, and a bool must still raise
    diagonal = SignedPermutation.diagonal((1, -1))
    assert IsometryElement(diagonal, (0, 1)).translation == (0, 1)
    with pytest.raises(TypeError):
        IsometryElement(diagonal, (0, True))
    with pytest.raises(ValueError):
        IsometryElement(SignedPermutation.diagonal((1, 2)), (0, 0))
    # the constructors hand out checked elements, from lists as from tuples
    assert IsometryElement(diagonal, (4, 6)) == iso((1, -1), (0, 2))
    assert IsometryElement(SignedPermutation.diagonal([1, -1]), [0, 2]) == IsometryElement(diagonal, (0, 2))


def test_apply_uses_column_convention():
    # B e_1 = -e_2, B e_2 = e_1
    b = SignedPermutation((1, 0), (-1, 1))
    assert b.apply((1, 0)) == (0, -1)
    assert b.apply((0, 1)) == (1, 0)
    assert b.apply((3, 5)) == (5, -3)


def test_compose_and_inverse_are_matrix_operations():
    b = SignedPermutation((1, 2, 0), (-1, 1, -1))
    c = SignedPermutation((2, 0, 1), (1, -1, 1))
    basis = [tuple(1 if k == j else 0 for k in range(3)) for j in range(3)]
    for v in basis:
        assert b.compose(c).apply(v) == b.apply(c.apply(v))
        assert inverse(b).apply(b.apply(v)) == v
    assert b.compose(inverse(b)) == SignedPermutation.identity(3)


def test_order_det_trace():
    jt = SignedPermutation((1, 0), (-1, 1))  # rotation by a quarter turn
    assert jt.order() == 4
    assert jt.det() == 1
    swap = SignedPermutation((1, 0), (1, 1))
    assert swap.order() == 2
    assert swap.det() == -1
    assert SignedPermutation.diagonal((-1, 1)).order() == 2
    assert SignedPermutation.identity(4).order() == 1


def test_signed_permutation_json_round_trip():
    b = SignedPermutation((2, 0, 1), (1, -1, 1))
    assert SignedPermutation.from_json(b.to_json()) == b
    assert b.to_json() == {"perm": [3, 1, 2], "signs": [1, -1, 1]}


# isometries ----------------------------------------------------------------


def test_translation_reduced_mod_one_and_quarter_checked():
    elem = IsometryElement(SignedPermutation.identity(2), (5, -2))
    assert elem.translation == (1, 2)
    with pytest.raises(ValueError, match="denominator"):
        IsometryElement.from_json({"perm": [1], "signs": [1], "translation": ["1/3"]})


def test_from_json_reduces_translations_mod_one():
    obj = {"perm": [1, 2, 3], "signs": [1, 1, 1], "translation": ["-1/2", "9/4", 3]}
    assert IsometryElement.from_json(obj).translation == (2, 1, 0)


def test_identity_composition():
    e = IsometryElement.identity(3)
    assert e.compose(e) == e
    assert e.linear == SignedPermutation.identity(3) and not any(e.translation)


def test_compose_matches_hand_composition():
    # gamma o gamma for gamma = (diag(-1,-1,1), (1/2, 0, 1/2)) is a lattice
    # translation, i.e. the identity representative
    gamma = iso((-1, -1, 1), (2, 0, 2))
    square = gamma.compose(gamma)
    assert square.linear == SignedPermutation.identity(3)
    assert square.translation == (0, 0, 0)


def test_compose_follows_the_semidirect_rule():
    # product of the Hantzsche-Wendt generators: translation B2*b1 + b2 mod 1
    g = catalog("hw3/M1")
    gamma1, gamma2 = g.generators
    product = gamma1.compose(gamma2)
    expected_linear = gamma1.linear.compose(gamma2.linear)
    moved = gamma2.linear.apply(gamma1.translation)
    expected_translation = tuple((a + b) % 4 for a, b in zip(moved, gamma2.translation))
    assert product.linear == expected_linear
    assert product.translation == expected_translation


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        IsometryElement.identity(2).compose(IsometryElement.identity(3))


# expansion -----------------------------------------------------------------


def test_expand_holonomy_hw_trio():
    g = catalog("hw3/M1")
    assert g.order == 4
    b1, b2 = g.generators[0].linear, g.generators[1].linear
    assert b1.compose(b2) in [e.linear for e in g.holonomy]
    assert g.holonomy[0] == IsometryElement.identity(3)


def test_expand_holonomy_z4xz2():
    g = catalog("dim6/z4z2_M")
    assert g.order == 8
    assert classify_holonomy(g).description == "Z4 x Z2"


def test_expand_empty_generators_gives_torus():
    g = torus(3)
    assert g.order == 1
    assert g.holonomy[0] == IsometryElement.identity(3)


def test_expand_detects_inconsistent_cocycle():
    # the same linear part with two different translations mod 1
    gens = [
        iso((-1, 1), (0, 2)),
        iso((-1, 1), (0, 1)),
    ]
    with pytest.raises(HolonomyExpansionError):
        expand_holonomy(gens, 2)


def test_expand_cap(monkeypatch):
    gens = [
        IsometryElement(SignedPermutation((1, 0, 2), (1, 1, 1)), (0, 0, 2)),
        IsometryElement(SignedPermutation((0, 2, 1), (1, 1, 1)), (2, 0, 0)),
    ]
    monkeypatch.setattr(bieberbach, "HOLONOMY_CAP", 4)
    with pytest.raises(HolonomyExpansionError, match="the cap of 4 elements"):
        expand_holonomy(gens, 3)


def test_generator_order_independence():
    g = catalog("hw3/M3")
    swapped = expand_holonomy(tuple(reversed(g.generators)), g.dim)
    assert canonical_key(swapped) == canonical_key(g)


# torsion -------------------------------------------------------------------


def test_z2_members_are_torsion_free():
    from flatspec.families import z2_family

    for group in z2_family(4):
        assert is_torsion_free(group)


def test_point_reflection_has_torsion():
    group = expand_holonomy([iso((-1, 1), (0, 0))], 2)
    assert not is_torsion_free(group)
    report = validate(group)
    assert not report.accepted
    assert not report.torsion_free
    assert report.closure and report.cocycle


def test_all_k4_members_are_torsion_free():
    for group in kn_family(4):
        assert is_torsion_free(group)


def test_coset_criterion_on_klein_generator():
    glide = iso((-1, 1), (0, 2))
    reflection = iso((-1, 1), (0, 0))
    assert coset_is_torsion_free(glide)
    assert not coset_is_torsion_free(reflection)


def test_no_validated_group_contains_minus_identity():
    groups = [catalog(n) for n in ("hw3/M1", "dim3/m10", "dim6/z4z2_M")] + list(kn_family(4))
    for group in groups:
        for elem in group.holonomy:
            # one theta key pair per cycle of sign product +1
            assert len(elem.theta_key) >= 1


# classification ------------------------------------------------------------


def test_classify_elementary_abelian():
    assert classify_holonomy(catalog("hw3/M1")).elementary_rank == 2
    assert classify_holonomy(catalog("hw3/M1")).description == "Z2^2"
    assert classify_holonomy(torus(5)).elementary_rank == 0
    assert classify_holonomy(torus(5)).description == "trivial"
    assert classify_holonomy(catalog("dim3/m10")).description == "Z2"


def test_classify_cyclic_four_and_product():
    z4 = classify_holonomy(catalog("dim6/z4_M"))
    assert z4.elementary_rank is None
    assert z4.description == "Z4"
    z4z2 = classify_holonomy(catalog("dim6/z4z2_M"))
    assert z4z2.elementary_rank is None
    assert z4z2.description == "Z4 x Z2"
    assert z4z2.abelian


def test_diagonal_type_and_orientable():
    hw = catalog("hw3/M1")
    assert validate(hw).diagonal_type
    assert is_orientable(hw)
    dicosm_labeled = catalog("dim3/m10")
    assert not validate(dicosm_labeled).diagonal_type
    assert not is_orientable(dicosm_labeled)
    t = torus(2)
    assert validate(t).diagonal_type
    assert is_orientable(t)
    quarter_turn = catalog("dim6/z4_M")
    assert not validate(quarter_turn).diagonal_type
    assert is_orientable(quarter_turn)


# canonical keys ------------------------------------------------------------


def test_canonical_key_equality_and_difference():
    g = catalog("hw3/M2")
    assert canonical_key(g) == canonical_key(catalog("hw3/M2"))
    assert canonical_key(catalog("hw3/M2")) != canonical_key(catalog("hw3/M3"))
    keys = {canonical_key(group) for group in kn_family(4)}
    assert len(keys) == 8


# validation reports --------------------------------------------------------


def test_validate_generators_happy_path():
    g = catalog("hw3/M1")
    group, report = validate_generators(g.generators, 3, name="again")
    assert group is not None
    assert report.accepted
    assert report.holonomy == "Z2^2"
    assert report.diagonal_type and report.orientable


def test_validate_generators_expansion_failure():
    gens = [iso((-1, 1), (0, 2)), iso((-1, 1), (0, 1))]
    group, report = validate_generators(gens, 2)
    assert group is None
    assert not report.accepted
    assert not report.cocycle
    assert "cocycle" in report.summary()


def test_validation_report_json_keys():
    _, report = validate_generators(catalog("hw3/M1").generators, 3, name="hw")
    obj = report.to_json()
    assert set(obj) == {
        "dim",
        "name",
        "accepted",
        "closure",
        "cocycle",
        "torsion_free",
        "holonomy_order",
        "holonomy",
        "elementary_rank",
        "diagonal_type",
        "orientable",
        "error",
    }


# JSON round trip -----------------------------------------------------------


def test_group_json_round_trip():
    g = catalog("dim6/z4z2_Mp")
    obj = json.loads(json.dumps(g.to_json()))
    back = group_from_json(obj)
    assert canonical_key(back) == canonical_key(g)
    assert back.name == g.name


@st.composite
def diagonal_isometries(draw, n):
    signs = tuple(draw(st.sampled_from((1, -1))) for _ in range(n))
    translation = tuple(draw(st.sampled_from((0, 2))) for _ in range(n))
    return IsometryElement(SignedPermutation.diagonal(signs), translation)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_expansion_is_associative_on_representatives(data):
    n = data.draw(st.integers(2, 4))
    gens = [data.draw(diagonal_isometries(n)) for _ in range(2)]
    try:
        group = expand_holonomy(gens, n)
    except HolonomyExpansionError:
        return
    for a in group.holonomy:
        for b in group.holonomy:
            for c in group.holonomy:
                assert a.compose(b).compose(c) == a.compose(b.compose(c))
