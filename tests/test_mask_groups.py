"""Mask groups against the element path.

A group expanded from diagonal generators with translations in (1/2)Z^n
keeps a basis of (negation, half-translation) mask pairs and reads its
order, torsion verdict, classification and spectral signature off it.
Each must equal what the same representatives give through the element
path (compose walk, theta keys, cycles), and none of them may build
``holonomy``.  Both sides read an involution's traces off its key, so
``test_spectra`` checks those against each coset's own.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from oracles import expand_by_compose
from test_group_algebra import half_generator_sets

from flatspec import bieberbach, families
from flatspec.bieberbach import (
    BieberbachGroup,
    IsometryElement,
    classify_holonomy,
    expand_holonomy,
    is_torsion_free,
    torsion_witness,
    validate,
)
from flatspec.families import catalog


def _element_twin(group: BieberbachGroup) -> BieberbachGroup:
    """The same group held as representatives from the compose walk, so
    every check takes the element path."""
    reps = expand_by_compose(group.generators, group.dim)
    fields = {"dim": group.dim, "generators": group.generators, "name": group.name}
    return BieberbachGroup._trusted(holonomy=reps, **fields)


def assert_matches_element_path(group: BieberbachGroup) -> None:
    assert group._basis is not None
    twin = _element_twin(group)
    assert twin._basis is None
    assert group.order == twin.order
    assert is_torsion_free(group) == is_torsion_free(twin)
    assert classify_holonomy(group) == classify_holonomy(twin)
    assert dict(group.signature) == dict(twin.signature)
    # a witness names the first torsion coset in representative order, and
    # no mask check, the walk that finds a witness included, stores one
    assert torsion_witness(group) == torsion_witness(twin)
    assert "holonomy" not in vars(group), "a mask check built the representatives"
    assert group.holonomy == twin.holonomy
    assert group == twin and hash(group) == hash(twin)


# every K_n member for n <= 6, the h-only Z2-family members (the others
# swap axes) for n <= 6, and hw3, hw5 and hw7
FAMILIES = [("kn", n) for n in range(2, 7)] + [("z2", n) for n in range(2, 7)]
FAMILIES += [("hw-catalog", n) for n in (3, 5, 7)]


@pytest.mark.parametrize("kind,n", FAMILIES)
def test_family_members_match_the_element_path(kind, n):
    checked = 0
    for member in families.family_members(kind, n):
        if kind == "z2" and member.generators[0].half_masks is None:
            continue
        # built afresh: the catalog's cached groups may have been read before
        group = expand_holonomy(member.generators, n, name=member.name)
        assert_matches_element_path(group)
        checked += 1
    assert checked == {"kn": 2 ** ((n - 1) * (n - 2) // 2), "z2": n - 1}.get(kind, 3)


@settings(deadline=None, max_examples=300)
@given(half_generator_sets())
def test_generator_sets_match_the_element_path(case):
    # dependent, inconsistent and torsion sets alike
    n, gens = case
    try:
        group = expand_holonomy(gens, n)
    except bieberbach.HolonomyExpansionError:
        return
    assert_matches_element_path(group)


def test_torsion_witness_is_the_first_in_order():
    # e_1 -> -e_1 with 1/2 on e_3 is torsion free, e_2 -> -e_2 alone is not,
    # and their product is again torsion free
    gens = [
        IsometryElement(bieberbach.SignedPermutation.diagonal((-1, 1, 1)), (0, 0, 2)),
        IsometryElement(bieberbach.SignedPermutation.diagonal((1, -1, 1)), (0, 0, 0)),
    ]
    group = expand_holonomy(gens, 3)
    assert not is_torsion_free(group)
    assert torsion_witness(group) == gens[1]
    assert torsion_witness(_element_twin(group)) == gens[1]


def test_a_rejected_k8_member_names_its_witness_without_holonomy():
    # a K_8 member whose generator 7 keeps its reflection but not its
    # translation, as sweep-validate's reject jobs read it
    member = families.kn_group_from_array(families.kn_array(8, 12345))
    gens = list(member.generators)
    gens[6] = IsometryElement(gens[6].linear, (0,) * 8)
    group = expand_holonomy(gens, 8, name="K8-zero7")
    report = validate(group)
    assert not report.accepted and not report.torsion_free
    assert "holonomy" not in vars(group)
    witness = torsion_witness(_element_twin(group))
    assert report.error == f"coset of {witness} contains an element of finite order"


def test_mask_groups_compare_without_building_holonomy():
    gens = catalog("hw5/H1").generators
    left, right = expand_holonomy(gens, 5, name="x"), expand_holonomy(gens, 5, name="x")
    assert left is not right and left == right and hash(left) == hash(right)
    assert left != expand_holonomy(gens, 5, name="y")
    assert left != expand_holonomy(gens[:-1], 5, name="x")
    for group in (left, right):
        assert "holonomy" not in vars(group)
    # the representatives follow from the generators: none can be swapped in
    with pytest.raises(AttributeError):
        left.holonomy = left.holonomy[:-1]
    with pytest.raises(TypeError):
        BieberbachGroup(**vars(left) | {"holonomy": left.holonomy[:-1]})
    assert len(left.holonomy) == left.order


def test_holonomy_is_built_once_and_nothing_else_is_derived():
    group = expand_holonomy(catalog("hw5/H1").generators, 5)
    first = group.holonomy
    assert group.holonomy is first and vars(group)["holonomy"] is first
    for held in (group, catalog("dim6/z4_M")):
        with pytest.raises(AttributeError, match="object has no attribute 'cosets'"):
            held.cosets


def test_validated_cosets_are_freed_with_the_group():
    group = families.kn_group_from_array(families.kn_array(8, 12345))
    assert validate(group).accepted
    refs = [weakref.ref(elem) for elem in group.holonomy]
    assert len(refs) == 128
    del group
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []
