"""The single translation format: integer quarter units everywhere, with
rationals only at the interchange boundary in ``arith``.

The rational formulas below are the reference the integer group law is
checked against; they use exact ``Fraction`` coordinates reduced mod 1.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import inverse

from flatspec.bieberbach import IsometryElement, SignedPermutation, coset_is_torsion_free

SRC = Path(__file__).parent.parent / "src" / "flatspec"


def rationals(quarters):
    return tuple(Fraction(q, 4) for q in quarters)


def reference_compose(a: IsometryElement, b: IsometryElement):
    """(Ba L_a)(Bb L_b) = (Ba Bb) L_{Bb^-1 a + b}, translations mod 1."""
    linear = a.linear.compose(b.linear)
    shifted = inverse(b.linear).apply(rationals(a.translation))
    return linear, tuple((x + y) % 1 for x, y in zip(shifted, rationals(b.translation)))


def reference_torsion_free(a: IsometryElement) -> bool:
    """Some positive cycle of B has a non-integral sum of eps * b."""
    translation = rationals(a.translation)
    for indices, eps, sigma in a.linear.cycles():
        if sigma != 1:
            continue
        total = sum((e * translation[j] for j, e in zip(indices, eps)), Fraction(0))
        if total.denominator != 1:
            return True
    return False


@st.composite
def isometries(draw, n):
    perm = tuple(draw(st.permutations(range(n))))
    signs = tuple(draw(st.sampled_from((1, -1))) for _ in range(n))
    translation = tuple(draw(st.integers(-9, 9)) for _ in range(n))
    return IsometryElement(SignedPermutation(perm, signs), translation)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_integer_group_law_matches_rational_reference(data):
    n = data.draw(st.integers(1, 6))
    a = data.draw(isometries(n))
    b = data.draw(isometries(n))
    product = a.compose(b)
    assert (product.linear, rationals(product.translation)) == reference_compose(a, b)
    assert coset_is_torsion_free(a) == reference_torsion_free(a)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_json_round_trip(data):
    element = data.draw(isometries(data.draw(st.integers(1, 6))))
    obj = json.loads(json.dumps(element.to_json()))
    assert IsometryElement.from_json(obj) == element


def test_translations_are_reduced_quarter_ints():
    element = IsometryElement(SignedPermutation.identity(3), (-1, 6, 4))
    assert element.translation == (3, 2, 0)
    assert element.to_json()["translation"] == ["3/4", "1/2", 0]
    assert str(element) == "[e1,e2,e3]L[3/4,1/2,0]"


@pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5, True])
def test_constructor_rejects_non_int_coordinates(bad):
    with pytest.raises(TypeError):
        IsometryElement(SignedPermutation.identity(2), (0, bad))


def test_only_arith_mentions_rationals():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name != "arith.py" and ("Fraction" in text or "fractions" in text):
            offenders.append(path.name)
    assert offenders == []
