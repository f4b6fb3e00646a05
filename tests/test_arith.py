"""Exact scalar arithmetic: JSON integers and the rational interchange form
of quarter units, and the binomial oracle the Krawtchouk checks rest on."""

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import binomial, fraction_format_quarter, fraction_parse_quarter

from flatspec.arith import format_quarter, json_int, parse_quarter


def test_binomial_small_cases():
    assert binomial(3, 2) == 3
    assert binomial(4, 2) == 6
    assert binomial(0, 0) == 1


def test_binomial_out_of_range_is_zero():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


@given(st.integers(2, 64), st.data())
def test_binomial_pascal_rule(n, data):
    k = data.draw(st.integers(1, n - 1))
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_json_int_accepts_integers_only():
    assert json_int(-3, "perm") == -3
    for value in (1.0, 1.9, True, "1", None):
        with pytest.raises(ValueError, match="perm must be a JSON integer"):
            json_int(value, "perm")


def test_parse_quarter_accepts_quarters_only():
    assert parse_quarter("3/4") == 3
    assert parse_quarter(2) == 8
    with pytest.raises(ValueError, match="denominator"):
        parse_quarter("1/3")
    with pytest.raises(TypeError):
        parse_quarter(0.5)
    with pytest.raises(TypeError):
        parse_quarter(True)


def test_parse_and_format_round_trip():
    for text, value in [("1/2", 2), ("3/4", 3), (2, 8)]:
        assert parse_quarter(text) == value
    assert format_quarter(2) == "1/2"
    assert format_quarter(20) == 5
    assert parse_quarter(format_quarter(3)) == 3
    with pytest.raises(ValueError):
        parse_quarter("1/3")
    with pytest.raises(TypeError):
        parse_quarter(0.25)


def _outcome(function, value):
    """(type, value) of the result, or (type, message) of the error."""
    try:
        result = function(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return type(result), result


# ints and True; the plain ASCII forms; denominators that are not in (1/4)Z,
# zero or signed; the forms only Fraction reads; and no number at all
QUARTER_INPUTS = [0, 5, -3, -12, True, "+1/2", " 3/4 ", "2/4", "-1/4", "1/3", "1/0", "1/-2"]
QUARTER_INPUTS += ["0.5", "1e0", "1_0", "\u0661/\u0662", "", "abc"]


@pytest.mark.parametrize("value", QUARTER_INPUTS, ids=repr)
def test_parse_quarter_matches_the_fraction_oracle(value):
    assert _outcome(parse_quarter, value) == _outcome(fraction_parse_quarter, value)


def test_format_quarter_matches_the_fraction_oracle():
    for q in range(-9, 10):
        assert _outcome(format_quarter, q) == _outcome(fraction_format_quarter, q)
