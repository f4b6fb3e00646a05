"""Exact scalar arithmetic: binomials, the Gaussian-integer output value,
and the rational interchange form of quarter units."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flatspec.arith import GaussianInt, binomial, format_quarter, parse_quarter


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


def test_gaussian_json_form():
    assert GaussianInt(-2, 1).to_json() == {"re": -2, "im": 1}


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
