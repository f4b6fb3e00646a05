"""Exact scalars shared by every module: binomial coefficients and the
boundary between rationals and quarter units.

Nothing in the computation path ever touches floating point.  Translation
coordinates live in (1/4)Z and are carried as integer quarter units: the
int q stands for q/4.  Every character sum is then a real integer, and
every multiplicity comes out as an exact integer or fails loudly.  Rationals
appear only where coordinates are read or written: ``parse_quarter`` turns
the interchange form (a bare int or 'p/q') into quarter units and
``format_quarter`` turns them back.
"""

from __future__ import annotations

import math
from fractions import Fraction


def binomial(n: int, k: int) -> int:
    """C(n, k) as an exact integer, with 0 for k outside 0..n."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def json_int(value, field: str) -> int:
    """A JSON integer read from the interchange form: a float, a bool or a
    string raises ValueError instead of being truncated or coerced."""
    if type(value) is not int:
        raise ValueError(f"{field} must be a JSON integer, got {value!r}")
    return value


def parse_quarter(value: int | str) -> int:
    """Quarter units of a coordinate in interchange form: a bare integer or
    'p/q' with q dividing 4."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"cannot parse {value!r} as a rational")
    frac = Fraction(value.strip() if isinstance(value, str) else value)
    if 4 % frac.denominator:
        raise ValueError(
            f"denominator {frac.denominator} unsupported: coordinates must lie in (1/4)Z"
        )
    return int(4 * frac)


def format_quarter(q: int) -> int | str:
    """Interchange form of q/4: bare int, or 'p/q' for q in {2, 4}."""
    frac = Fraction(q, 4)
    if frac.denominator == 1:
        return int(frac)
    return f"{frac.numerator}/{frac.denominator}"


def quarters_as_rationals(quarters) -> tuple[Fraction, ...]:
    """The rationals a quarter-unit vector stands for, as diagnostics print
    them."""
    return tuple(Fraction(q, 4) for q in quarters)
