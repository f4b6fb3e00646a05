"""Exact scalars shared by every module: binomial coefficients, Gaussian
integers, and the boundary between rationals and quarter units.

Nothing in the computation path ever touches floating point.  Translation
coordinates live in (1/4)Z and are carried as integer quarter units: the
int q stands for q/4.  All character values are then powers of i, and every
multiplicity comes out as an exact integer or fails loudly.  Rationals
appear only where coordinates are read or written: ``parse_quarter`` turns
the interchange form (a bare int or 'p/q') into quarter units and
``format_quarter`` turns them back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

def binomial(n: int, k: int) -> int:
    """C(n, k) as an exact integer, with 0 for k outside 0..n."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True)
class GaussianInt:
    """A Gaussian integer re + im*i: the exact value of a character sum."""

    re: int = 0
    im: int = 0

    def to_json(self) -> dict:
        return {"re": self.re, "im": self.im}

    def __str__(self) -> str:
        return f"{self.re}{self.im:+d}i"


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
