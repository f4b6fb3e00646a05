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
    """A Gaussian integer re + im*i with exact ring arithmetic."""

    re: int = 0
    im: int = 0

    def __add__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussianInt":
        return GaussianInt(-self.re, -self.im)

    def scaled(self, k: int) -> "GaussianInt":
        """Multiply by an ordinary integer."""
        return GaussianInt(k * self.re, k * self.im)

    def conjugate(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def to_json(self) -> dict:
        return {"re": self.re, "im": self.im}

    def __str__(self) -> str:
        return f"{self.re}{self.im:+d}i"


GI_ZERO = GaussianInt(0, 0)
GI_ONE = GaussianInt(1, 0)

# e^(-2*pi*i*q/4) for q = 0, 1, 2, 3
_QUARTER_TURNS = (
    GaussianInt(1, 0),
    GaussianInt(0, -1),
    GaussianInt(-1, 0),
    GaussianInt(0, 1),
)


def quarter_root_power(q: int) -> GaussianInt:
    """The unit e^(-2*pi*i*q/4); q is taken mod 4."""
    return _QUARTER_TURNS[q % 4]


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
