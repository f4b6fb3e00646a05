"""Exact scalars shared by every module: the checks on JSON values read
from the interchange form, and the boundary between rationals and quarter
units.

Nothing in the computation path ever touches floating point.  Translation
coordinates live in (1/4)Z and are carried as integer quarter units: the
int q stands for q/4.  Every character sum is then a real integer, and
every multiplicity comes out as an exact integer or fails loudly.  Rationals
appear only in ``parse_quarter`` and ``format_quarter``, which read and write
the interchange form (a bare int or 'p/q') in integer arithmetic; ``Fraction``
serves only the fallback parse.
"""

from __future__ import annotations

import math
import re


def json_int(value, field: str) -> int:
    """A JSON integer read from the interchange form: a float, a bool or a
    string raises ValueError instead of being truncated or coerced."""
    if type(value) is not int:
        raise ValueError(f"{field} must be a JSON integer, got {value!r}")
    return value


def json_array(value, field: str) -> list:
    """A JSON array read from the interchange form: a string, a number or an
    object raises ValueError instead of being iterated."""
    if type(value) is not list:
        raise ValueError(f"{field} must be a JSON array, got {value!r}")
    return value


def json_field(obj: dict, field: str, where: str):
    """obj[field] of a JSON object read from the interchange form: a missing
    field raises ValueError naming it as the file writes it."""
    if field not in obj:
        raise ValueError(f"{where} needs the field '{field}'")
    return obj[field]


def parse_quarter(value: int | str) -> int:
    """Quarter units of a coordinate in interchange form: a bare integer or
    'p/q' with q dividing 4; ``Fraction`` reads any string but ASCII [+-]p[/q], q > 0."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"cannot parse {value!r} as a rational")
    if isinstance(value, int):
        return 4 * value
    text = value.strip()
    if re.fullmatch(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?", text):
        num, _, den = text.partition("/")
        num, den = int(num), int(den or 1)
    else:
        from fractions import Fraction
        frac = Fraction(text)
        num, den = frac.numerator, frac.denominator
    reduced = den // math.gcd(num, den)
    if 4 % reduced:
        raise ValueError(f"denominator {reduced} unsupported: coordinates must lie in (1/4)Z")
    return 4 * num // den


def format_quarter(q: int) -> int | str:
    """Interchange form of q/4: bare int, or 'p/q' for q in {2, 4}."""
    common = math.gcd(q, 4)
    return q // 4 if common == 4 else f"{q // common}/{4 // common}"

