"""Constructors for the built-in manifold families.

* the one-generator family with holonomy Z2 (parameters j, h: j swap
  blocks, h sign flips, translation e_n/2);
* diagonal-type groups from explicit sign columns and half-integer
  translations, including the Hantzsche-Wendt groups;
* the {0, 1/2}-array family with holonomy Z2^(n-1) and first Betti
  number one, parameterized by the free strict upper triangle;
* a named catalog of fixed example groups (dimensions 3 to 7), embedded
  verbatim rather than re-derived.

Translations are written in quarter units throughout (2 is 1/2, 1 is 1/4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .arith import format_quarter, parse_quarter
from .bieberbach import (
    BieberbachGroup,
    GroupValidationError,
    IsometryElement,
    SignedPermutation,
    expand_holonomy,
    is_torsion_free,
    validate,
)

#: largest n for which the full Z2^(n-1) array family may be enumerated
KN_CAP = 8


def _require(group: BieberbachGroup) -> BieberbachGroup:
    # Constructors guarantee closure/cocycle via expansion; torsion is the
    # check that can genuinely fail, so test it cheaply and only build the
    # full report on failure.
    if not is_torsion_free(group):
        raise GroupValidationError(validate(group))
    return group


# ---------------------------------------------------------------------------
# the Z2 family


def z2_linear(n: int, j: int, h: int) -> SignedPermutation:
    """diag(J,...,J, -1,...,-1, 1,...,1) with j swap blocks and h sign flips."""
    perm = list(range(n))
    signs = [1] * n
    for k in range(j):
        perm[2 * k], perm[2 * k + 1] = 2 * k + 1, 2 * k
    for i in range(2 * j, 2 * j + h):
        signs[i] = -1
    return SignedPermutation(tuple(perm), tuple(signs))


def _require_z2_dim(n: int) -> None:
    if n < 2:
        raise ValueError(f"the family needs dimension >= 2, got n={n}")


def z2_parameters(n: int) -> list[tuple[int, int]]:
    """All (j, h) with 0 <= j <= [(n-1)/2], 0 <= h < n - 2j, j + h != 0."""
    _require_z2_dim(n)
    return [
        (j, h)
        for j in range((n - 1) // 2 + 1)
        for h in range(n - 2 * j)
        if j + h != 0
    ]


def z2_group(n: int, j: int, h: int, name: str | None = None) -> BieberbachGroup:
    """The group generated by z2_linear(n, j, h) composed with L_{e_n/2}."""
    if (j, h) not in z2_parameters(n):
        raise ValueError(f"invalid parameters j={j}, h={h} for n={n}")
    translation = tuple(2 if i == n - 1 else 0 for i in range(n))
    generator = IsometryElement(z2_linear(n, j, h), translation)
    group = expand_holonomy([generator], n, name=name or f"M[{j},{h}]")
    return _require(group)


def z2_family(n: int) -> list[BieberbachGroup]:
    """Every diffeomorphism class with holonomy Z2 over the cubic lattice."""
    return [z2_group(n, j, h) for j, h in z2_parameters(n)]


def z2_family_size(n: int) -> int:
    """Closed-form cardinality (n - [(n-1)/2]) * ([(n-1)/2] + 1) - 1."""
    _require_z2_dim(n)
    half = (n - 1) // 2
    return (n - half) * (half + 1) - 1


# ---------------------------------------------------------------------------
# diagonal-type groups


def diagonal_group(sign_columns, translations, name: str | None = None) -> BieberbachGroup:
    """Group generated by diagonal sign matrices with the given translations
    (quarter units).

    Raises GroupValidationError carrying the full report if the group has
    torsion (used to build Hantzsche-Wendt groups and the dimension-3 Z2^2
    trio).
    """
    columns = [tuple(col) for col in sign_columns]
    shifts = [tuple(trans) for trans in translations]
    if len(columns) != len(shifts):
        raise ValueError("need exactly one translation per sign column")
    if not columns:
        raise ValueError("need at least one generator column")
    n = len(columns[0])
    generators = [
        IsometryElement(SignedPermutation.diagonal(col), trans)
        for col, trans in zip(columns, shifts)
    ]
    return _require(expand_holonomy(generators, n, name=name))


# Translation vectors (in half units, doubled when read) of sample
# Hantzsche-Wendt groups: generator i fixes e_i, negates every other axis
# and translates by row i below.  The first entry per dimension is the
# classical chain b_i = (e_i + e_{i+1})/2; the others were found by search
# over {0, 1/2} translations, each re-validated at construction time.
_HW_DATA: dict[int, tuple[tuple[tuple[int, ...], ...], ...]] = {
    5: (
        (
            (1, 1, 0, 0, 0),
            (0, 1, 1, 0, 0),
            (0, 0, 1, 1, 0),
            (0, 0, 0, 1, 1),
        ),
        (
            (1, 0, 0, 0, 0),
            (0, 1, 1, 0, 0),
            (0, 0, 1, 1, 0),
            (0, 0, 0, 1, 1),
        ),
        (
            (1, 0, 0, 0, 0),
            (0, 1, 1, 0, 0),
            (0, 0, 1, 1, 0),
            (1, 0, 0, 1, 1),
        ),
    ),
    7: (
        (
            (1, 1, 0, 0, 0, 0, 0),
            (0, 1, 1, 0, 0, 0, 0),
            (0, 0, 1, 1, 0, 0, 0),
            (0, 0, 0, 1, 1, 0, 0),
            (0, 0, 0, 0, 1, 1, 0),
            (0, 0, 0, 0, 0, 1, 1),
        ),
        (
            (1, 0, 1, 0, 0, 0, 1),
            (0, 1, 0, 0, 0, 1, 0),
            (0, 1, 1, 0, 1, 0, 0),
            (1, 0, 1, 1, 0, 1, 1),
            (0, 0, 0, 0, 1, 0, 1),
            (1, 0, 0, 0, 1, 1, 0),
        ),
        (
            (1, 0, 1, 0, 0, 0, 0),
            (0, 1, 1, 0, 0, 1, 0),
            (0, 0, 1, 1, 1, 1, 0),
            (0, 1, 1, 1, 0, 0, 0),
            (0, 0, 0, 1, 1, 1, 1),
            (0, 1, 0, 1, 0, 1, 0),
        ),
    ),
}


def _hw_group(n: int, index: int) -> BieberbachGroup:
    """hw{n}/H{index} from its half-unit rows in _HW_DATA."""
    columns = [tuple(1 if k == i else -1 for k in range(n)) for i in range(n - 1)]
    translations = [tuple(2 * x for x in row) for row in _HW_DATA[n][index - 1]]
    return diagonal_group(columns, translations, name=f"hw{n}/H{index}")


def hw_groups(n: int) -> tuple[BieberbachGroup, ...]:
    """Built-in Hantzsche-Wendt groups in odd dimension n."""
    if n == 3:
        return (catalog("hw3/M1"),)
    if n not in _HW_DATA:
        raise ValueError(f"no built-in Hantzsche-Wendt data in dimension {n}")
    return tuple(catalog(f"hw{n}/H{index}") for index in range(1, len(_HW_DATA[n]) + 1))


# ---------------------------------------------------------------------------
# the {0, 1/2} array family with holonomy Z2^(n-1)


@dataclass(frozen=True)
class GhwArray:
    """n x n array over {0, 1/2}: column i holds the translation of the i-th
    generator (which negates only axis i), column n the derived translation
    of the product of all generators.

    Entries are quarter units like every translation, so each is 0 or 2.
    ``from_rows`` reads and ``to_json`` writes the rational interchange form
    (0 and "1/2").

    Forced entries: subdiagonal (i+1, i) = 1/2, diagonal zero except
    (n, n) = 1/2, zero below the subdiagonal; every row carries an even
    number of 1/2 entries, equivalently the last column is the sum of the
    others mod 1.
    """

    n: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.n
        if n < 2:
            raise ValueError(f"arrays need n >= 2, got {n}")
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise ValueError(f"entries must form an {n}x{n} array")
        for row in self.entries:
            for value in row:
                if value not in (0, 2):
                    raise ValueError(f"entries must be 0 or 1/2, got {format_quarter(value)}")
        for c in range(n - 1):
            if self.entries[c + 1][c] != 2:
                raise ValueError(f"subdiagonal entry ({c + 2},{c + 1}) must be 1/2")
            if self.entries[c][c] != 0:
                raise ValueError(f"diagonal entry ({c + 1},{c + 1}) must be 0")
            for r in range(c + 2, n):
                if self.entries[r][c] != 0:
                    raise ValueError(f"entry ({r + 1},{c + 1}) below the subdiagonal must be 0")
        if self.entries[n - 1][n - 1] != 2:
            raise ValueError(f"entry ({n},{n}) must be 1/2")
        for r in range(n):
            if self.entries[r][n - 1] != sum(self.entries[r][: n - 1]) % 4:
                raise ValueError(
                    f"row {r + 1} has an odd number of 1/2 entries: "
                    "the last column must be the sum of the others mod 1"
                )

    @classmethod
    def from_rows(cls, rows) -> "GhwArray":
        entries = tuple(tuple(parse_quarter(v) for v in row) for row in rows)
        return cls(len(entries), entries)

    @classmethod
    def from_bits(cls, n: int, bits) -> "GhwArray":
        """Array with the free entries (r, c), r < c <= n-2 (0-based, in
        lexicographic order) set from the 0/1 bit vector."""
        bits = tuple(int(b) for b in bits)
        positions = free_positions(n)
        if len(bits) != len(positions):
            raise ValueError(f"need {len(positions)} bits for n={n}, got {len(bits)}")
        rows = [[0] * n for _ in range(n)]
        for c in range(n - 1):
            rows[c + 1][c] = 2
        for (r, c), bit in zip(positions, bits):
            rows[r][c] = 2 if bit else 0
        for r in range(n):
            rows[r][n - 1] = sum(rows[r][: n - 1]) % 4
        return cls(n, tuple(tuple(row) for row in rows))

    def column(self, c: int) -> tuple[int, ...]:
        return tuple(self.entries[r][c] for r in range(self.n))

    def bits(self) -> tuple[int, ...]:
        return tuple(self.entries[r][c] // 2 for r, c in free_positions(self.n))

    def bit_string(self) -> str:
        return "".join(str(b) for b in self.bits())

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "rows": [[format_quarter(v) for v in row] for row in self.entries],
        }


def free_positions(n: int) -> list[tuple[int, int]]:
    """0-based free entry positions: r < c <= n-2, lexicographic."""
    return [(r, c) for r in range(n - 1) for c in range(r + 1, n - 1)]


def free_parameter_count(n: int) -> int:
    return (n - 1) * (n - 2) // 2


def kn_group_from_array(array: GhwArray) -> BieberbachGroup:
    """The torsion-free group read off an array: generator i negates axis i
    and translates by column i."""
    n = array.n
    generators = []
    for c in range(n - 1):
        signs = tuple(-1 if k == c else 1 for k in range(n))
        generators.append(IsometryElement(SignedPermutation.diagonal(signs), array.column(c)))
    return _require(expand_holonomy(generators, n, name=kn_name(array)))


def kn_name(array: GhwArray) -> str:
    """K<n>[bits], or K<n> when the array has no free bits."""
    bit_string = array.bit_string()
    return f"K{array.n}[{bit_string}]" if bit_string else f"K{array.n}"


def kn_family_size(n: int) -> int:
    """2^((n-1)(n-2)/2) members, for the dimensions kn_arrays admits."""
    if n < 2:
        raise ValueError(f"the family needs n >= 2, got {n}")
    if n > KN_CAP:
        raise ValueError(f"dimension {n} exceeds the family cap {KN_CAP}")
    return 2 ** free_parameter_count(n)


def kn_arrays(n: int):
    """All arrays for dimension n, lexicographic in the free bit vector."""
    kn_family_size(n)
    for bits in itertools.product((0, 1), repeat=free_parameter_count(n)):
        yield GhwArray.from_bits(n, bits)


def kn_family(n: int) -> list[BieberbachGroup]:
    """All 2^((n-1)(n-2)/2) groups, each validated torsion-free."""
    return [kn_group_from_array(array) for array in kn_arrays(n)]


# ---------------------------------------------------------------------------
# named catalog


def torus(n: int) -> BieberbachGroup:
    """The trivial-holonomy group of the n-torus."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return expand_holonomy([], n, name=f"T^{n}")


def _jtilde_pairs(n: int, pairs) -> tuple[list[int], list[int]]:
    """perm/signs arrays with a rotation block (e_a -> -e_b, e_b -> e_a) on
    each listed 0-based pair."""
    perm = list(range(n))
    signs = [1] * n
    for a, b in pairs:
        perm[a], perm[b] = b, a
        signs[a], signs[b] = -1, 1
    return perm, signs


def _dim6_z4z2_generators() -> list[IsometryElement]:
    perm, signs = _jtilde_pairs(6, [(0, 1), (2, 3)])
    b1 = SignedPermutation(tuple(perm), tuple(signs))
    t1 = (0, 0, 0, 0, 1, 0)
    b2 = SignedPermutation.diagonal((-1, -1, 1, 1, 1, 1))
    t2 = (0, 0, 0, 0, 0, 2)
    return [IsometryElement(b1, t1), IsometryElement(b2, t2)]


def _dim6_z4z2_prime_generators() -> list[IsometryElement]:
    perm, signs = _jtilde_pairs(6, [(0, 1)])
    signs[2], signs[3], signs[4], signs[5] = 1, -1, -1, 1
    b1 = SignedPermutation(tuple(perm), tuple(signs))
    t1 = (0, 0, 0, 0, 0, 1)
    b2 = SignedPermutation.diagonal((-1, -1, -1, 1, -1, 1))
    t2 = (0, 0, 0, 2, 2, 0)
    return [IsometryElement(b1, t1), IsometryElement(b2, t2)]


_HW3_DATA = {
    "hw3/M1": ([(-1, -1, 1), (-1, 1, -1)], [(2, 0, 2), (0, 2, 0)]),
    "hw3/M2": ([(-1, -1, 1), (1, -1, 1)], [(0, 2, 2), (0, 0, 2)]),
    "hw3/M3": ([(-1, -1, 1), (1, -1, 1)], [(0, 2, 2), (2, 0, 0)]),
}

_Z2_CATALOG = {
    "dim3/m10": (3, 1, 0),
    "dim3/m02": (3, 0, 2),
    "dim3/m01": (3, 0, 1),
    "dim4/m11": (4, 1, 1),
    "dim4/m10": (4, 1, 0),
    "dim4/m03": (4, 0, 3),
    "dim4/m02": (4, 0, 2),
    "dim4/m01": (4, 0, 1),
}

_DIM6_GENERATORS = {
    "dim6/z4z2_M": _dim6_z4z2_generators,
    "dim6/z4z2_Mp": _dim6_z4z2_prime_generators,
    "dim6/z4_M": lambda: _dim6_z4z2_generators()[:1],
    "dim6/z4_Mp": lambda: _dim6_z4z2_prime_generators()[:1],
}

_HW_NAMES = {
    f"hw{n}/H{index}": (n, index)
    for n, samples in _HW_DATA.items()
    for index in range(1, len(samples) + 1)
}


def catalog_names() -> list[str]:
    return [*_Z2_CATALOG, *_HW3_DATA, *_DIM6_GENERATORS, *_HW_NAMES]


@lru_cache(maxsize=None)
def catalog(name: str) -> BieberbachGroup:
    """The named example group, built from its embedded data and validated."""
    if name in _Z2_CATALOG:
        n, j, h = _Z2_CATALOG[name]
        return z2_group(n, j, h, name=name)
    if name in _HW3_DATA:
        columns, translations = _HW3_DATA[name]
        return diagonal_group(columns, translations, name=name)
    if name in _DIM6_GENERATORS:
        return _require(expand_holonomy(_DIM6_GENERATORS[name](), 6, name=name))
    if name in _HW_NAMES:
        return _hw_group(*_HW_NAMES[name])
    raise KeyError(f"unknown catalog name {name!r}; known names: {', '.join(catalog_names())}")
