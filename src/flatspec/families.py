"""Constructors for the built-in manifold families, and the one registry of
named groups and family kinds.

* the one-generator family with holonomy Z2 (parameters j, h: j swap
  blocks, h sign flips, translation e_n/2);
* the {0, 1/2}-array family with holonomy Z2^(n-1) and first Betti
  number one, parameterized by the free strict upper triangle;
* a named catalog of fixed example groups (dimensions 3 to 7): the
  Hantzsche-Wendt groups, the dimension-3 Z2^2 trio and the dimension-6 Z4
  examples, embedded verbatim rather than re-derived;
* ``family_members`` and ``family_size``, the one place that decides what
  each kind holds, and its count, read off the members' parameters.

As in the paper, each catalog group and Z2 member is its generators: one
checked builder, ``_generated_group``, makes it from their rows.

Translations are written in quarter units throughout (2 is 1/2, 1 is 1/4).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from functools import lru_cache, partial

from .arith import format_quarter, json_array, parse_quarter
from .bieberbach import (
    DIM_CAP,
    BieberbachGroup,
    GroupValidationError,
    IsometryElement,
    Record,
    SignedPermutation,
    expand_holonomy,
    is_orientable,
    is_torsion_free,
    mask_entry,
    validate,
)

#: largest n for which the full Z2^(n-1) array family may be enumerated.
#: A K_8 member takes 0.26-0.32 ms to build and 0.15-0.18 ms to check to
#: N = 2, so 14-18 minutes for all 2^21; ``family kn --verify-theorem 2``
#: builds none: all of K_8 in 76-85 s, 33 MiB peak RSS (CPython 3.11, VM).
KN_CAP = 8

#: the built-in families, in the order the CLI offers them
FAMILY_KINDS = ("z2", "kn", "hw-catalog")


def require_torsion_free(group: BieberbachGroup) -> BieberbachGroup:
    """The group, or GroupValidationError carrying its full report if it has
    torsion: the one check a group that expand_holonomy built can fail, so
    the report is built only on failure."""
    if not is_torsion_free(group):
        raise GroupValidationError(validate(group))
    return group


def _generated_group(rows, name: str) -> BieberbachGroup:
    """The group generated by (0-based perm, signs, translation) rows, with
    the public constructors' checks: every catalog group and Z2 member."""
    generators = [IsometryElement(SignedPermutation(perm, signs), t) for perm, signs, t in rows]
    return require_torsion_free(expand_holonomy(generators, len(rows[0][0]), name=name))


# ---------------------------------------------------------------------------
# the Z2 family


def z2_linear(n: int, j: int, h: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(perm, signs) of diag(J,...,J, -1,...,-1, 1,...,1) with j swap blocks
    and h sign flips."""
    perm = list(range(n))
    signs = [1] * n
    for k in range(j):
        perm[2 * k], perm[2 * k + 1] = 2 * k + 1, 2 * k
    for i in range(2 * j, 2 * j + h):
        signs[i] = -1
    return tuple(perm), tuple(signs)


def _require_z2_dim(n: int) -> None:
    if n < 2:
        raise ValueError(f"the family needs dimension >= 2, got n={n}")
    if n > DIM_CAP:
        raise ValueError(f"dimension {n} exceeds the cap of {DIM_CAP}")


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
    return _generated_group([(*z2_linear(n, j, h), translation)], name or f"M[{j},{h}]")


def z2_family(n: int) -> list[BieberbachGroup]:
    """Every diffeomorphism class with holonomy Z2 over the cubic lattice."""
    return [z2_group(n, j, h) for j, h in z2_parameters(n)]


# ---------------------------------------------------------------------------
# Hantzsche-Wendt groups


def _hw_sample(translations, name: str) -> BieberbachGroup:
    """A Hantzsche-Wendt group: generator i fixes e_i, negates every other
    axis and translates by row i."""
    n = len(translations[0])
    signs = [tuple(1 if k == i else -1 for k in range(n)) for i in range(n - 1)]
    return _generated_group([(tuple(range(n)), *row) for row in zip(signs, translations)], name)


def hw_groups(n: int) -> tuple[BieberbachGroup, ...]:
    """Built-in Hantzsche-Wendt groups in odd dimension n: the orientable
    members of the hw-catalog family (holonomy Z2^(n-1) and orientable is
    the definition), so in dimension 3 the didicosm hw3/M1 alone."""
    return tuple(g for g in family_members("hw-catalog", n) if is_orientable(g))


# ---------------------------------------------------------------------------
# the {0, 1/2} array family with holonomy Z2^(n-1)


class GhwArray(Record):
    """n x n array over {0, 1/2}: column i holds the translation of the i-th
    generator (which negates only axis i), column n the derived translation
    of the product of all generators.

    Entries are quarter units like every translation, so each is 0 or 2.
    ``from_rows`` reads the rational interchange form (0 and "1/2").

    Forced entries: subdiagonal (i+1, i) = 1/2, diagonal zero except
    (n, n) = 1/2, zero below the subdiagonal; every row carries an even
    number of 1/2 entries, equivalently the last column is the sum of the
    others mod 1.
    """

    n: int
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, entries: tuple[tuple[int, ...], ...]):
        if n < 2:
            raise ValueError(f"arrays need n >= 2, got {n}")
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError(f"entries must form an {n}x{n} array")
        for value in itertools.chain.from_iterable(entries):
            if type(value) is not int or value not in (0, 2):
                got = format_quarter(value) if type(value) is int else repr(value)
                raise ValueError(f"entries must be 0 or 1/2, got {got}")
        super().__init__(n, entries)
        # the free entries decide the rest, as from_bits builds them
        expected = GhwArray.from_bits(n, self.bits()).entries
        for r, c in itertools.product(range(n), repeat=2):
            if entries[r][c] != expected[r][c]:
                want = format_quarter(expected[r][c])
                raise ValueError(f"entry ({r + 1},{c + 1}) must be {want}")

    @classmethod
    def from_rows(cls, rows) -> "GhwArray":
        rows = json_array(rows, "rows")
        entries = tuple(
            tuple(parse_quarter(v) for v in json_array(row, f"row {i}"))
            for i, row in enumerate(rows, 1)
        )
        return cls(len(entries), entries)

    @classmethod
    def from_bits(cls, n: int, bits) -> "GhwArray":
        """Array with the free entries (r, c), r < c <= n-2 (0-based, in
        lexicographic order) set from the 0/1 bit vector: column c is the
        translation mask of kn_masks' generator c.  Valid by construction, so
        it skips the entry checks of the constructor."""
        if n < 2:
            raise ValueError(f"arrays need n >= 2, got {n}")
        bits = tuple(int(b) for b in bits)
        width = free_parameter_count(n)
        if len(bits) != width:
            raise ValueError(f"need {width} bits for n={n}, got {len(bits)}")
        columns = [[2 * (t >> r & 1) for r in range(n)] for _neg, t in kn_masks(n, bits)]
        return cls._trusted(n=n, entries=tuple((*row, sum(row) % 4) for row in zip(*columns)))

    def bits(self) -> tuple[int, ...]:
        return tuple(self.entries[r][c] // 2 for r, c in free_positions(self.n))


def free_positions(n: int) -> list[tuple[int, int]]:
    """0-based free entry positions: r < c <= n-2, lexicographic."""
    return [(r, c) for r in range(n - 1) for c in range(r + 1, n - 1)]


def free_parameter_count(n: int) -> int:
    return (n - 1) * (n - 2) // 2


def kn_group_from_array(array: GhwArray) -> BieberbachGroup:
    """The group read off an array: generator c negates axis c and translates
    by column c, built unchecked from its mask pair (kn_masks), which it
    carries as its half_masks.  It is valid and torsion free by
    construction: a coset S != {} with c = max S keeps axis c + 1, which of
    S only generator c translates (the forced 1/2), so it fixes no point."""
    n, bits = array.n, array.bits()
    gens = []
    for neg, trans in kn_masks(n, bits):
        signs = tuple(-1 if neg >> k & 1 else 1 for k in range(n))
        linear = SignedPermutation._trusted(perm=tuple(range(n)), signs=signs)
        translation = tuple(2 * (trans >> k & 1) for k in range(n))
        gens.append(IsometryElement._trusted(linear=linear, translation=translation, half_masks=(neg, trans)))
    return expand_holonomy(gens, n, name=kn_name(n, bits))


def kn_name(n: int, bits) -> str:
    """K<n>[bits] for a member's free bit vector, or K<n> when it has none."""
    return f"K{n}[{''.join(map(str, bits))}]" if bits else f"K{n}"


def kn_masks(n: int, bits) -> list[tuple[int, int]]:
    """The generators' mask pairs (IsometryElement.half_masks) of the member
    with these free bits, read off the bits: generator c negates axis c and
    translates by 1/2 along axis c + 1 and each axis r with bit (r, c) set."""
    trans = [2 << c for c in range(n - 1)]
    for r, c in itertools.compress(free_positions(n), bits):
        trans[c] |= 1 << r
    return [(1 << c, t) for c, t in enumerate(trans)]


def kn_coset_keys(n: int) -> Iterator[tuple[tuple[int, ...], bytes]]:
    """(free bits, coset keys) of every member, in kn_arrays order; n is
    checked at the call.  Byte S is 16 x + b for the product of the
    generators in the bit set S: axis r adds 16 if r is in S, else 1 if
    |S & R_r| is odd, R_r being row r of the array (generator r - 1 and each
    c > r with bit (r, c) set).  The terms of rows 0-1, and of the others, are
    summed ahead (2^11 and 2^10 sums at n = 8): one big-int addition a member."""
    kn_family_size(n)
    cosets = range(1 << (n - 1))

    def terms(r):
        columns = range(r + 1, n - 1)  # the free bits (r, c) of row r
        for bits in itertools.product((0, 1), repeat=len(columns)):
            R = 1 << r >> 1 | sum(bit << c for bit, c in zip(bits, columns))
            yield int.from_bytes(bytes(16 if S >> r & 1 else (S & R).bit_count() & 1 for S in cosets), "little")

    head, tail = (list(map(sum, itertools.product(*map(terms, rows)))) for rows in (range(2), range(2, n)))
    keys = ((v + w).to_bytes(len(cosets), "little") for v, w in itertools.product(head, tail))
    return zip(itertools.product((0, 1), repeat=free_parameter_count(n)), keys)


def kn_byte_keys(n: int) -> dict[int, tuple]:
    """The signature entry (theta key, traces) of each coset byte 16 x + b
    of kn_coset_keys(n): mask_entry(n, x, b), as BieberbachGroup.signature
    names it."""
    return {16 * x + b: mask_entry(n, x, b) for x in range(n) for b in range(n + 1 - x)}


def kn_family_size(n: int) -> int:
    """2^((n-1)(n-2)/2) members, for the dimensions kn_arrays admits."""
    if n < 2:
        raise ValueError(f"the family needs n >= 2, got {n}")
    if n > KN_CAP:
        raise ValueError(f"dimension {n} exceeds the family cap {KN_CAP}")
    return 2 ** free_parameter_count(n)


def kn_array(n: int, index: int) -> GhwArray:
    """Member ``index`` of kn_arrays(n), built alone: the members are in
    lexicographic order of the free bit vector, so the first free bit is the
    most significant bit of the index."""
    size = kn_family_size(n)
    if not 0 <= index < size:
        raise ValueError(f"index {index} outside 0..{size - 1}")
    width = free_parameter_count(n)
    return GhwArray.from_bits(n, [(index >> shift) & 1 for shift in reversed(range(width))])


def kn_arrays(n: int) -> Iterator[GhwArray]:
    """All arrays for dimension n, lexicographic in the free bit vector, built
    one at a time as the result is iterated; n is checked at the call."""
    return map(partial(kn_array, n), range(kn_family_size(n)))


def kn_family(n: int) -> Iterator[BieberbachGroup]:
    """All 2^((n-1)(n-2)/2) groups, torsion free by construction (see
    kn_group_from_array), built one at a time as iterated; n is checked at
    the call.  KN_CAP states the cost at the cap (14-18 minutes for K_8)."""
    return map(kn_group_from_array, kn_arrays(n))


# ---------------------------------------------------------------------------
# named catalog and family kinds


def torus(n: int) -> BieberbachGroup:
    """The trivial-holonomy group of the n-torus."""
    return expand_holonomy([], n, name=f"T^{n}")


# The first generator of each dimension-6 group carries rotation blocks
# (e_a -> -e_b, e_b -> e_a) on the axis pairs it swaps; the Z4 examples keep
# only that generator.
_Z4Z2_M = (
    ((1, 0, 3, 2, 4, 5), (-1, 1, -1, 1, 1, 1), (0, 0, 0, 0, 1, 0)),
    ((0, 1, 2, 3, 4, 5), (-1, -1, 1, 1, 1, 1), (0, 0, 0, 0, 0, 2)),
)
_Z4Z2_MP = (
    ((1, 0, 2, 3, 4, 5), (-1, 1, 1, -1, -1, 1), (0, 0, 0, 0, 0, 1)),
    ((0, 1, 2, 3, 4, 5), (-1, -1, -1, 1, -1, 1), (0, 0, 0, 2, 2, 0)),
)

# name -> builder called with the name, in the order in which hw-catalog and
# the unknown-name message list them.  Every builder ends in
# _generated_group, which looks up expand_holonomy and the checks at each
# call, so a wrapper installed on a module attribute sees every build.
# The hw<n>/H* rows are Hantzsche-Wendt translations (see _hw_sample): the
# first per dimension is the classical chain b_i = (e_i + e_{i+1})/2, the
# others were found by search over {0, 1/2} translations.
_CATALOG = {
    "dim3/m10": partial(z2_group, 3, 1, 0),
    "dim3/m02": partial(z2_group, 3, 0, 2),
    "dim3/m01": partial(z2_group, 3, 0, 1),
    "dim4/m11": partial(z2_group, 4, 1, 1),
    "dim4/m10": partial(z2_group, 4, 1, 0),
    "dim4/m03": partial(z2_group, 4, 0, 3),
    "dim4/m02": partial(z2_group, 4, 0, 2),
    "dim4/m01": partial(z2_group, 4, 0, 1),
    "hw3/M1": partial(_generated_group, (((0, 1, 2), (-1, -1, 1), (2, 0, 2)), ((0, 1, 2), (-1, 1, -1), (0, 2, 0)))),
    "hw3/M2": partial(_generated_group, (((0, 1, 2), (-1, -1, 1), (0, 2, 2)), ((0, 1, 2), (1, -1, 1), (0, 0, 2)))),
    "hw3/M3": partial(_generated_group, (((0, 1, 2), (-1, -1, 1), (0, 2, 2)), ((0, 1, 2), (1, -1, 1), (2, 0, 0)))),
    "dim6/z4z2_M": partial(_generated_group, _Z4Z2_M),
    "dim6/z4z2_Mp": partial(_generated_group, _Z4Z2_MP),
    "dim6/z4_M": partial(_generated_group, _Z4Z2_M[:1]),
    "dim6/z4_Mp": partial(_generated_group, _Z4Z2_MP[:1]),
    "hw5/H1": partial(
        _hw_sample,
        ((2, 2, 0, 0, 0), (0, 2, 2, 0, 0), (0, 0, 2, 2, 0), (0, 0, 0, 2, 2)),
    ),
    "hw5/H2": partial(
        _hw_sample,
        ((2, 0, 0, 0, 0), (0, 2, 2, 0, 0), (0, 0, 2, 2, 0), (0, 0, 0, 2, 2)),
    ),
    "hw5/H3": partial(
        _hw_sample,
        ((2, 0, 0, 0, 0), (0, 2, 2, 0, 0), (0, 0, 2, 2, 0), (2, 0, 0, 2, 2)),
    ),
    "hw7/H1": partial(
        _hw_sample,
        (
            (2, 2, 0, 0, 0, 0, 0),
            (0, 2, 2, 0, 0, 0, 0),
            (0, 0, 2, 2, 0, 0, 0),
            (0, 0, 0, 2, 2, 0, 0),
            (0, 0, 0, 0, 2, 2, 0),
            (0, 0, 0, 0, 0, 2, 2),
        ),
    ),
    "hw7/H2": partial(
        _hw_sample,
        (
            (2, 0, 2, 0, 0, 0, 2),
            (0, 2, 0, 0, 0, 2, 0),
            (0, 2, 2, 0, 2, 0, 0),
            (2, 0, 2, 2, 0, 2, 2),
            (0, 0, 0, 0, 2, 0, 2),
            (2, 0, 0, 0, 2, 2, 0),
        ),
    ),
    "hw7/H3": partial(
        _hw_sample,
        (
            (2, 0, 2, 0, 0, 0, 0),
            (0, 2, 2, 0, 0, 2, 0),
            (0, 0, 2, 2, 2, 2, 0),
            (0, 2, 2, 2, 0, 0, 0),
            (0, 0, 0, 2, 2, 2, 2),
            (0, 2, 0, 2, 0, 2, 0),
        ),
    ),
}


@lru_cache(maxsize=None)
def catalog(name: str) -> BieberbachGroup:
    """The named example group, built from its embedded data and validated."""
    if name not in _CATALOG:
        raise KeyError(f"unknown catalog name {name!r}; known names: {', '.join(_CATALOG)}")
    return _CATALOG[name](name=name)


def _hw_catalog_names(n: int) -> list[str]:
    names = [name for name in _CATALOG if name.startswith(f"hw{n}/")]
    if not names:
        raise ValueError(f"no built-in Hantzsche-Wendt data in dimension {n}")
    return names


def family_members(kind: str, n: int) -> Iterable[BieberbachGroup]:
    """The members of a built-in family in dimension n, in their fixed order:
    z2_family(n), the lazy kn_family(n), or for hw-catalog every catalog name
    hw<n>/... (in dimension 3 the didicosm and both amphidicosms)."""
    if kind == "z2":
        return z2_family(n)
    if kind == "kn":
        return kn_family(n)
    if kind == "hw-catalog":
        return [catalog(name) for name in _hw_catalog_names(n)]
    raise ValueError(f"unknown family kind {kind!r}")


def family_size(kind: str, n: int) -> int:
    """The number of family_members(kind, n), with the same errors, building
    nothing: the length of the parameter list for z2 and of the catalog
    names for hw-catalog, the closed form 2^((n-1)(n-2)/2) for kn."""
    if kind == "z2":
        return len(z2_parameters(n))
    if kind == "kn":
        return kn_family_size(n)
    if kind == "hw-catalog":
        return len(_hw_catalog_names(n))
    raise ValueError(f"unknown family kind {kind!r}")
