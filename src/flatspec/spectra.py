"""Eigenvalue multiplicities of the Hodge Laplacian on p-forms.

For a group with coset representatives gamma = B L_b, the multiplicity of
the eigenvalue 4*pi^2*N on p-forms is

    d_p(N) = (1/|F|) * sum over gamma of  tr_p(B) * e(gamma, N)

where e(gamma, N) sums exp(-2*pi*i * v.b) over the shell vectors v fixed by
B.  Both v and -v are fixed, so e(gamma, N) is a real integer, and the
averaged sums must come out as nonnegative integers; any failure of
exactness raises instead of rounding.

The fixed lattice of B is the orthogonal sum of one rank-one lattice per
cycle of sign product +1: the vectors m * eps along a cycle of length l,
of squared norm l*m^2.  With the translation in quarter units q and
c = sum eps[t] * q[indices[t]] over that cycle, the sum is therefore

    e(gamma, N) = [q^N]  prod over positive cycles of
                         sum over m in Z of  i^(-c*m) q^(l*m^2)

a coefficient of a product of one-dimensional theta series.  Each factor
is real: theta(q^l) for c = 0, theta(-q^l) for c = 2, and theta(-q^(4l))
for odd c, whose odd terms cancel.  The pairs (l, c) of gamma's theta key
(``IsometryElement.theta_key``, which also decides torsion) name these
factors with c in {0, 2}, whose product ``lattice.theta_series`` tables.

So d_p(N) depends on a coset only through its theta key and its traces.
A group's signature (``BieberbachGroup.signature``, which also documents
how a group with diagonal generators and translations in (1/2)Z^n reads it
off without building a coset) sums the trace vectors of the cosets that
share a key, and a row is (1/|F|) * sum over keys of T_p[key] * e(key, N):
one theta lookup per key, not one per coset.  This module only certifies
rows and scans N, and returns plain values: ``cli`` alone writes text.

Traces of the p-th exterior representation are the coefficients of
det(Id + t*B) (``SignedPermutation.exterior_traces``).  Every coset of a
group with holonomy Z_2^k is an involution, whose cycles are axes kept or
negated and 2-cycles of sign product +1.  The kept axes and the 2-cycles
make its theta key, so B has the eigenvalue -1 x = n - len(key) times and
its traces are K_p^n(x) (``bieberbach.krawtchouk_table``).  So
``theorem_checks`` reads such a group as its ``key_counts``, a K_n
member's straight off its array with no group built.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from operator import mul

from . import lattice
from .bieberbach import (
    BieberbachGroup,
    IsometryElement,
    ThetaKey,
    classify_holonomy,
    krawtchouk_table,
)


def character_sum(element: IsometryElement, norm_sq: int) -> int:
    """e(gamma, N): the exact character sum over shell vectors fixed by the
    linear part of gamma, as the theta-product coefficient of the module
    docstring.  Each term exp(-2*pi*i * v.b) is the unit i^(-v.q) for the
    translation q in quarter units, and those of v and -v sum to an integer.
    It depends on gamma alone, whatever group gamma is taken from."""
    lattice.check_norm(norm_sq)
    return lattice.theta_counts(element.theta_key, norm_sq)


@lru_cache(maxsize=64)
def multiplicity_row(group: BieberbachGroup, norm_sq: int) -> tuple[int, ...]:
    """(d_0, ..., d_n) at squared norm N, each certified divisible by |F|
    and >= 0, summed over the keys of the group's signature (one theta
    lookup per key); the cache keeps the 64 latest rows, so a sweep holds
    only a few groups."""
    lattice.check_norm(norm_sq)
    signature = group.signature
    sums = [lattice.theta_counts(key, norm_sq) for key, _traces in signature]
    # column p holds each key's trace on p-forms
    columns = zip(*(traces for _key, traces in signature))
    totals = [sum(map(mul, column, sums)) for column in columns]
    return _certified_row(totals, group.order, group.label(), norm_sq)


def _certified_row(totals, order: int, label: str, norm_sq: int) -> tuple[int, ...]:
    """(total_p / |F|) for every p, each certified an integer >= 0."""
    for p, total in enumerate(totals):
        if total % order != 0 or total < 0:
            raise ArithmeticError(
                f"multiplicity is not a nonnegative integer for {label} "
                f"p={p} N={norm_sq}: averaged sum {total}/{order}"
            )
    return tuple([total // order for total in totals])


def row_value(row: tuple[int, ...], mode: str) -> int:
    """One figure of a multiplicity row: 'f' sums every degree (d_f), 'e'
    the even degrees (d_e), 'o' the odd ones (d_o), and 'p<k>' is d_k."""
    if mode == "f":
        return sum(row)
    if mode == "e":
        return sum(row[0::2])
    if mode == "o":
        return sum(row[1::2])
    return row[int(mode[1:])]


def betti_numbers(group: BieberbachGroup) -> tuple[int, ...]:
    """(b_0, ..., b_n), the multiplicities of the eigenvalue 0."""
    return multiplicity_row(group, 0)


def _check_n_max(n_max: int) -> None:
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    lattice.check_norm(n_max)


def theorem_check(group: BieberbachGroup, n_max: int) -> int | None:
    """The least N <= n_max at which the group breaks d_f = 2^(n-k) r_n(N)
    or d_e = d_o, or None if no N does: theorem_checks over the group's
    key_counts alone.  Requires holonomy Z_2^k; n_max is checked first."""
    _check_n_max(n_max)
    cls = classify_holonomy(group)
    if cls.elementary_rank is None:
        raise ValueError(
            f"theorem_check requires elementary abelian 2-holonomy, got {cls.description}"
        )
    ((_label, failing),) = theorem_checks([(group.label(), group.key_counts)], group.dim, n_max)
    return failing


def theorem_checks(members, n: int, n_max: int) -> Iterator[tuple[str, int | None]]:
    """(label, what theorem_check returns) for each (label, ((theta key,
    count), ...)) of a group with holonomy Z_2^k in dimension n.  Its cosets
    are involutions, so a coset's traces are K_p^n(x), x = n - len(key), and
    d_p(N) = (1/|F|) sum_x K_p^n(x) w_x(N), w_x(N) summing count * e(key, N)
    over the keys with that x.  A key's series is tabled once, a distinct
    member scanned, and a distinct row (|F|, N, w) certified, once (memos
    cleared at 2^16); n_max is checked first."""
    _check_n_max(n_max)
    norms = range(n_max + 1)
    shells = [lattice.shell_count(n, norm_sq) for norm_sq in norms]
    kraw = krawtchouk_table(n)
    table: dict[ThetaKey, list[int]] = {}
    passes: dict[tuple[int, ...], bool] = {}  # (|F|, N, *w) -> the row keeps the theorem
    verdicts: dict[tuple, int | None] = {}
    for label, counts in members:
        if counts not in verdicts:
            if max(len(verdicts), len(passes)) >= 1 << 16:
                verdicts.clear()
                passes.clear()
            order = sum(count for _key, count in counts)
            for key, _count in counts:
                if key not in table:
                    table[key] = [lattice.theta_counts(key, norm_sq) for norm_sq in norms]
            terms = [(n - len(key), count, table[key]) for key, count in counts]
            verdicts[counts] = None
            for norm_sq in norms:
                weights = [0] * (n + 1)
                for x, count, series in terms:
                    weights[x] += count * series[norm_sq]
                row_key = (order, norm_sq, *weights)
                if row_key not in passes:
                    row = _certified_row([sum(map(mul, k_p, weights)) for k_p in kraw], order, label, norm_sq)
                    f, e, o = (row_value(row, mode) for mode in "feo")
                    passes[row_key] = f == (1 << n) // order * shells[norm_sq] and e == o
                if not passes[row_key]:
                    verdicts[counts] = norm_sq
                    break
        yield label, verdicts[counts]


def _normalize_mode(mode, dim: int) -> str:
    if isinstance(mode, int):
        if not 0 <= mode <= dim:
            raise ValueError(f"mode p={mode} outside 0..{dim}")
        return f"p{mode}"
    text = str(mode).strip().lower()
    if text == "functions":
        return "p0"
    if text in ("f", "e", "o"):
        return text
    if text.startswith("p") and text[1:].isdigit():
        return _normalize_mode(int(text[1:]), dim)
    if text.isdigit():
        return _normalize_mode(int(text), dim)
    raise ValueError(f"unknown comparison mode {mode!r}")


def compare_spectra(
    left: BieberbachGroup, right: BieberbachGroup, mode, n_max: int
) -> tuple[str, tuple[int, int, int] | None]:
    """(mode label, first difference or None) over N = 0..n_max, the
    difference (N, left value, right value) at the least N whose values
    differ.  The label is 'f', 'e', 'o' or 'p<k>' (see row_value); the
    dimensions, the mode and n_max are checked before any row."""
    if left.dim != right.dim:
        raise ValueError(f"dimension mismatch: {left.dim} vs {right.dim}")
    label = _normalize_mode(mode, left.dim)
    _check_n_max(n_max)
    for norm_sq in range(n_max + 1):
        a = row_value(multiplicity_row(left, norm_sq), label)
        b = row_value(multiplicity_row(right, norm_sq), label)
        if a != b:
            return label, (norm_sq, a, b)
    return label, None
