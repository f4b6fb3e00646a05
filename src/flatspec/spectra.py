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
factors with c in {0, 2}, whose product ``lattice.theta_series`` walks.

So d_p(N) depends on a coset only through its theta key and its traces.
A group's signature (``BieberbachGroup.signature``, which also documents
how a group with diagonal generators and translations in (1/2)Z^n reads it
off without building a coset) counts the cosets per (key, traces), and a
row is (1/|F|) * sum over them of count * T_p * e(key, N).  Each entry point
takes all its groups and norms at once and walks their theta keys together
to the largest N (compare_spectra once per block of N); no series outlives
the call.  The module only certifies rows and scans N, and returns plain
values: ``cli`` alone writes text.  Cold (CPython 3.11, Xeon VM), a dim-64
mask group's row (697 keys, 1123 key prefixes) takes 3.7-4.6 s at 22 MiB
peak at N = 2000, its compare with a second one (640 keys) 0.9-1.3 s at
18 MiB to n_max 300 and 5.0-6.2 s at 27-29 MiB to 1100.

Traces of the p-th exterior representation are the coefficients of
det(Id + t*B) (``SignedPermutation.exterior_traces``).  Every coset of a
group with holonomy Z_2^k is an involution, whose cycles are axes kept or
negated and 2-cycles of sign product +1.  The kept axes and the 2-cycles
make its theta key, so B has the eigenvalue -1 x = n - len(key) times and
its traces are K_p^n(x) (``bieberbach.krawtchouk_table``).  So
``theorem_checks`` reads such a group as its cosets' codes, sorted, with
their theta keys: a group's own keys, or a K_n member's bytes off its array.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from functools import lru_cache
from operator import add, mul

from . import lattice
from .bieberbach import (
    BieberbachGroup,
    ThetaKey,
    classify_holonomy,
    krawtchouk_table,
)


def character_sum(elements, top: int) -> tuple[list[int], ...]:
    """e(gamma, N) for N = 0..top of each element gamma, from one walk (equal
    keys share a list): the sum over the shell vectors v fixed by gamma's
    linear part of the units i^(-v.q), q its translation in quarter units,
    real since v and -v pair, as the module docstring's theta coefficient.
    It depends on gamma alone, whatever group gamma is taken from."""
    keys = [element.theta_key for element in elements]
    series = dict(lattice.theta_series(keys, top))
    return tuple(series[key] for key in keys)


@lru_cache(maxsize=2)
def multiplicity_row(groups, norms) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For each group of the tuple groups, its row (d_0, ..., d_n) at each N
    of the tuple norms, certified divisible by |F| and >= 0.  One walk over
    the groups' keys, to the largest N (the norms are checked first, in
    order), adds count * series into a sum per group and traces: at most n+1
    for a mask group.  The cache keeps 2 calls, an entry the groups and
    len(groups) * len(norms) rows."""
    for norm_sq in norms:
        lattice.check_norm(norm_sq)
    sums = {group: {} for group in groups}  # per distinct group: traces -> its sum at each N
    owners: dict[ThetaKey, list] = {}  # key -> (sums, traces, count) of each group with it
    for group, group_sums in sums.items():
        for (key, traces), count in group.signature:
            owners.setdefault(key, []).append((group_sums, traces, count))
    for key, series in lattice.theta_series(owners, max(norms)):
        values = [*map(series.__getitem__, norms)]
        for group_sums, traces, count in owners[key]:
            known = group_sums.setdefault(traces, [0] * len(norms))
            known[:] = map(add, known, [count * value for value in values])
    rows = {}
    for group, group_sums in sums.items():
        by_degree = tuple(zip(*group_sums))  # row p: each trace vector's trace on p-forms
        order, label = group.order, group.label()
        rows[group] = tuple(
            _certified_row([sum(map(mul, traces, weights)) for traces in by_degree], order, label, norm_sq)
            for norm_sq, weights in zip(norms, zip(*group_sums.values()))
        )
    return tuple(rows[group] for group in groups)


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


def betti_numbers(groups) -> tuple[tuple[int, ...], ...]:
    """(b_0, ..., b_n) of each group, the multiplicities of the eigenvalue 0."""
    return tuple(row for (row,) in multiplicity_row(tuple(groups), (0,)))


def _check_n_max(n_max: int) -> None:
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    lattice.check_norm(n_max)


def theorem_check(groups, n_max: int) -> list[int | None]:
    """For each group, of one dimension n, the least N <= n_max at which it
    breaks d_f = 2^(n-k) r_n(N) or d_e = d_o, or None if no N does: one
    theorem_checks scan, each group's cosets coded by their theta keys (its
    key_counts, one key a coset, sorted), so a code is its own key.
    Requires holonomy Z_2^k; n_max and every group are checked first."""
    _check_n_max(n_max)
    groups = list(groups)
    for group in groups:
        cls = classify_holonomy(group)
        if cls.elementary_rank is None:
            raise ValueError(
                f"theorem_check requires elementary abelian 2-holonomy, got {cls.description}"
            )
    dims = {group.dim for group in groups}
    if len(dims) > 1:
        raise ValueError(f"theorem_check needs one dimension, got {sorted(dims)}")
    members = [(g.label(), tuple(sorted(k for k, count in g.key_counts for _ in range(count)))) for g in groups]
    keys = {key: key for _label, cosets in members for key in cosets}
    return [failing for _label, failing in theorem_checks(members, keys, max(dims, default=1), n_max)]


def theorem_checks(members, keys, n: int, n_max: int) -> Iterator[tuple[str, int | None]]:
    """(label, what theorem_check returns) for each (label, cosets) of a
    group with holonomy Z_2^k in dimension n, cosets one code per coset,
    sorted, and keys[code] its theta key.  The cosets are involutions, so
    traces are K_p^n(x), x = n - len(key), and d_p(N) = (1/|F|) sum_x
    K_p^n(x) w_x(N) over the x that occur, w_x(N) summing e(key, N) over the
    cosets with that x.  One walk tables every key's series and r_n(N) to
    n_max before the first member; a distinct cosets is scanned, and a
    distinct row (|F|, N, w) certified, once (memos cleared at 2^16); n_max
    is checked first."""
    _check_n_max(n_max)
    torus = ((1, 0),) * n
    table = dict(lattice.theta_series([torus, *keys.values()], n_max))
    shells = table[torus]
    by_code = {code: (n - len(key), table[key]) for code, key in keys.items()}
    kraw = krawtchouk_table(n)
    passes: dict[tuple[int, ...], bool] = {}  # (|F|, N, *w) -> the row keeps the theorem
    verdicts: dict[bytes | tuple, int | None] = {}
    for label, cosets in members:
        if cosets not in verdicts:
            if max(len(verdicts), len(passes)) >= 1 << 16:
                verdicts.clear()
                passes.clear()
            order = len(cosets)
            terms = [(*by_code[code], count) for code, count in Counter(cosets).items()]
            xs = sorted({x for x, _series, _count in terms})
            columns = [[k_p[x] for x in xs] for k_p in kraw]
            verdicts[cosets] = None
            for norm_sq in range(n_max + 1):
                weights = [0] * (n + 1)
                for x, series, count in terms:
                    weights[x] += count * series[norm_sq]
                row_key = (order, norm_sq, *weights)
                if row_key not in passes:
                    present = [weights[x] for x in xs]
                    row = _certified_row([sum(map(mul, k_p, present)) for k_p in columns], order, label, norm_sq)
                    f, e, o = (row_value(row, mode) for mode in "feo")
                    passes[row_key] = f == (1 << n) // order * shells[norm_sq] and e == o
                if not passes[row_key]:
                    verdicts[cosets] = norm_sq
                    break
        yield label, verdicts[cosets]


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
    dimensions, the mode and n_max are checked before any row.  Rows come in
    blocks N = 0, 1, 2-3, 4-7, ..., so a pair that differs early stays cheap."""
    if left.dim != right.dim:
        raise ValueError(f"dimension mismatch: {left.dim} vs {right.dim}")
    label = _normalize_mode(mode, left.dim)
    _check_n_max(n_max)
    start = top = 0
    while start <= n_max:
        norms = tuple(range(start, top + 1))
        for norm_sq, *rows in zip(norms, *multiplicity_row((left, right), norms)):
            a, b = (row_value(row, label) for row in rows)
            if a != b:
                return label, (norm_sq, a, b)
        start, top = top + 1, min(2 * top + 1, n_max)
    return label, None
