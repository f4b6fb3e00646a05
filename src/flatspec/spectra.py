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
factors with c in {0, 2}, and ``lattice.theta_counts`` returns the
coefficient as one integer, so no vector is ever listed.

So d_p(N) depends on a coset only through its theta key and its traces.
The spectral signature of a group sums the trace vectors of the cosets
that share a key, and a row is (1/|F|) * sum over keys of
T_p[key] * e(key, N): one theta lookup per key, not one per coset.

A group with diagonal generators and translations in (1/2)Z^n builds no
coset at all: a coset negating x axes, b of the others translated by 1/2,
has the key (1, 0)^(n-x-b) (1, 2)^b and the traces K_p^n(x), so the
signature is read off the group's (x, b) histogram.  The theorem check of a
K_6 member to N = 2 (its signature and three certified rows) takes about
0.2 ms (CPython 3.11, Xeon VM).

Traces of the p-th exterior representation are the coefficients of
det(Id + t*B), computed as a product of sparse cycle factors; for an
involution they coincide with the Krawtchouk value K_p^n(n - n_B).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from . import lattice
from .arith import binomial
from .bieberbach import (
    BieberbachGroup,
    IsometryElement,
    SignedPermutation,
    classify_holonomy,
    mask_histogram,
)

#: the (l, c) pairs of IsometryElement.theta_key
ThetaKey = tuple[tuple[int, int], ...]


def krawtchouk(n: int, p: int, x: int) -> int:
    """K_p^n(x) by the defining alternating sum of binomial products."""
    if not 0 <= p <= n:
        raise ValueError(f"degree p must satisfy 0 <= p <= n, got p={p}, n={n}")
    if not 0 <= x <= n:
        raise ValueError(f"argument x must satisfy 0 <= x <= n, got x={x}, n={n}")
    return sum((-1) ** t * binomial(x, t) * binomial(n - x, p - t) for t in range(p + 1))


@lru_cache(maxsize=16)
def krawtchouk_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Row p, column x: K_p^n(x) for 0 <= p, x <= n."""
    return tuple(tuple(krawtchouk(n, p, x) for x in range(n + 1)) for p in range(n + 1))


def exterior_trace_coeffs(b: SignedPermutation) -> tuple[int, ...]:
    """Coefficients of det(Id + t*B): entry p is the trace on p-forms.

    Each cycle of length l and sign product sigma contributes the factor
    1 + sigma*(-1)^(l+1) * t^l.
    """
    coeffs = [1]
    for indices, _eps, sigma in b.cycles():
        length = len(indices)
        lead = sigma if length % 2 == 1 else -sigma
        merged = [0] * (len(coeffs) + length)
        for i, a in enumerate(coeffs):
            merged[i] += a
            merged[i + length] += lead * a
        coeffs = merged
    return tuple(coeffs)


def character_sum(group: BieberbachGroup, element: IsometryElement, norm_sq: int) -> int:
    """e(gamma, N): the exact character sum over shell vectors fixed by the
    linear part of gamma, as the theta-product coefficient of the module
    docstring.  Each term exp(-2*pi*i * v.b) is the unit i^(-v.q) for the
    translation q in quarter units, and those of v and -v sum to an integer.
    Membership is an O(1) lookup in a frozenset of the cosets, stored on the
    group at the first call like the spectral signature."""
    cosets = group.__dict__.get("_coset_set")
    if cosets is None:
        cosets = frozenset(group.holonomy)
        object.__setattr__(group, "_coset_set", cosets)
    if element not in cosets:
        raise ValueError("element is not a holonomy representative of the group")
    lattice.check_norm(norm_sq)
    return lattice.theta_counts(element.theta_key(), norm_sq)


def spectral_signature(group: BieberbachGroup) -> tuple[tuple[ThetaKey, tuple[int, ...]], ...]:
    """Pairs (theta key, T) in order of first appearance, where T[p] sums
    the traces on p-forms of the representatives with that key.

    Computed on the first call and stored on the group rather than in a
    cache, so it lives exactly as long as the group: O(|F| * n), or for a
    mask group O(|F|) bit counts, read off its (x, b) histogram as the
    module docstring describes."""
    signature = group.__dict__.get("_spectral_signature")
    if signature is None:
        histogram = mask_histogram(group)
        if histogram is not None:
            n = group.dim
            columns = tuple(zip(*krawtchouk_table(n)))  # column x: K_p^n(x) for every p
            signature = tuple(
                (((1, 0),) * (n - x - b) + ((1, 2),) * b, tuple(count * k for k in columns[x]))
                for (x, b), count in histogram
            )
        else:
            totals: dict[ThetaKey, tuple[int, ...]] = {}
            for elem in group.holonomy:
                key = elem.theta_key()
                traces = exterior_trace_coeffs(elem.linear)
                known = totals.get(key)
                totals[key] = traces if known is None else tuple(map(sum, zip(known, traces)))
            signature = tuple(totals.items())
        object.__setattr__(group, "_spectral_signature", signature)
    return signature


@lru_cache(maxsize=64)
def multiplicity_row(group: BieberbachGroup, norm_sq: int) -> tuple[int, ...]:
    """(d_0, ..., d_n) at squared norm N, each certified divisible by |F|
    and >= 0, summed over the keys of the group's spectral signature (one
    theta lookup per key); the cache keeps the 64 latest rows, so a sweep
    holds only a few groups."""
    lattice.check_norm(norm_sq)
    signature = spectral_signature(group)
    sums = [lattice.theta_counts(key, norm_sq) for key, _traces in signature]
    order = group.order
    row = []
    # column p holds each key's trace on p-forms
    for p, column in enumerate(zip(*(traces for _key, traces in signature))):
        total = sum(map(mul, column, sums))
        if total % order != 0 or total < 0:
            raise ArithmeticError(
                f"multiplicity is not a nonnegative integer for {group.label()} "
                f"p={p} N={norm_sq}: averaged sum {total}/{order}"
            )
        row.append(total // order)
    return tuple(row)


def _row_value(row: tuple[int, ...], mode: str) -> int:
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


@dataclass(frozen=True)
class MultiplicityRow:
    """One table row: all multiplicities of a single eigenvalue."""

    group: str
    norm_sq: int
    d: tuple[int, ...]

    @property
    def d_f(self) -> int:
        return _row_value(self.d, "f")

    @property
    def d_e(self) -> int:
        return _row_value(self.d, "e")

    @property
    def d_o(self) -> int:
        return _row_value(self.d, "o")

    @classmethod
    def from_group(cls, group: BieberbachGroup, norm_sq: int) -> "MultiplicityRow":
        return cls(group.label(), norm_sq, multiplicity_row(group, norm_sq))

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "N": self.norm_sq,
            "d": list(self.d),
            "d_f": self.d_f,
            "d_e": self.d_e,
            "d_o": self.d_o,
        }


def spectrum_rows(groups, norms) -> list[MultiplicityRow]:
    """Rows for every (group, N) pair, N-major to mirror one table per
    eigenvalue."""
    return [MultiplicityRow.from_group(g, n) for n in norms for g in groups]


@dataclass(frozen=True)
class TheoremCase:
    norm_sq: int
    shell_size: int
    d_f: int
    d_e: int
    d_o: int
    expected_f: int

    @property
    def ok(self) -> bool:
        return self.d_f == self.expected_f and self.d_e == self.d_o == self.expected_f // 2


@dataclass(frozen=True)
class TheoremCheck:
    """Direct-summation verification of d_f = 2^(n-k)|shell| and d_e = d_o."""

    group: str
    dim: int
    rank: int
    cases: tuple[TheoremCase, ...]

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)


def _check_n_max(n_max: int) -> None:
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")


def theorem_check(group: BieberbachGroup, n_max: int) -> TheoremCheck:
    """Requires holonomy Z_2^k; verifies the closed form for 0 <= N <= n_max
    against multiplicities computed by direct summation.  n_max is checked
    against the shell cap before any row is computed."""
    _check_n_max(n_max)
    lattice.check_norm(n_max)
    cls = classify_holonomy(group)
    if cls.elementary_rank is None:
        raise ValueError(
            f"theorem_check requires elementary abelian 2-holonomy, got {cls.description}"
        )
    rank = cls.elementary_rank
    cases = []
    for norm_sq in range(n_max + 1):
        size = lattice.shell_count(group.dim, norm_sq)
        row = multiplicity_row(group, norm_sq)
        cases.append(
            TheoremCase(
                norm_sq=norm_sq,
                shell_size=size,
                d_f=_row_value(row, "f"),
                d_e=_row_value(row, "e"),
                d_o=_row_value(row, "o"),
                expected_f=2 ** (group.dim - rank) * size,
            )
        )
    return TheoremCheck(group=group.label(), dim=group.dim, rank=rank, cases=tuple(cases))


@dataclass(frozen=True)
class SpectralComparison:
    mode: str
    n_max: int
    equal: bool
    first_difference: tuple[int, int, int] | None  # (N, left value, right value)

    def describe(self) -> str:
        if self.equal:
            return f"equal in mode {self.mode} for all N <= {self.n_max}"
        n, left, right = self.first_difference
        return f"unequal in mode {self.mode} at N={n}: {left} != {right}"


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
) -> SpectralComparison:
    """Scan N = 0..n_max and report the first distinguishing eigenvalue.
    n_max is checked against the shell cap before any row is computed."""
    if left.dim != right.dim:
        raise ValueError(f"dimension mismatch: {left.dim} vs {right.dim}")
    label = _normalize_mode(mode, left.dim)
    _check_n_max(n_max)
    lattice.check_norm(n_max)
    for norm_sq in range(n_max + 1):
        a = _row_value(multiplicity_row(left, norm_sq), label)
        b = _row_value(multiplicity_row(right, norm_sq), label)
        if a != b:
            return SpectralComparison(label, n_max, False, (norm_sq, a, b))
    return SpectralComparison(label, n_max, True, None)
