"""Eigenvalue multiplicities of the Hodge Laplacian on p-forms.

For a group with coset representatives gamma = B L_b, the multiplicity of
the eigenvalue 4*pi^2*N on p-forms is

    d_p(N) = (1/|F|) * sum over gamma of  tr_p(B) * e(gamma, N)

where e(gamma, N) sums exp(-2*pi*i * v.b) over the shell vectors v fixed by
B.  Translations live in (1/4)Z^n, so every character value is a Gaussian
integer and the averaged sums must come out as nonnegative integers; any
failure of exactness raises instead of rounding.

The fixed lattice of B is the orthogonal sum of one rank-one lattice per
cycle of sign product +1: the vectors m * eps along a cycle of length l,
of squared norm l*m^2.  With the translation in quarter units q and
c = sum eps[t] * q[indices[t]] over that cycle, the sum is therefore

    e(gamma, N) = [q^N]  prod over positive cycles (l, c) of
                         sum over m in Z of  i^(-c*m) q^(l*m^2)

a coefficient of a product of one-dimensional theta series, which
``lattice.theta_counts`` returns as exact counts of the four units, so no
vector is ever listed.

Traces of the p-th exterior representation are the coefficients of
det(Id + t*B), computed as a product of sparse cycle factors; for an
involution they coincide with the Krawtchouk value K_p^n(n - n_B).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import lattice
from .arith import GaussianInt, binomial
from .bieberbach import BieberbachGroup, IsometryElement, SignedPermutation, classify_holonomy


def krawtchouk(n: int, p: int, x: int) -> int:
    """K_p^n(x) by the defining alternating sum of binomial products."""
    if not 0 <= p <= n:
        raise ValueError(f"degree p must satisfy 0 <= p <= n, got p={p}, n={n}")
    if not 0 <= x <= n:
        raise ValueError(f"argument x must satisfy 0 <= x <= n, got x={x}, n={n}")
    return sum((-1) ** t * binomial(x, t) * binomial(n - x, p - t) for t in range(p + 1))


def krawtchouk_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Row p, column x: K_p^n(x) for 0 <= p, x <= n."""
    return tuple(tuple(krawtchouk(n, p, x) for x in range(n + 1)) for p in range(n + 1))


@lru_cache(maxsize=None)
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


def trace_p(b: SignedPermutation, p: int) -> int:
    """Trace of the p-th exterior representation at B."""
    if not 0 <= p <= b.dim:
        raise ValueError(f"p must satisfy 0 <= p <= {b.dim}, got {p}")
    return exterior_trace_coeffs(b)[p]


def character_sum(group: BieberbachGroup, element: IsometryElement, norm_sq: int) -> GaussianInt:
    """e(gamma, N): the exact character sum over shell vectors fixed by the
    linear part of gamma, as the theta-product coefficient of the module
    docstring.  With the translation in quarter units q, each term
    exp(-2*pi*i * v.b) is the unit i^(-v.q)."""
    if element not in group.holonomy:
        raise ValueError("element is not a holonomy representative of the group")
    lattice.check_norm(norm_sq)
    return _character_value(element, norm_sq)


def _character_value(element: IsometryElement, norm_sq: int) -> GaussianInt:
    """character_sum without its membership and cap checks."""
    factors = lattice.cycle_factors(element.linear, element.translation)
    counts = lattice.theta_counts(factors, norm_sq)
    # the units i^0, i^-1, i^-2, i^-3 are 1, -i, -1, i
    return GaussianInt(counts[0] - counts[2], counts[3] - counts[1])


@lru_cache(maxsize=None)
def multiplicity_row(group: BieberbachGroup, norm_sq: int) -> tuple[int, ...]:
    """(d_0, ..., d_n) at squared norm N, each certified integral and >= 0."""
    lattice.check_norm(norm_sq)
    sums = [_character_value(elem, norm_sq) for elem in group.holonomy]
    traces = [exterior_trace_coeffs(elem.linear) for elem in group.holonomy]
    order = group.order
    row = []
    for p in range(group.dim + 1):
        re = sum(coeffs[p] * value.re for coeffs, value in zip(traces, sums))
        im = sum(coeffs[p] * value.im for coeffs, value in zip(traces, sums))
        if im != 0 or re % order != 0 or re < 0:
            raise ArithmeticError(
                f"multiplicity is not a nonnegative integer for {group.label()} "
                f"p={p} N={norm_sq}: averaged sum {GaussianInt(re, im)}/{order}"
            )
        row.append(re // order)
    return tuple(row)


def d_p(group: BieberbachGroup, p: int, norm_sq: int) -> int:
    """Multiplicity of the eigenvalue 4*pi^2*N on p-forms."""
    if not 0 <= p <= group.dim:
        raise ValueError(f"p must satisfy 0 <= p <= {group.dim}, got {p}")
    return multiplicity_row(group, norm_sq)[p]


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


def d_f(group: BieberbachGroup, norm_sq: int) -> int:
    return _row_value(multiplicity_row(group, norm_sq), "f")


def d_e(group: BieberbachGroup, norm_sq: int) -> int:
    return _row_value(multiplicity_row(group, norm_sq), "e")


def d_o(group: BieberbachGroup, norm_sq: int) -> int:
    return _row_value(multiplicity_row(group, norm_sq), "o")


def betti(group: BieberbachGroup, p: int) -> int:
    """p-th Betti number, as the multiplicity of the eigenvalue 0."""
    return d_p(group, p, 0)


def betti_numbers(group: BieberbachGroup) -> tuple[int, ...]:
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


def theorem_check(group: BieberbachGroup, n_max: int) -> TheoremCheck:
    """Requires holonomy Z_2^k; verifies the closed form for 0 <= N <= n_max
    against multiplicities computed by direct summation."""
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
    """Scan N = 0..n_max and report the first distinguishing eigenvalue."""
    if left.dim != right.dim:
        raise ValueError(f"dimension mismatch: {left.dim} vs {right.dim}")
    label = _normalize_mode(mode, left.dim)
    for norm_sq in range(n_max + 1):
        # multiplicity_row skips its own check on a cache hit
        lattice.check_norm(norm_sq)
        a = _row_value(multiplicity_row(left, norm_sq), label)
        b = _row_value(multiplicity_row(right, norm_sq), label)
        if a != b:
            return SpectralComparison(label, n_max, False, (norm_sq, a, b))
    return SpectralComparison(label, n_max, True, None)


@dataclass(frozen=True)
class Z2ClosedForms:
    """Closed-form multiplicities for the one-generator family member with
    parameters (j, h): values at the two smallest positive eigenvalues."""

    d_p_at_1: int
    d_p_at_2: int
    d_0_at_1: int
    d_0_at_2: int


def z2_closed_forms(j: int, h: int, n: int, p: int) -> Z2ClosedForms:
    """d_p at squared norms 1 and 2 for the group generated by
    diag(J,..,J,-1,..,-1,1,..,1) L_{e_n/2}, with n = 2j + h + l."""
    length = n - 2 * j - h
    if j < 0 or h < 0 or length < 1 or j + h == 0:
        raise ValueError(
            f"parameters must satisfy n = 2j + h + l with l >= 1 and j + h != 0, "
            f"got j={j}, h={h}, n={n}"
        )
    k = krawtchouk(n, p, j + h)
    return Z2ClosedForms(
        d_p_at_1=binomial(n, p) * n + k * (length - 2),
        d_p_at_2=2 * binomial(n, p) * binomial(n, 2) + k * (j + (length - 1) * (length - 4)),
        d_0_at_1=n + length - 2,
        d_0_at_2=n * (n - 1) + j + (length - 1) * (length - 4),
    )


def z2_betti_closed_form(j: int, h: int, n: int, p: int) -> int:
    """Betti numbers of the (j, h) family member via the binomial double sum."""
    length = n - 2 * j - h
    if j < 0 or h < 0 or length < 1 or j + h == 0:
        raise ValueError(f"invalid parameters j={j}, h={h}, n={n}")
    return sum(binomial(j + h, 2 * i) * binomial(j + length, p - 2 * i) for i in range(p // 2 + 1))
