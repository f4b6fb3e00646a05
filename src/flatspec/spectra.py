"""Eigenvalue multiplicities of the Hodge Laplacian on p-forms.

For a group with coset representatives gamma = B L_b, the multiplicity of
the eigenvalue 4*pi^2*N on p-forms is

    d_p(N) = (1/|F|) * sum over gamma of  tr_p(B) * e(gamma, N)

where e(gamma, N) sums exp(-2*pi*i * v.b) over the shell vectors v fixed by
B.  Translations live in (1/4)Z^n, so every character value is a Gaussian
integer and the averaged sums must come out as nonnegative integers; any
failure of exactness raises instead of rounding.

Traces of the p-th exterior representation are the coefficients of
det(Id + t*B), computed as a product of sparse cycle factors; for an
involution they coincide with the Krawtchouk value K_p^n(n - n_B).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from . import lattice
from .arith import GI_ZERO, GaussianInt, binomial, quarter_root_power
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


def _sorting_parity(values) -> int:
    inversions = 0
    values = list(values)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[i] > values[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def trace_p_oracle(b: SignedPermutation, p: int) -> int:
    """Independent trace via the explicit action on the wedge basis."""
    n = b.dim
    if n > 12:
        raise ValueError(f"wedge-basis oracle capped at dimension 12, got {n}")
    if not 0 <= p <= n:
        raise ValueError(f"p must satisfy 0 <= p <= {n}, got {p}")
    total = 0
    for subset in combinations(range(n), p):
        image = [b.perm[j] for j in subset]
        if set(image) != set(subset):
            continue
        sign = 1
        for j in subset:
            sign *= b.signs[j]
        total += sign * _sorting_parity(image)
    return total


def character_sum(
    group: BieberbachGroup, element: IsometryElement, norm_sq: int, cap: int | None = None
) -> GaussianInt:
    """e(gamma, N): the exact character sum over shell vectors fixed by the
    linear part of gamma.  With the translation in quarter units q, each
    term exp(-2*pi*i * v.b) is the unit i^(-v.q)."""
    if element not in group.holonomy:
        raise ValueError("element is not a holonomy representative of the group")
    shell = lattice.shell_vectors(group.dim, norm_sq, cap)
    fixed = lattice.fixed_vectors(shell, element.linear)
    quarters = element.translation
    if not any(quarters):
        return GaussianInt(len(fixed), 0)
    counts = [0, 0, 0, 0]
    for vector in fixed:
        counts[sum(q * v for q, v in zip(quarters, vector)) % 4] += 1
    total = GI_ZERO
    for q, count in enumerate(counts):
        if count:
            total = total + quarter_root_power(q).scaled(count)
    return total


@lru_cache(maxsize=None)
def multiplicity_row(group: BieberbachGroup, norm_sq: int) -> tuple[int, ...]:
    """(d_0, ..., d_n) at squared norm N, each certified integral and >= 0."""
    sums = [character_sum(group, elem, norm_sq) for elem in group.holonomy]
    traces = [exterior_trace_coeffs(elem.linear) for elem in group.holonomy]
    order = group.order
    row = []
    for p in range(group.dim + 1):
        total = GI_ZERO
        for coeffs, value in zip(traces, sums):
            total = total + value.scaled(coeffs[p])
        if total.im != 0 or total.re % order != 0 or total.re < 0:
            raise ArithmeticError(
                f"multiplicity is not a nonnegative integer for {group.label()} "
                f"p={p} N={norm_sq}: averaged sum {total}/{order}"
            )
        row.append(total.re // order)
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


def theorem_check(group: BieberbachGroup, n_max: int, cap: int | None = None) -> TheoremCheck:
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
        size = lattice.shell_vectors(group.dim, norm_sq, cap).count
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
    left: BieberbachGroup,
    right: BieberbachGroup,
    mode,
    n_max: int,
    cap: int | None = None,
) -> SpectralComparison:
    """Scan N = 0..n_max and report the first distinguishing eigenvalue."""
    if left.dim != right.dim:
        raise ValueError(f"dimension mismatch: {left.dim} vs {right.dim}")
    label = _normalize_mode(mode, left.dim)
    for norm_sq in range(n_max + 1):
        lattice.shell_vectors(left.dim, norm_sq, cap)  # cap enforcement up front
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
