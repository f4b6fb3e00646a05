"""Cubic-lattice shells and the theta series that count them.

The eigenvalue parameter throughout is the integer squared norm N (the
actual Laplace eigenvalue being 4*pi^2*N).  The cubic lattice is self-dual,
so shells serve for both the lattice and its dual.

The vectors fixed by a signed permutation are one integer m per cycle of
sign product +1, so the spectral path only counts them, as coefficients of
products of one-dimensional theta series (``theta_counts``).
``shell_vectors`` and ``fixed_vectors`` list vectors: they are public API
and the test oracle for the series, no longer part of the spectral path.
``check_norm`` is the one place the squared-norm cap is enforced, and
``shell_cap()``, read from FLATSPEC_SHELL_CAP at each call, the one cap.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

from .bieberbach import SignedPermutation

DEFAULT_SHELL_CAP = 10_000
SHELL_CAP_ENV = "FLATSPEC_SHELL_CAP"

IntVector = tuple[int, ...]


class ShellCapExceeded(RuntimeError):
    """Requested squared norm is above the configured cap."""


def shell_cap() -> int:
    """Active cap on the squared norm; FLATSPEC_SHELL_CAP overrides."""
    raw = os.environ.get(SHELL_CAP_ENV)
    if raw is None:
        return DEFAULT_SHELL_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{SHELL_CAP_ENV} must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ValueError(f"{SHELL_CAP_ENV} must be nonnegative, got {value}")
    return value


@dataclass(frozen=True)
class Shell:
    """All integer vectors of squared norm ``norm_sq`` in dimension ``dim``,
    in lexicographic order (hence closed under negation)."""

    dim: int
    norm_sq: int
    vectors: tuple[IntVector, ...]

    @property
    def count(self) -> int:
        return len(self.vectors)

    def to_json(self) -> dict:
        return {
            "n": self.dim,
            "N": self.norm_sq,
            "count": self.count,
            "vectors": [list(v) for v in self.vectors],
        }


def check_norm(norm_sq: int) -> None:
    """Reject a negative squared norm, or one above ``shell_cap()``."""
    if norm_sq < 0:
        raise ValueError(f"squared norm must be >= 0, got {norm_sq}")
    limit = shell_cap()
    if norm_sq > limit:
        raise ShellCapExceeded(
            f"squared norm {norm_sq} exceeds the shell cap {limit} (raise via {SHELL_CAP_ENV})"
        )


def shell_vectors(n: int, norm_sq: int) -> Shell:
    """The shell of squared norm ``norm_sq`` in Z^n."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    check_norm(norm_sq)
    out: list[IntVector] = []
    prefix: list[int] = []

    def extend(remaining: int, slots: int) -> None:
        if slots == 1:
            root = math.isqrt(remaining)
            if root * root == remaining:
                if root == 0:
                    out.append((*prefix, 0))
                else:
                    out.append((*prefix, -root))
                    out.append((*prefix, root))
            return
        bound = math.isqrt(remaining)
        for value in range(-bound, bound + 1):
            prefix.append(value)
            extend(remaining - value * value, slots - 1)
            prefix.pop()

    extend(norm_sq, n)
    return Shell(n, norm_sq, tuple(out))


def fixed_vectors(shell: Shell, b: SignedPermutation) -> tuple[IntVector, ...]:
    """The sub-list of shell vectors v with Bv = v, in shell order."""
    if b.dim != shell.dim:
        raise ValueError(f"dimension mismatch: shell dim {shell.dim}, matrix dim {b.dim}")
    return tuple(v for v in shell.vectors if b.apply(v) == v)


def cycle_factors(b: SignedPermutation, quarters: IntVector) -> tuple[tuple[int, int], ...]:
    """One theta factor (l, c) per cycle of B with sign product +1: l is
    the cycle length and c = sum eps[t] * quarters[indices[t]] mod 4, so the
    fixed vector m * eps on that cycle has squared norm l*m^2 and pairs with
    the translation to m*c quarter units."""
    return tuple(
        (len(indices), sum(e * quarters[j] for j, e in zip(indices, eps)) % 4)
        for indices, eps, sigma in b.cycles()
        if sigma == 1
    )


def theta_counts(factors, norm_sq: int) -> tuple[int, int, int, int]:
    """The q^N coefficient of the product over (l, c) of
    sum_m i^(-c*m) q^(l*m^2), as exact counts of i^0, i^-1, i^-2, i^-3:
    entry k counts the integer tuples (m_1, ...) with sum l*m^2 = N and
    sum c*m = k mod 4."""
    # m -> -m turns c into -c, so c = 3 counts as c = 1
    return _theta(tuple(sorted((l, min(c % 4, -c % 4)) for l, c in factors)), norm_sq)


@lru_cache(maxsize=1 << 16)
def _theta(factors: tuple[tuple[int, int], ...], norm_sq: int) -> tuple[int, int, int, int]:
    if not factors:
        return (1, 0, 0, 0) if norm_sq == 0 else (0, 0, 0, 0)
    (length, c), rest = factors[-1], factors[:-1]
    counts = list(_theta(rest, norm_sq))
    for m in range(1, math.isqrt(norm_sq // length) + 1):
        sub = _theta(rest, norm_sq - length * m * m)
        up, down = c * m % 4, -c * m % 4
        for k in range(4):
            counts[k] += sub[k - up] + sub[k - down]
    return tuple(counts)


def shell_count(n: int, norm_sq: int) -> int:
    """r_n(N), the size of the shell of squared norm N in Z^n, from the
    theta series without listing the shell."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    check_norm(norm_sq)
    return theta_counts(((1, 0),) * n, norm_sq)[0]


def fixed_space_dim(b: SignedPermutation) -> int:
    """dim ker(B - Id), exactly: the number of cycles with sign product +1."""
    return sum(1 for _indices, _eps, sigma in b.cycles() if sigma == 1)
