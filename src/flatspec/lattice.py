"""Cubic-lattice shells and the theta series that count them.

The eigenvalue parameter throughout is the integer squared norm N (the
actual Laplace eigenvalue being 4*pi^2*N).  The cubic lattice is self-dual,
so shells serve for both the lattice and its dual.

The vectors fixed by a signed permutation are one integer m per cycle of
sign product +1, so the spectral path only counts them, with signs, as the
integer coefficients of products of real one-dimensional theta series
(``theta_counts``), one per pair (l, c) of a coset's theta key
(``IsometryElement.theta_key``).
``shell_vectors`` and ``fixed_vectors`` list vectors and are off the
spectral path: they stay only for the benchmark's tracer, which wraps them,
and for the test oracles that check the series against listed shells.
``check_norm`` is the one place the squared-norm cap ``SHELL_CAP`` is
enforced; like the other limits it is a constant, read at each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .bieberbach import SignedPermutation

#: largest squared norm admitted, read at each call by check_norm.  From a
#: cold cache, multiplicity_row(torus(n), SHELL_CAP) takes about 2 s for
#: n = 8, filling 61193 of theta_counts' 2^16 entries, 7 s for n = 16 and
#: 70 s for n = 64, bieberbach.DIM_CAP (CPython 3.11, Xeon VM).
SHELL_CAP = 10_000

IntVector = tuple[int, ...]


class ShellCapExceeded(ValueError):
    """Requested squared norm is above SHELL_CAP."""


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


def check_norm(norm_sq: int) -> None:
    """Reject a negative squared norm, or one above ``SHELL_CAP``."""
    if norm_sq < 0:
        raise ValueError(f"squared norm must be >= 0, got {norm_sq}")
    if norm_sq > SHELL_CAP:
        raise ShellCapExceeded(f"squared norm {norm_sq} exceeds the shell cap {SHELL_CAP}")


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


@lru_cache(maxsize=1 << 16)
def theta_counts(key: tuple[tuple[int, int], ...], norm_sq: int) -> int:
    """The q^N coefficient of the product over the pairs (l, c) of a theta
    key of theta(q^l) for c = 0 and theta(-q^l) for c = 2, with
    theta(q) = sum_m q^(m^2): the integer tuples (m_1, ...) with
    sum l*m^2 = N, each counted with the sign (-1)^(sum of m over c = 2)."""
    if not key:
        return 1 if norm_sq == 0 else 0
    (length, c), rest = key[-1], key[:-1]
    if c not in (0, 2):
        raise ValueError(f"theta key pairs need c in (0, 2), got {(length, c)}")
    total = theta_counts(rest, norm_sq)
    for m in range(1, math.isqrt(norm_sq // length) + 1):
        sub = theta_counts(rest, norm_sq - length * m * m)
        total += -2 * sub if c and m % 2 else 2 * sub
    return total


def shell_count(n: int, norm_sq: int) -> int:
    """r_n(N), the size of the shell of squared norm N in Z^n, from the
    theta series without listing the shell."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    check_norm(norm_sq)
    return theta_counts(((1, 0),) * n, norm_sq)
