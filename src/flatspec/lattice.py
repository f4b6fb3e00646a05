"""Cubic-lattice shells and the theta series that count them.

The eigenvalue parameter throughout is the integer squared norm N (the
actual Laplace eigenvalue being 4*pi^2*N).  The cubic lattice is self-dual,
so shells serve for both the lattice and its dual.

The vectors fixed by a signed permutation are one integer m per cycle of
sign product +1, so the spectral path only counts them, with signs, as the
coefficients of products of theta series, one per pair (l, c) of a theta
key (``IsometryElement.theta_key``).  ``theta_series`` walks all the keys a
call needs, to one top, and caches nothing: it holds at most n + 1 series.
``shell_vectors`` and ``fixed_vectors`` list vectors and are off the
spectral path: they stay only for the benchmark's tracer, which wraps them,
and for the test oracles that check the series against listed shells.
``check_norm`` is the one place the squared-norm cap ``SHELL_CAP`` is
enforced; like the other limits it is a constant, read at each call.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from operator import add, sub

from .bieberbach import Record, SignedPermutation, ThetaKey

#: largest squared norm admitted, read at each call by check_norm.  Cold, a
#: torus(8) row at SHELL_CAP takes 0.18 s, a torus(16) row 0.42-0.45 s and
#: ``compare torus:16 torus:16 --nmax 10000`` 1.0 s (CPython 3.11, Xeon VM; see
#: DIM_CAP).
SHELL_CAP = 10_000

IntVector = tuple[int, ...]


class ShellCapExceeded(ValueError):
    """Requested squared norm is above SHELL_CAP."""


class Shell(Record):
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


def theta_series(keys, top: int) -> Iterator[tuple[ThetaKey, list[int]]]:
    """(key, coefficients of q^0..q^top) for each distinct theta key, sorted:
    the product over its pairs (l, c) of theta(q^l) for c = 0 and theta(-q^l)
    for c = 2, theta(q) = sum_m q^(m^2).  One depth-first walk of the keys'
    prefix trie multiplies in 1 + 2 sum_(m >= 1) (-1)^(c*m/2) q^(l*m^2) per
    edge, by slices, holding only the chain of live prefixes' lists, which a
    caller only reads.  top is checked at the call, a pair when walked."""
    check_norm(top)
    order = sorted(set(keys))

    def walk():
        chain = [((), [1] + [0] * top)]  # (prefix, its series) down to the last key
        for key in order:
            while key[: len(chain[-1][0])] != chain[-1][0]:
                chain.pop()
            prefix, series = chain[-1]
            for length, c in key[len(prefix) :]:
                if c not in (0, 2):
                    raise ValueError(f"theta key pairs need c in (0, 2), got {(length, c)}")
                twice = [2 * value for value in series]
                series = series[:]
                for m in range(1, math.isqrt(top // length) + 1):
                    shift = length * m * m
                    series[shift:] = map(sub if c and m % 2 else add, series[shift:], twice)
                prefix += ((length, c),)
                chain.append((prefix, series))
            yield key, series

    return walk()
