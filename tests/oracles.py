"""Brute-force references for the group checks and the spectral engine.

They do what the package avoids: compose every pair of coset
representatives, and list the shell, the sub-shell fixed by a signed
permutation, and the wedge basis of the exterior powers.  They are slow on
purpose and live here, not in the package.
"""

from itertools import combinations

from flatspec.arith import GI_ZERO, GaussianInt, quarter_root_power
from flatspec.bieberbach import SignedPermutation
from flatspec.lattice import fixed_vectors, shell_vectors


def pairwise_group_check(group) -> tuple[bool, bool, bool]:
    """(closure, cocycle, abelian) from all |F|^2 products of
    representatives, each formed as (Ba Bb) L_{Bb^-1 a + b} through the
    inverse matrix: closure iff every product's linear part has a
    representative, cocycle iff the identity's translation is 0 and every
    product's translation matches its representative's mod Z^n, abelian iff
    all linear parts commute."""
    by_linear = {e.linear: e for e in group.holonomy}
    identity = by_linear.get(SignedPermutation.identity(group.dim))
    closure, cocycle, abelian = True, identity is not None and not any(identity.translation), True
    for a in group.holonomy:
        for b in group.holonomy:
            linear = a.linear.compose(b.linear)
            shifted = b.linear.inverse().apply(a.translation)
            translation = tuple((x + y) % 4 for x, y in zip(shifted, b.translation))
            known = by_linear.get(linear)
            if known is None:
                closure = False
            elif known.translation != translation:
                cocycle = False
            abelian = abelian and linear == b.linear.compose(a.linear)
    return closure, cocycle, abelian


def sorting_parity(values) -> int:
    inversions = 0
    values = list(values)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[i] > values[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def trace_p_oracle(b, p: int) -> int:
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
        total += sign * sorting_parity(image)
    return total


def enumerated_character_sums(group, norm_sq: int) -> list[GaussianInt]:
    """e(gamma, N) for every holonomy representative, in order, by listing
    the shell, keeping the vectors B fixes and counting v.q mod 4 for the
    translation q in quarter units."""
    shell = shell_vectors(group.dim, norm_sq)
    sums = []
    for element in group.holonomy:
        counts = [0, 0, 0, 0]
        for vector in fixed_vectors(shell, element.linear):
            counts[sum(q * v for q, v in zip(element.translation, vector)) % 4] += 1
        total = GI_ZERO
        for q, count in enumerate(counts):
            total = total + quarter_root_power(q).scaled(count)
        sums.append(total)
    return sums


def reference_row(group, sums) -> tuple[int, ...]:
    """(d_0, ..., d_n) from the character sums of every representative and
    wedge-basis traces; raises AssertionError unless every average is a
    nonnegative integer."""
    row = []
    for p in range(group.dim + 1):
        total = GI_ZERO
        for element, value in zip(group.holonomy, sums):
            total = total + value.scaled(trace_p_oracle(element.linear, p))
        assert total.im == 0 and total.re % group.order == 0 and total.re >= 0, total
        row.append(total.re // group.order)
    return tuple(row)
