"""Brute-force references for the group checks and the spectral engine.

They do what the package avoids: compose every pair of coset
representatives, expand every group by the general product, search every
abelian type of a given order, and list the shell, the sub-shell fixed by a
signed permutation, and the wedge basis of the exterior powers.  They are
slow on purpose and live here, not in the package.

Also here, because only tests compare against them:

* ``inverse``, the inverse of a signed permutation by the checked
  constructor, through which ``pairwise_group_check`` forms products
  independently of ``SignedPermutation.compose``;
* ``canonical_key``, a group's sorted coset representatives as one string;
* the paper's closed forms for the (j, h) family of ``families.z2_group``:
  ``z2_closed_forms`` (d_p at N = 1 and 2) and ``z2_betti_closed_form``.
"""

import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations, product

from flatspec import bieberbach
from flatspec.arith import binomial, quarters_as_rationals
from flatspec.bieberbach import HolonomyExpansionError, IsometryElement, SignedPermutation
from flatspec.lattice import fixed_vectors, shell_vectors
from flatspec.spectra import krawtchouk

# (re, im) of the unit e^(-2*pi*i*q/4) for q = 0, 1, 2, 3
QUARTER_TURNS = ((1, 0), (0, -1), (-1, 0), (0, 1))


def inverse(b: SignedPermutation) -> SignedPermutation:
    """The inverse matrix: B e_j = signs[j] * e_{perm[j]}, so B^-1 maps
    e_{perm[j]} to signs[j] * e_j."""
    perm = [0] * b.dim
    signs = [1] * b.dim
    for j, (target, sign) in enumerate(zip(b.perm, b.signs)):
        perm[target] = j
        signs[target] = sign
    return SignedPermutation(tuple(perm), tuple(signs))


def canonical_key(group) -> str:
    """Equal keys iff identical coset representative sets (``str`` of an
    element names its signed columns and its translation mod 1, so it
    determines the coset)."""
    return ";".join(sorted(str(e) for e in group.holonomy))


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
            shifted = inverse(b.linear).apply(a.translation)
            translation = tuple((x + y) % 4 for x, y in zip(shifted, b.translation))
            known = by_linear.get(linear)
            if known is None:
                closure = False
            elif known.translation != translation:
                cocycle = False
            abelian = abelian and linear == b.linear.compose(a.linear)
    return closure, cocycle, abelian


def expand_by_compose(generators, dim: int) -> tuple[IsometryElement, ...]:
    """The representatives expand_holonomy must return, by the breadth-first
    walk over IsometryElement.compose for every group, with the same
    errors; bieberbach.HOLONOMY_CAP is read at the call."""
    identity = IsometryElement.identity(dim)
    reps = {identity.linear: identity}
    queue = deque([identity])
    while queue:
        elem = queue.popleft()
        for gen in generators:
            prod = elem.compose(gen)
            known = reps.get(prod.linear)
            if known is None:
                if len(reps) >= bieberbach.HOLONOMY_CAP:
                    raise HolonomyExpansionError(
                        f"holonomy closure exceeded the cap of {bieberbach.HOLONOMY_CAP} elements"
                    )
                reps[prod.linear] = prod
                queue.append(prod)
            elif known.translation != prod.translation:
                raise HolonomyExpansionError(
                    "inconsistent cocycle: linear part "
                    f"{prod.linear} carries translations "
                    f"{quarters_as_rationals(known.translation)} and "
                    f"{quarters_as_rationals(prod.translation)} mod 1"
                )
    return tuple(reps.values())


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


def enumerated_character_sums(group, norm_sq: int) -> list[int]:
    """e(gamma, N) for every holonomy representative, in order, by listing
    the shell, keeping the vectors B fixes and counting v.q mod 4 for the
    translation q in quarter units; asserts that each sum is real."""
    shell = shell_vectors(group.dim, norm_sq)
    sums = []
    for element in group.holonomy:
        counts = [0, 0, 0, 0]
        for vector in fixed_vectors(shell, element.linear):
            counts[sum(q * v for q, v in zip(element.translation, vector)) % 4] += 1
        re = sum(count * QUARTER_TURNS[q][0] for q, count in enumerate(counts))
        im = sum(count * QUARTER_TURNS[q][1] for q, count in enumerate(counts))
        assert im == 0, (element, norm_sq, im)
        sums.append(re)
    return sums


def reference_row(group, sums) -> tuple[int, ...]:
    """(d_0, ..., d_n) from the character sums of every representative and
    wedge-basis traces; raises AssertionError unless every average is a
    nonnegative integer."""
    row = []
    for p in range(group.dim + 1):
        traces = [trace_p_oracle(element.linear, p) for element in group.holonomy]
        total = sum(t * value for t, value in zip(traces, sums))
        assert total % group.order == 0 and total >= 0, total
        row.append(total // group.order)
    return tuple(row)


def partitions(total: int, largest: int | None = None):
    if total == 0:
        yield ()
        return
    if largest is None:
        largest = total
    for part in range(min(total, largest), 0, -1):
        for rest in partitions(total - part, part):
            yield (part,) + rest


def abelian_candidates(order: int):
    """All abelian groups of the given order, as primary cyclic factors."""
    factors = {}
    m = order
    p = 2
    while p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    per_prime = []
    for p, a in sorted(factors.items()):
        per_prime.append([tuple(p**part for part in parts) for parts in partitions(a)])
    for combo in product(*per_prime):
        yield tuple(sorted((d for group in combo for d in group), reverse=True))


def order_statistics(cyclic_factors) -> tuple[int, ...]:
    stats = []
    for element in product(*(range(d) for d in cyclic_factors)):
        stats.append(math.lcm(*(d // math.gcd(d, a) for d, a in zip(cyclic_factors, element))))
    return tuple(sorted(stats))


def holonomy_description_by_search(group) -> str:
    """The holonomy description by search: elementary abelian 2-groups by
    rank, other abelian groups by the one candidate type whose order
    statistics match the representatives' (order statistics determine
    finite abelian groups), without a bound on the order."""
    parts = group.linear_parts()
    m = len(parts)
    orders = tuple(sorted(b.order() for b in parts))
    gens = [g.linear for g in group.generators] or parts
    abelian = all(a.compose(b) == b.compose(a) for a, b in combinations(gens, 2))
    if abelian and all(o <= 2 for o in orders) and 2 ** (m.bit_length() - 1) == m:
        rank = m.bit_length() - 1
        return "trivial" if rank == 0 else "Z2" if rank == 1 else f"Z2^{rank}"
    if abelian:
        for factors in abelian_candidates(m):
            if order_statistics(factors) == orders:
                return " x ".join(f"Z{d}" for d in factors)
    return f"{'abelian' if abelian else 'nonabelian'} of order {m}"


@dataclass(frozen=True)
class Z2ClosedForms:
    """Closed-form multiplicities for the one-generator family member with
    parameters (j, h): values at the two smallest positive eigenvalues."""

    d_p_at_1: int
    d_p_at_2: int
    d_0_at_1: int
    d_0_at_2: int


def _check_z2_parameters(j: int, h: int, n: int) -> int:
    """l = n - 2j - h, after checking l >= 1 and j + h != 0."""
    length = n - 2 * j - h
    if j < 0 or h < 0 or length < 1 or j + h == 0:
        raise ValueError(
            f"parameters must satisfy n = 2j + h + l with l >= 1 and j + h != 0, "
            f"got j={j}, h={h}, n={n}"
        )
    return length


def z2_closed_forms(j: int, h: int, n: int, p: int) -> Z2ClosedForms:
    """d_p at squared norms 1 and 2 for the group generated by
    diag(J,..,J,-1,..,-1,1,..,1) L_{e_n/2}, with n = 2j + h + l."""
    length = _check_z2_parameters(j, h, n)
    k = krawtchouk(n, p, j + h)
    return Z2ClosedForms(
        d_p_at_1=binomial(n, p) * n + k * (length - 2),
        d_p_at_2=2 * binomial(n, p) * binomial(n, 2) + k * (j + (length - 1) * (length - 4)),
        d_0_at_1=n + length - 2,
        d_0_at_2=n * (n - 1) + j + (length - 1) * (length - 4),
    )


def z2_betti_closed_form(j: int, h: int, n: int, p: int) -> int:
    """Betti numbers of the (j, h) family member via the binomial double sum."""
    length = _check_z2_parameters(j, h, n)
    return sum(binomial(j + h, 2 * i) * binomial(j + length, p - 2 * i) for i in range(p // 2 + 1))
