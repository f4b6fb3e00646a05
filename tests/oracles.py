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
* ``row_scan_theorem_check``, the paper's theorem checked row by row on
  ``spectra.multiplicity_row``, apart from the scan ``spectra.theorem_check``
  shares with the K_n sweep;
* ``fraction_parse_quarter`` and ``fraction_format_quarter``, the quarter
  I/O of ``arith`` done through ``Fraction``;
* ``binomial`` and ``krawtchouk``, K_p^n(x) by its defining alternating sum,
  apart from ``bieberbach.krawtchouk_table``, which reads it off traces;
* ``recursive_theta_counts``, one coefficient of a theta key's product by
  recursion over the key's suffixes, memoised per (suffix, N), apart from
  ``lattice.theta_series``, which walks whole series down the keys' prefixes;
* ``catalog_names``, the catalog's names in their fixed order;
* ``first_mask_conflict``, the conflict of an inconsistent span of mask
  generators by composing every subset of the earlier generators, apart
  from the echelon basis that ``bieberbach.expand_holonomy`` reads it off;
* the canonical labelling of a family graph (``canonical_vertex_order``,
  ``canonical_edges``), its inverse ``array_of``, and ``graphs_isomorphic``,
  which decides isomorphism by them: the package never asks, since a
  family graph fixes its own labels;
* the paper's closed forms for the (j, h) family of ``families.z2_group``:
  ``z2_closed_forms`` (d_p at N = 1 and 2) and ``z2_betti_closed_form``.
"""

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from flatspec import bieberbach, families, spectra
from flatspec.arith import format_quarter
from flatspec.bieberbach import HolonomyExpansionError, IsometryElement, SignedPermutation
from flatspec.families import GhwArray
from flatspec.graphs import GhwGraph
from flatspec.lattice import fixed_vectors, shell_vectors

# (re, im) of the unit e^(-2*pi*i*q/4) for q = 0, 1, 2, 3
QUARTER_TURNS = ((1, 0), (0, -1), (-1, 0), (0, 1))


def binomial(n: int, k: int) -> int:
    """C(n, k) as an exact integer, with 0 for k outside 0..n."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def krawtchouk(n: int, p: int, x: int) -> int:
    """K_p^n(x) by the defining alternating sum of binomial products."""
    if not 0 <= p <= n:
        raise ValueError(f"degree p must satisfy 0 <= p <= n, got p={p}, n={n}")
    if not 0 <= x <= n:
        raise ValueError(f"argument x must satisfy 0 <= x <= n, got x={x}, n={n}")
    return sum((-1) ** t * binomial(x, t) * binomial(n - x, p - t) for t in range(p + 1))


@lru_cache(maxsize=1 << 16)
def recursive_theta_counts(key: tuple[tuple[int, int], ...], norm_sq: int) -> int:
    """One coefficient of lattice.theta_series by recursion: the q^N
    coefficient of the product over the pairs (l, c) of theta(q^l) for c = 0
    and theta(-q^l) for c = 2, summing the coefficient of the key past its
    first pair at N - l*m^2 over every m."""
    if not key:
        return 1 if norm_sq == 0 else 0
    (length, c), rest = key[0], key[1:]
    if c not in (0, 2):
        raise ValueError(f"theta key pairs need c in (0, 2), got {(length, c)}")
    total = recursive_theta_counts(rest, norm_sq)
    for m in range(1, math.isqrt(norm_sq // length) + 1):
        sub = recursive_theta_counts(rest, norm_sq - length * m * m)
        total += -2 * sub if c and m % 2 else 2 * sub
    return total


def catalog_names() -> list[str]:
    """The names families.catalog knows, in their fixed order."""
    return list(families._CATALOG)


def fraction_parse_quarter(value) -> int:
    """arith.parse_quarter, every string read by Fraction."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"cannot parse {value!r} as a rational")
    frac = Fraction(value.strip() if isinstance(value, str) else value)
    if 4 % frac.denominator:
        raise ValueError(
            f"denominator {frac.denominator} unsupported: coordinates must lie in (1/4)Z"
        )
    return int(4 * frac)


def fraction_format_quarter(q: int):
    """arith.format_quarter through Fraction."""
    frac = Fraction(q, 4)
    if frac.denominator == 1:
        return int(frac)
    return f"{frac.numerator}/{frac.denominator}"


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
                raise _inconsistent_cocycle(known, prod)
    return tuple(reps.values())


def _inconsistent_cocycle(known, prod) -> HolonomyExpansionError:
    known_t, prod_t = ("(" + ", ".join(str(format_quarter(q)) for q in e.translation) + ")" for e in (known, prod))
    return HolonomyExpansionError(
        f"inconsistent cocycle: linear part {prod.linear} carries translations {known_t} and {prod_t} mod 1"
    )


def first_mask_conflict(generators) -> HolonomyExpansionError | None:
    """The error expand_holonomy raises for diagonal generators with
    translations in (1/2)Z^n whose span is inconsistent, or None for a
    consistent span: the first generator that the product of some subset of
    the earlier ones, each subset composed in turn, gives its linear part
    with another translation.  The earlier ones are consistent, so every
    such product carries one translation."""
    for i, gen in enumerate(generators):
        for size in range(i + 1):
            for subset in combinations(generators[:i], size):
                prod = IsometryElement.identity(gen.dim)
                for elem in subset:
                    prod = prod.compose(elem)
                if prod.linear == gen.linear and prod.translation != gen.translation:
                    return _inconsistent_cocycle(prod, gen)
    return None


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


def _shell_character_sum(shell, element) -> int:
    counts = [0, 0, 0, 0]
    for vector in fixed_vectors(shell, element.linear):
        counts[sum(q * v for q, v in zip(element.translation, vector)) % 4] += 1
    re = sum(count * QUARTER_TURNS[q][0] for q, count in enumerate(counts))
    im = sum(count * QUARTER_TURNS[q][1] for q, count in enumerate(counts))
    assert im == 0, (element, shell.norm_sq, im)
    return re


def enumerated_character_sum(element, norm_sq: int) -> int:
    """e(gamma, N) by listing the shell, keeping the vectors B fixes and
    counting v.q mod 4 for the translation q in quarter units; asserts that
    the sum is real."""
    return _shell_character_sum(shell_vectors(element.dim, norm_sq), element)


def enumerated_character_sums(group, norm_sq: int) -> list[int]:
    """enumerated_character_sum for every holonomy representative, in order,
    listing the shell once."""
    shell = shell_vectors(group.dim, norm_sq)
    return [_shell_character_sum(shell, element) for element in group.holonomy]


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


def row_scan_theorem_check(group, n_max: int):
    """The least N <= n_max at which multiplicity_row, summed over the
    signature's own traces, breaks d_f = (2^n/|F|) r_n(N) or d_e = d_o, or
    None if no N does; r_n(N) by recursive_theta_counts."""
    scale = 2**group.dim // group.order
    torus_key = ((1, 0),) * group.dim
    norms = tuple(range(n_max + 1))
    (rows,) = spectra.multiplicity_row((group,), norms)
    for norm_sq, row in zip(norms, rows):
        shell = recursive_theta_counts(torus_key, norm_sq)
        if sum(row) != scale * shell or sum(row[0::2]) != sum(row[1::2]):
            return norm_sq
    return None


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
    parts = tuple(e.linear for e in group.holonomy)
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


# family graphs -----------------------------------------------------------------


class GraphShapeError(ValueError):
    """The graph is not of the array family's shape."""


def array_of(graph: GhwGraph) -> GhwArray:
    """Inverse of graph_of; raises if the edge set violates the array shape."""
    rows = [
        [2 if (r + 1, c + 1) in graph.edges else 0 for c in range(graph.n)]
        for r in range(graph.n)
    ]
    try:
        return GhwArray(graph.n, tuple(tuple(row) for row in rows))
    except ValueError as exc:
        raise GraphShapeError(str(exc)) from exc


def canonical_vertex_order(graph: GhwGraph) -> tuple[int, ...]:
    """Recover the forced labeling: result[k] is the vertex playing v_{k+1}.

    v_n is the unique self-loop; from each identified v_i the unique arrow
    into a not-yet-identified vertex leads to v_{i-1}.  Any failure of
    uniqueness means the graph is not of the family shape.
    """
    return _canonical_labeling(graph)[0]


def canonical_edges(graph: GhwGraph) -> frozenset[tuple[int, int]]:
    """Edge set after the forced relabeling."""
    return _canonical_labeling(graph)[1]


def _canonical_labeling(graph: GhwGraph):
    """(canonical_vertex_order, canonical_edges), shape-checked once."""
    n = graph.n
    out: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for i, j in graph.edges:
        out[i].add(j)
    loops = [v for v in range(1, n + 1) if (v, v) in graph.edges]
    if len(loops) != 1:
        raise GraphShapeError(f"expected exactly one self-loop, found {len(loops)}")
    order = [0] * n
    order[n - 1] = loops[0]
    identified = {loops[0]}
    current = loops[0]
    for position in range(n - 2, -1, -1):
        candidates = out[current] - identified
        if len(candidates) != 1:
            raise GraphShapeError(
                f"vertex {current} has {len(candidates)} arrows into unidentified "
                "vertices; expected exactly one"
            )
        (current,) = candidates
        order[position] = current
        identified.add(current)
    relabel = {vertex: position + 1 for position, vertex in enumerate(order)}
    relabeled = frozenset((relabel[i], relabel[j]) for i, j in graph.edges)
    array_of(GhwGraph(n, relabeled))  # full shape check, raises GraphShapeError
    return tuple(order), relabeled


def graphs_isomorphic(left: GhwGraph, right: GhwGraph) -> bool:
    """Directed-graph isomorphism, decided via canonical labelings."""
    if left.n != right.n:
        return False
    return canonical_edges(left) == canonical_edges(right)
