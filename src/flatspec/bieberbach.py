"""Bieberbach groups over the cubic lattice Z^n.

Linear parts are signed permutations (exactly the orthogonal matrices that
stabilize Z^n), translation parts are vectors in (1/4)Z^n reduced mod 1,
held in integer quarter units as documented on ``IsometryElement``.  A
group is given by its generators, as the paper gives every manifold, and
only ``expand_holonomy`` builds one: its representatives, one per coset of
the translation lattice and identity first, are derived from the
generators and never taken as input, so closure and cocycle consistency
hold by construction.

Conventions, fixed once and used everywhere:

* column action: ``B e_j = signs[j] * e_{perm[j]}``;
* an isometry ``B L_b`` maps x to ``B(x + b)``, hence products compose as
  ``(Ba L_a)(Bb L_b) = (Ba Bb) L_{Bb^-1 a + b}`` with the translation
  reduced mod 1 (mod 4 in quarter units).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache

from .arith import format_quarter, json_field, json_int, parse_quarter, quarters_as_rationals

#: largest holonomy group expand_holonomy will build, read at each call.
#: Expansion costs O(|F| * g) products for g distinct generators, each
#: computed where it is formed, so a group's cosets are freed with it.
#: Repeats are dropped, but a distinct generator that the others already
#: generate still costs its |F| products.  validate forms no product: B_6
#: (|F| = 46080, 3 generators) expands in about 1.7 s and validates in under
#: 1 ms.  A group with diagonal generators and translations in (1/2)Z^n
#: keeps a basis of int mask pairs instead and builds no coset: a K_17
#: member (2^16 cosets, 16 generators) expands in about 0.1 ms and
#: validates in about 42 ms, the torsion test's walk over the basis, and a
#: K_6 member (32 cosets) in about 15 us and 40 us, against 0.9 ms to
#: compose its cosets (CPython 3.11, Xeon VM).
HOLONOMY_CAP = 2**16

#: largest dimension expand_holonomy will build a group in, and the largest
#: n of the krawtchouk command.  A group's Krawtchouk table costs O(n^3) and
#: lattice.theta_counts recurses once per pair of a theta key, so at the cap
#: ``spectrum torus:64 --norms 0,1,2`` takes about 0.25 s, and a row at
#: lattice.SHELL_CAP about 70 s.
DIM_CAP = 64


class HolonomyExpansionError(ValueError):
    """Raised when generator closure blows up or translations conflict."""


class GroupValidationError(ValueError):
    """Raised when a candidate group fails structural validation."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__(report.summary())


def _trusted(cls, **fields):
    """An instance of the frozen dataclass cls holding these fields, without
    running __post_init__: for values valid by construction, such as the
    product of two checked elements."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class SignedPermutation:
    """An orthogonal automorphism of Z^n: B e_j = signs[j] * e_{perm[j]}.

    ``perm`` holds 0-based images; the JSON interchange form is 1-based.
    """

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        if len(self.signs) != n:
            raise ValueError("perm and signs must have equal length")
        if sorted(self.perm) != list(range(n)):
            raise ValueError(f"perm {self.perm} is not a permutation of 0..{n - 1}")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")
        # computed once: every cache keyed on linear parts hashes them per lookup
        object.__setattr__(self, "_hash", hash((self.perm, self.signs)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def dim(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(tuple(range(n)), (1,) * n)

    @classmethod
    def diagonal(cls, signs) -> "SignedPermutation":
        signs = tuple(signs)
        return cls(tuple(range(len(signs))), signs)

    def is_identity(self) -> bool:
        return all(s == 1 for s in self.signs) and self.perm == tuple(range(self.dim))

    def is_diagonal(self) -> bool:
        return self.perm == tuple(range(self.dim))

    def apply(self, vector):
        """Image of an integer coordinate vector, such as a lattice vector
        or a translation in quarter units."""
        if len(vector) != self.dim:
            raise ValueError("dimension mismatch")
        out = [0] * self.dim
        for j, (target, sign) in enumerate(zip(self.perm, self.signs)):
            out[target] = sign * vector[j]
        return tuple(out)

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """Matrix product self o other, computed at each call."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        perm = tuple(self.perm[k] for k in other.perm)
        signs = tuple(s * self.signs[k] for s, k in zip(other.signs, other.perm))
        return _signed_permutation(perm, signs)

    def cycles(self):
        """Cycle data: tuples (indices, eps, sign_product).

        ``indices`` follows the orbit j -> perm[j]; ``eps[t]`` is the product
        of the signs met strictly before step t, so a cycle with sign product
        +1 has fixed vectors proportional to sum(eps[t] * e_{indices[t]}).
        Stored on the permutation at the first call, like its hash.
        """
        cycles = self.__dict__.get("_cycles")
        if cycles is None:
            seen, out = set(), []
            for start in range(self.dim):
                indices, eps, j, e = [], [], start, 1
                while j not in seen:  # an orbit ends back at its start
                    seen.add(j)
                    indices.append(j)
                    eps.append(e)
                    e *= self.signs[j]
                    j = self.perm[j]
                if indices:
                    out.append((tuple(indices), tuple(eps), e))
            cycles = tuple(out)
            object.__setattr__(self, "_cycles", cycles)
        return cycles

    def order(self) -> int:
        result = 1
        for indices, _eps, sigma in self.cycles():
            length = len(indices)
            result = math.lcm(result, length if sigma == 1 else 2 * length)
        return result

    def det(self) -> int:
        sign = 1
        for indices, _eps, sigma in self.cycles():
            sign *= sigma * (-1) ** (len(indices) - 1)
        return sign

    def to_json(self) -> dict:
        return {"perm": [p + 1 for p in self.perm], "signs": list(self.signs)}

    @classmethod
    def from_json(cls, obj: dict) -> "SignedPermutation":
        """Read the 1-based interchange form, whose errors quote it."""
        perm = [json_int(p, "perm") for p in json_field(obj, "perm", "a generator")]
        signs = tuple(json_int(s, "signs") for s in json_field(obj, "signs", "a generator"))
        if sorted(perm) != list(range(1, len(perm) + 1)):
            raise ValueError(f"perm {perm} is not a permutation of 1..{len(perm)}")
        return cls(tuple(p - 1 for p in perm), signs)

    def __str__(self) -> str:
        cols = ",".join(f"{'-' if s < 0 else ''}e{t + 1}" for t, s in zip(self.perm, self.signs))
        return f"[{cols}]"


def _signed_permutation(perm: tuple[int, ...], signs: tuple[int, ...]) -> SignedPermutation:
    """SignedPermutation(perm, signs) for a product of checked ones, which is
    a signed permutation by construction."""
    return _trusted(SignedPermutation, perm=perm, signs=signs, _hash=hash((perm, signs)))


@dataclass(frozen=True)
class IsometryElement:
    """A Euclidean isometry B L_b with B a signed permutation and b taken
    mod 1.

    ``translation`` is the one format for translations throughout the
    package: a tuple of ints in quarter units, entry q standing for the
    coordinate q/4, reduced mod 4 by the constructor (so each entry lies in
    0..3).  Any other coordinate type, rationals, floats and bools included,
    raises TypeError; ``from_json`` and ``to_json`` convert to and from the
    rational interchange form.
    """

    linear: SignedPermutation
    translation: tuple[int, ...]

    def __post_init__(self):
        if len(self.translation) != self.linear.dim:
            raise ValueError("translation length must equal the dimension")
        if any(type(q) is not int for q in self.translation):
            raise TypeError(
                f"translation coordinates must be int quarter units, got {self.translation!r}"
            )
        object.__setattr__(self, "translation", tuple(q % 4 for q in self.translation))

    @property
    def dim(self) -> int:
        return self.linear.dim

    @classmethod
    def identity(cls, n: int) -> "IsometryElement":
        return cls(SignedPermutation.identity(n), (0,) * n)

    def compose(self, other: "IsometryElement") -> "IsometryElement":
        """(Ba L_a)(Bb L_b) = (Ba Bb) L_{Bb^-1 a + b}, where
        (Bb^-1 a)_j = signs[j] * a[perm[j]] is read straight off Bb."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        b = other.linear
        a = self.translation
        shifted = tuple((s * a[p] + t) % 4 for p, s, t in zip(b.perm, b.signs, other.translation))
        return _trusted(IsometryElement, linear=self.linear.compose(b), translation=shifted)

    def half_masks(self) -> tuple[int, int] | None:
        """(negation mask, half-translation mask) when B is diagonal and the
        translation lies in (1/2)Z^n, bit j of each standing for axis j:
        set if B negates e_j, and set if the translation is 1/2 on e_j.  None
        for any other coset.  Stored on the first call, like theta_key."""
        if "_half_masks" not in self.__dict__:
            masks = None
            if self.linear.is_diagonal() and all(q % 2 == 0 for q in self.translation):
                neg = sum(1 << j for j, s in enumerate(self.linear.signs) if s < 0)
                masks = (neg, sum(1 << j for j, q in enumerate(self.translation) if q))
            object.__setattr__(self, "_half_masks", masks)
        return self._half_masks

    def theta_key(self) -> tuple[tuple[int, int], ...]:
        """The coset's data on the fixed lattice of B, which alone decide
        torsion and e(gamma, N): one pair (l, c) per cycle of sign product +1,
        sorted, each standing for the real series sum_m (-1)^(c*m/2) q^(l*m^2),
        theta(q^l) for c = 0 and theta(-q^l) for c = 2.

        The fixed vector m * eps on a cycle of length l has squared norm l*m^2
        and pairs with the translation q to m*c quarter units, where
        c = sum eps[t] * q[indices[t]] mod 4, so it weighs i^(-c*m).  The
        terms of m and -m are conjugate, so for odd c the odd m cancel and
        m = 2k leaves (-1)^k q^(4l*k^2): that cycle's pair is (4l, 2).

        Stored on the element at the first call, like the hash of
        ``SignedPermutation``: the torsion test and the signature read it."""
        key = self.__dict__.get("_theta_key")
        if key is None:
            q = self.translation
            pairs = []
            for indices, eps, sigma in self.linear.cycles():
                if sigma == 1:
                    c = sum(e * q[j] for j, e in zip(indices, eps)) % 4
                    pairs.append((4 * len(indices), 2) if c % 2 else (len(indices), c))
            key = tuple(sorted(pairs))
            object.__setattr__(self, "_theta_key", key)
        return key

    def to_json(self) -> dict:
        obj = self.linear.to_json()
        obj["translation"] = [format_quarter(q) for q in self.translation]
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "IsometryElement":
        linear = SignedPermutation.from_json(obj)
        translation = tuple(parse_quarter(t) for t in obj.get("translation", []))
        if not translation:
            translation = (0,) * linear.dim
        return cls(linear, translation)

    def __str__(self) -> str:
        trans = ",".join(str(format_quarter(q)) for q in self.translation)
        return f"{self.linear}L[{trans}]"


@dataclass(frozen=True, eq=False, init=False)
class BieberbachGroup:
    """A candidate Bieberbach group: the generators it came from, plus one
    representative per coset of the translation lattice, identity first.

    There is no public constructor: expand_holonomy derives the
    representatives from the generators and is the only way to make a group.
    A group it builds from diagonal generators with translations in
    (1/2)Z^n holds a basis of its cosets' (negation mask, half-translation
    mask) pairs (see IsometryElement.half_masks), and ``holonomy`` is built
    only when read; the order, the torsion test, the classification and the
    spectral signature read the basis."""

    dim: int
    generators: tuple[IsometryElement, ...]
    name: str | None

    @cached_property
    def holonomy(self) -> tuple[IsometryElement, ...]:
        """The representatives, identity first.  Runs only for a mask group,
        at the first read, which stores the result: expand_holonomy stores
        an element group's representatives itself."""
        cosets = _expand_masks([g.half_masks() for g in self.generators], self.dim)
        return tuple(_mask_element(self.dim, neg, trans) for neg, trans in cosets)

    def __eq__(self, other) -> bool:
        # the representatives follow from the generators
        if not isinstance(other, BieberbachGroup):
            return NotImplemented
        return (self.dim, self.generators, self.name) == (other.dim, other.generators, other.name)

    def __hash__(self) -> int:
        # stored on first use: the row cache hashes the group on every call.
        # Equal groups have equal generators, so the cosets need not enter.
        value = self.__dict__.get("_hash")
        if value is None:
            value = hash((self.dim, self.generators, self.name))
            object.__setattr__(self, "_hash", value)
        return value

    @property
    def order(self) -> int:
        """|F|, the holonomy group order."""
        basis = self.__dict__.get("_basis")
        return len(self.holonomy) if basis is None else 1 << len(basis)

    def linear_parts(self) -> tuple[SignedPermutation, ...]:
        return tuple(e.linear for e in self.holonomy)

    def label(self) -> str:
        return self.name if self.name else f"group(dim={self.dim},|F|={self.order})"

    def renamed(self, name: str) -> "BieberbachGroup":
        """The same group under another name, sharing everything derived
        but the hash, which covers the name."""
        fields = {**vars(self), "name": name}
        fields.pop("_hash", None)
        return _trusted(BieberbachGroup, **fields)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "name": self.name,
            "generators": [g.to_json() for g in self.generators],
        }


def group_from_json(obj: dict) -> BieberbachGroup:
    """Rebuild a group from the JSON interchange form by re-expanding its
    generators."""
    return expand_holonomy(*generators_from_json(obj))


def generators_from_json(obj: dict) -> tuple[list[IsometryElement], int, str | None]:
    """(generators, dim, name) of a group in the JSON interchange form."""
    dim = json_int(json_field(obj, "dim", "a group"), "dim")
    generators = []
    for i, g in enumerate(obj.get("generators", []), 1):
        if not isinstance(g, dict):
            raise ValueError(f"generator {i} must be a JSON object, got {g!r}")
        generators.append(IsometryElement.from_json(g))
    return generators, dim, obj.get("name")


def expand_holonomy(generators, dim: int, name: str | None = None) -> BieberbachGroup:
    """Breadth-first closure of the generators' linear parts modulo Z^n.

    Keeps one representative per linear part (the identity's translation is
    0 by construction).  Raises HolonomyExpansionError if two products demand
    different translations mod 1 for the same linear part, or if the closure
    exceeds HOLONOMY_CAP elements, and ValueError if dim exceeds DIM_CAP.
    Each distinct generator is kept once, in first-seen order: a repeat forms
    no new product, so the representatives are the same, and neither this
    walk nor classify_holonomy's commutation check repeats it.  Costs |F| * g
    products for g distinct generators; see HOLONOMY_CAP for the time at the
    largest admitted group.  The only way to make a group.

    When every generator is diagonal with translation in (1/2)Z^n, a product
    is the XOR of (negation mask, half-translation mask) pairs, because a
    diagonal B is its own inverse and -1/2 = 1/2 mod 1.  The group is then
    the GF(2) span of the generators' pairs, and it keeps an echelon basis
    of them, built in O(g^2) XORs; its representatives are built only when
    read, by the same walk on int pairs, in the same order.  A span that
    is inconsistent or too large runs that walk too, which raises the error
    the general walk would.  Other groups take the general product.
    """
    if dim > DIM_CAP:
        raise ValueError(f"dimension {dim} exceeds the cap of {DIM_CAP}")
    gens = tuple(dict.fromkeys(generators))
    for g in gens:
        if g.dim != dim:
            raise ValueError(f"generator dimension {g.dim} != {dim}")
    masks = [g.half_masks() for g in gens]
    if None not in masks:
        basis = _mask_basis(masks)
        if basis is None or 1 << len(basis) > HOLONOMY_CAP:
            _expand_masks(masks, dim)  # raises the error the walk meets first
        return _trusted(BieberbachGroup, dim=dim, generators=gens, name=name, _basis=basis)
    holonomy = _expand_elements(gens, dim)
    return _trusted(BieberbachGroup, dim=dim, holonomy=holonomy, generators=gens, name=name)


def _mask_basis(masks) -> tuple[tuple[int, int], ...] | None:
    """A basis of the span of the (negation, half-translation) pairs, with
    distinct leading negation bits, or None if some negation mask is
    reached with two translations (the identity's being 0)."""
    basis: list[tuple[int, int]] = []  # descending, so each XOR clears a lead
    for neg, trans in masks:
        for b_neg, b_trans in basis:
            if neg ^ b_neg < neg:
                neg, trans = neg ^ b_neg, trans ^ b_trans
        if neg:
            basis.append((neg, trans))
            basis.sort(reverse=True)
        elif trans:
            return None
    return tuple(basis)


def _expand_elements(gens, dim: int) -> tuple[IsometryElement, ...]:
    identity = IsometryElement.identity(dim)
    reps: dict[SignedPermutation, IsometryElement] = {identity.linear: identity}
    queue = deque([identity])
    while queue:
        elem = queue.popleft()
        for gen in gens:
            prod = elem.compose(gen)
            known = reps.get(prod.linear)
            if known is None:
                _check_cap(len(reps))
                reps[prod.linear] = prod
                queue.append(prod)
            elif known.translation != prod.translation:
                raise _inconsistent(known, prod)
    return tuple(reps.values())


def _expand_masks(masks, dim: int) -> tuple[tuple[int, int], ...]:
    """_expand_elements on the generators' (negation, half-translation)
    mask pairs: the representatives' pairs, in the same order."""
    reps = {0: 0}  # negation mask -> half-translation mask
    queue = deque([0])
    while queue:
        neg = queue.popleft()
        trans = reps[neg]
        for gen_neg, gen_trans in masks:
            prod_neg, prod_trans = neg ^ gen_neg, trans ^ gen_trans
            known = reps.get(prod_neg)
            if known is None:
                _check_cap(len(reps))
                reps[prod_neg] = prod_trans
                queue.append(prod_neg)
            elif known != prod_trans:
                raise _inconsistent(
                    _mask_element(dim, prod_neg, known), _mask_element(dim, prod_neg, prod_trans)
                )
    return tuple(reps.items())


def _mask_element(dim: int, neg: int, trans: int) -> IsometryElement:
    """The diagonal coset with these masks: axis j negated if bit j of neg
    is set, translated by 1/2 if bit j of trans is."""
    signs = tuple(-1 if neg >> j & 1 else 1 for j in range(dim))
    translation = tuple(2 * (trans >> j & 1) for j in range(dim))
    return IsometryElement(SignedPermutation.diagonal(signs), translation)


def diagonal_element(signs, translation) -> IsometryElement:
    """diag(signs) L_translation (quarter units), with the checks of the
    public constructors, built once per distinct input: the members of a
    family such as K_n share their generator objects.  Cosets are built
    without it, so they are freed with their group."""
    signs, translation = tuple(signs), tuple(translation)
    if all(type(v) is int for v in signs + translation):
        return _interned_diagonal(signs, translation)
    return IsometryElement(SignedPermutation.diagonal(signs), translation)


# int entries only: as a cache key True equals 1, so a bool entry would get
# the cached element where the checks raise TypeError
@lru_cache(maxsize=1 << 16)
def _interned_diagonal(signs: tuple[int, ...], translation: tuple[int, ...]) -> IsometryElement:
    return IsometryElement(SignedPermutation.diagonal(signs), translation)


def _check_cap(size: int) -> None:
    if size >= HOLONOMY_CAP:
        raise HolonomyExpansionError(
            f"holonomy closure exceeded the cap of {HOLONOMY_CAP} elements"
        )


def _inconsistent(known: IsometryElement, prod: IsometryElement) -> HolonomyExpansionError:
    return HolonomyExpansionError(
        "inconsistent cocycle: linear part "
        f"{prod.linear} carries translations "
        f"{quarters_as_rationals(known.translation)} and "
        f"{quarters_as_rationals(prod.translation)} mod 1"
    )


def coset_is_torsion_free(element: IsometryElement) -> bool:
    """True iff no isometry in element * Z^n has finite order.

    With p_B the orthogonal projection onto the fixed space of B, the coset
    of B L_b contains torsion iff p_B(b) lies in p_B(Z^n); per positive
    cycle of B that is the condition sum(eps * b) in Z.  So the coset is
    torsion free iff some pair (l, c) of its theta key has c != 0.
    """
    return any(c for _, c in element.theta_key())


def mask_histogram(group: BieberbachGroup) -> tuple[tuple[tuple[int, int], int], ...] | None:
    """For a mask group, the pairs ((x, b), count): count cosets negate x
    axes and translate b of the axes they fix by 1/2, x = popcount(neg) and
    b = popcount(~neg & trans).  None for any other group.  Computed on the
    first call by a Gray-code walk over the 2^r combinations of the basis,
    and stored on the group.  A coset with x > 0 is torsion free iff b > 0
    (coset_is_torsion_free for a diagonal B)."""
    basis = group.__dict__.get("_basis")
    if basis is None:
        return None
    histogram = group.__dict__.get("_histogram")
    if histogram is None:
        counts = {(0, 0): 1}
        neg = trans = 0
        for i in range(1, 1 << len(basis)):
            # step i flips the basis pair of its lowest set bit
            b_neg, b_trans = basis[(i & -i).bit_length() - 1]
            neg, trans = neg ^ b_neg, trans ^ b_trans
            key = (neg.bit_count(), (trans & ~neg).bit_count())
            counts[key] = counts.get(key, 0) + 1
        histogram = tuple(counts.items())
        object.__setattr__(group, "_histogram", histogram)
    return histogram


def is_torsion_free(group: BieberbachGroup) -> bool:
    """Standard criterion applied to every non-identity representative."""
    return torsion_witness(group) is None


def torsion_witness(group: BieberbachGroup) -> IsometryElement | None:
    """The first non-identity representative whose coset contains torsion,
    or None.  A mask group is scanned only if its histogram shows one."""
    histogram = mask_histogram(group)
    if histogram is not None and all(b or not x for (x, b), _count in histogram):
        return None
    for elem in group.holonomy:
        if not elem.linear.is_identity() and not coset_is_torsion_free(elem):
            return elem
    return None


@dataclass(frozen=True)
class HolonomyClass:
    """Isomorphism data for the finite holonomy group."""

    order: int
    abelian: bool
    elementary_rank: int | None
    description: str


def _primary_factors(orders) -> tuple[int, ...]:
    """The primary cyclic factors, descending, of the abelian group with
    these element orders.

    For a prime p, |A[p^k]| / |A[p^(k-1)]| = p^r, where r is the number of
    cyclic factors of order at least p^k."""
    m = len(orders)
    factors = []
    rest, p = m, 2
    while rest > 1:
        exponent = 0
        while rest % p == 0:
            rest //= p
            exponent += 1
        if exponent:
            counts = [sum(1 for o in orders if p**k % o == 0) for k in range(exponent + 1)]
            logs = [next(r for r in range(exponent + 1) if p**r == c) for c in counts]
            ranks = [b - a for a, b in zip(logs, logs[1:])] + [0]
            for k in range(1, exponent + 1):
                factors += [p**k] * (ranks[k - 1] - ranks[k])
        p += 1
    return tuple(sorted(factors, reverse=True))


def classify_holonomy(group: BieberbachGroup) -> HolonomyClass:
    """Classify F: elementary abelian 2-groups by rank, other abelian groups
    by their primary cyclic factors, read off the element orders.  F is
    abelian iff the generators commute: g(g-1) products, plus O(|F| log |F|)
    for the orders.

    A mask group is Z2^r with no product: every coset is an involution, and
    its 2^r distinct negation masks span a GF(2) space of rank r."""
    m = group.order
    if mask_histogram(group) is not None:
        factors = (2,) * (m.bit_length() - 1)
    else:
        gens = [g.linear for g in group.generators]
        if not all(a.compose(b) == b.compose(a) for a, b in itertools.combinations(gens, 2)):
            return HolonomyClass(m, False, None, f"nonabelian of order {m}")
        factors = _primary_factors([b.order() for b in group.linear_parts()])
    rank = len(factors) if set(factors) <= {2} else None
    text = " x ".join(f"Z{d}" for d in factors) or "trivial"
    return HolonomyClass(m, True, rank, f"Z2^{rank}" if rank and rank > 1 else text)


def is_diagonal_type(group: BieberbachGroup) -> bool:
    """All linear parts diagonal sign matrices and all translations in
    (1/2)Z^n.  Read off the generators: each is its own coset's
    representative, and products of such cosets are such cosets."""
    return all(g.half_masks() is not None for g in group.generators)


def is_orientable(group: BieberbachGroup) -> bool:
    """All linear parts of determinant 1, read off the generators."""
    return all(g.linear.det() == 1 for g in group.generators)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural checks; accepted iff closure, cocycle
    consistency and torsion-freeness all hold."""

    dim: int
    name: str | None
    closure: bool
    cocycle: bool
    torsion_free: bool
    holonomy_order: int
    holonomy: str
    elementary_rank: int | None
    diagonal_type: bool
    orientable: bool
    error: str | None = None

    @property
    def accepted(self) -> bool:
        return self.closure and self.cocycle and self.torsion_free

    def summary(self) -> str:
        if self.accepted:
            return f"accepted: holonomy {self.holonomy} of order {self.holonomy_order}"
        failed = [
            label
            for label, ok in (
                ("closure", self.closure),
                ("cocycle", self.cocycle),
                ("torsion-free", self.torsion_free),
            )
            if not ok
        ]
        detail = f" ({self.error})" if self.error else ""
        return "rejected: failed " + ", ".join(failed) + detail

    def to_json(self) -> dict:
        return {**asdict(self), "accepted": self.accepted}


def validate(group: BieberbachGroup) -> ValidationReport:
    """Check torsion-freeness and report the structural classification.

    Closure and cocycle consistency hold by construction: expand_holonomy,
    the only way to make a group, checks every product rep(a) * g of its
    walk and raises on the first mismatch, which validate_generators
    reports.  So this costs the torsion test and classify_holonomy, which
    form no product and, for a mask group, build no coset: about 42 ms for
    a K_17 member (2^16 cosets), and under 1 ms for B_6 (see HOLONOMY_CAP).
    """
    witness = torsion_witness(group)
    cls = classify_holonomy(group)
    detail = None if witness is None else f"coset of {witness} contains an element of finite order"
    return ValidationReport(
        dim=group.dim,
        name=group.name,
        closure=True,
        cocycle=True,
        torsion_free=witness is None,
        holonomy_order=group.order,
        holonomy=cls.description,
        elementary_rank=cls.elementary_rank,
        diagonal_type=is_diagonal_type(group),
        orientable=is_orientable(group),
        error=detail,
    )


def validate_generators(
    generators, dim: int, name: str | None = None
) -> tuple[BieberbachGroup | None, ValidationReport]:
    """Expand and validate; expansion failures become a rejecting report."""
    try:
        group = expand_holonomy(generators, dim, name=name)
    except ValueError as exc:  # HolonomyExpansionError included
        report = ValidationReport(
            dim=dim,
            name=name,
            closure=False,
            cocycle=False,
            torsion_free=False,
            holonomy_order=0,
            holonomy="unknown",
            elementary_rank=None,
            diagonal_type=False,
            orientable=False,
            error=str(exc),
        )
        return None, report
    report = validate(group)
    return (group if report.accepted else None), report

