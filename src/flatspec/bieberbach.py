"""Bieberbach groups over the cubic lattice Z^n.

Linear parts are signed permutations (exactly the orthogonal matrices that
stabilize Z^n), translation parts are vectors in (1/4)Z^n reduced mod 1,
held in integer quarter units as documented on ``IsometryElement``.  A
group is given by its generators, as the paper gives every manifold, and
only ``expand_holonomy`` builds one: its representatives, one per coset of
the translation lattice and identity first, are derived from the
generators and never taken as input, so closure and cocycle consistency
hold by construction.

Each datum derived from one object is a ``functools.cached_property`` of
its class, computed at the first read and freed with the object, and no
other module stores data on it: ``SignedPermutation.cycles``, the
``half_masks`` and ``theta_key`` of an ``IsometryElement``, and a group's
``holonomy`` (if a mask group), ``signature`` and hash.

Conventions, fixed once and used everywhere:

* column action: ``B e_j = signs[j] * e_{perm[j]}``;
* an isometry ``B L_b`` maps x to ``B(x + b)``, hence products compose as
  ``(Ba L_a)(Bb L_b) = (Ba Bb) L_{Bb^-1 a + b}`` with the translation
  reduced mod 1 (mod 4 in quarter units).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from functools import cached_property, lru_cache
from operator import attrgetter

from .arith import (
    format_quarter,
    json_array,
    json_field,
    json_int,
    parse_quarter,
)

#: largest holonomy group expand_holonomy will build, read at each call.
#: Expansion costs O(|F| * g) products for g distinct generators, each
#: computed where it is formed, so a group's cosets are freed with it.
#: Repeats are dropped, but a distinct generator that the others already
#: generate still costs its |F| products.  validate forms no product: B_6
#: (|F| = 46080, 3 generators) expands in 1.1-1.7 s and validates in about
#: 1 ms.  A group with diagonal generators and translations in (1/2)Z^n
#: keeps a basis of int mask pairs instead and builds no coset: a K_17
#: member (2^16 cosets, 16 generators) expands in about 0.1 ms and
#: validates in about 42 ms, the torsion test's walk over the basis, and a
#: K_6 member (32 cosets) in about 15 us and 40 us, against 0.9 ms to
#: compose its cosets.  The worst admitted inputs all end in an error:
#:
#: * 16 adjacent transpositions in dim 17 walk to the cap in 3.1-3.8 s;
#: * 16 independent mask generators plus their product with another
#:   translation, an inconsistent span, and 17 independent ones, a
#:   consistent span over the cap, are refused off the basis in under 1 ms,
#:   in dim 17 as in dim 64 (a walk to the conflict took 6-9 s and 13-19.5 s).
#:
#: (CPython 3.11, Xeon VM, 3 runs each.)
HOLONOMY_CAP = 2**16

#: largest dimension expand_holonomy will build a group in, and the largest
#: n of the krawtchouk command.  krawtchouk_table costs O(n^3) (all 64 take
#: 0.3 s).  At lattice.SHELL_CAP a torus:64 row takes 1.9-2.0 s, ``compare
#: torus:64 torus:64`` 4.6-4.9 s at 90 MiB peak RSS, and the row of a dim-64 mask
#: group of 16 random generators (697 keys, 1123 key prefixes) 38-39 s at 56 MiB
#: (CPython 3.11, Xeon VM).
DIM_CAP = 64

#: the (l, c) pairs of IsometryElement.theta_key
ThetaKey = tuple[tuple[int, int], ...]


class HolonomyExpansionError(ValueError):
    """Raised when generator closure blows up or translations conflict."""


class GroupValidationError(ValueError):
    """Raised when a candidate group fails structural validation."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__(report.summary())


class Record:
    """Base of the package's immutable value classes: the fields are the
    names a subclass annotates (two or more); equality, hash and repr follow
    them.  Only __init__, which a checking subclass's __init__ calls, and
    _trusted, which skips those checks for values valid by construction,
    write state by hand; a ``cached_property`` stores into the instance dict."""

    def __init_subclass__(cls):
        cls._fields = getattr(cls, "_fields", ()) + tuple(vars(cls).get("__annotations__", ()))
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields = dict(zip(self._fields, args), **kwargs)
        if len(args) + len(kwargs) != len(self._fields) or fields.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        self.__dict__.update(fields)

    @classmethod
    def _trusted(cls, **fields):
        obj = object.__new__(cls)
        obj.__dict__.update(fields)
        return obj

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class SignedPermutation(Record):
    """An orthogonal automorphism of Z^n: B e_j = signs[j] * e_{perm[j]}.

    ``perm`` holds 0-based images; the JSON interchange form is 1-based.
    """

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __init__(self, perm: tuple[int, ...], signs: tuple[int, ...]):
        n = len(perm)
        if len(signs) != n:
            raise ValueError("perm and signs must have equal length")
        if sorted(perm) != list(range(n)):
            raise ValueError(f"perm {perm} is not a permutation of 0..{n - 1}")
        if any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +1 or -1")
        super().__init__(perm, signs)

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
        # a product of signed permutations is one by construction
        return SignedPermutation._trusted(perm=perm, signs=signs)

    @cached_property
    def cycles(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
        """Cycle data: tuples (indices, eps, sign_product).

        ``indices`` follows the orbit j -> perm[j]; ``eps[t]`` is the product
        of the signs met strictly before step t, so a cycle with sign product
        +1 has fixed vectors proportional to sum(eps[t] * e_{indices[t]}).
        """
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
        return tuple(out)

    def order(self) -> int:
        result = 1
        for indices, _eps, sigma in self.cycles:
            length = len(indices)
            result = math.lcm(result, length if sigma == 1 else 2 * length)
        return result

    def exterior_traces(self) -> tuple[int, ...]:
        """Coefficients of det(Id + t*B): entry p is the trace on p-forms.

        Each cycle of length l and sign product sigma contributes the factor
        1 + sigma*(-1)^(l+1) * t^l.
        """
        coeffs = [1]
        for indices, _eps, sigma in self.cycles:
            length = len(indices)
            lead = sigma if length % 2 == 1 else -sigma
            merged = [0] * (len(coeffs) + length)
            for i, a in enumerate(coeffs):
                merged[i] += a
                merged[i + length] += lead * a
            coeffs = merged
        return tuple(coeffs)

    def to_json(self) -> dict:
        return {"perm": [p + 1 for p in self.perm], "signs": list(self.signs)}

    @classmethod
    def from_json(cls, obj: dict) -> "SignedPermutation":
        """Read the 1-based interchange form, whose errors quote it."""
        perm = json_array(json_field(obj, "perm", "a generator"), "perm")
        perm = [json_int(p, "perm") for p in perm]
        signs = json_array(json_field(obj, "signs", "a generator"), "signs")
        signs = tuple(json_int(s, "signs") for s in signs)
        if sorted(perm) != list(range(1, len(perm) + 1)):
            raise ValueError(f"perm {perm} is not a permutation of 1..{len(perm)}")
        return cls(tuple(p - 1 for p in perm), signs)

    def __str__(self) -> str:
        cols = ",".join(f"{'-' if s < 0 else ''}e{t + 1}" for t, s in zip(self.perm, self.signs))
        return f"[{cols}]"


@lru_cache(maxsize=16)
def krawtchouk_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Column x, entry p: K_p^n(x) for 0 <= p, x <= n, the trace on p-forms
    of an involution with eigenvalue -1 of multiplicity x, as is every coset
    of a Z2^k group: column x is the exterior traces of diag(-1^x, 1^(n-x))."""
    return tuple(SignedPermutation.diagonal((-1,) * x + (1,) * (n - x)).exterior_traces() for x in range(n + 1))


class IsometryElement(Record):
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

    def __init__(self, linear: SignedPermutation, translation: tuple[int, ...]):
        if len(translation) != linear.dim:
            raise ValueError("translation length must equal the dimension")
        if any(type(q) is not int for q in translation):
            raise TypeError(f"translation coordinates must be int quarter units, got {translation!r}")
        super().__init__(linear, tuple(q % 4 for q in translation))

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
        return IsometryElement._trusted(linear=self.linear.compose(b), translation=shifted)

    @cached_property
    def half_masks(self) -> tuple[int, int] | None:
        """(negation mask, half-translation mask) when B is diagonal and the
        translation lies in (1/2)Z^n, bit j of each standing for axis j:
        set if B negates e_j, and set if the translation is 1/2 on e_j.  None
        for any other coset."""
        if not self.linear.is_diagonal() or any(q % 2 for q in self.translation):
            return None
        neg = sum(1 << j for j, s in enumerate(self.linear.signs) if s < 0)
        return neg, sum(1 << j for j, q in enumerate(self.translation) if q)

    @cached_property
    def theta_key(self) -> ThetaKey:
        """The coset's data on the fixed lattice of B, which alone decide
        torsion and e(gamma, N): one pair (l, c) per cycle of sign product +1,
        sorted, each standing for the real series sum_m (-1)^(c*m/2) q^(l*m^2),
        theta(q^l) for c = 0 and theta(-q^l) for c = 2.

        The fixed vector m * eps on a cycle of length l has squared norm l*m^2
        and pairs with the translation q to m*c quarter units, where
        c = sum eps[t] * q[indices[t]] mod 4, so it weighs i^(-c*m).  The
        terms of m and -m are conjugate, so for odd c the odd m cancel and
        m = 2k leaves (-1)^k q^(4l*k^2): that cycle's pair is (4l, 2)."""
        q = self.translation
        pairs = []
        for indices, eps, sigma in self.linear.cycles:
            if sigma == 1:
                c = sum(e * q[j] for j, e in zip(indices, eps)) % 4
                pairs.append((4 * len(indices), 2) if c % 2 else (len(indices), c))
        return tuple(sorted(pairs))

    def to_json(self) -> dict:
        obj = self.linear.to_json()
        obj["translation"] = [format_quarter(q) for q in self.translation]
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "IsometryElement":
        linear = SignedPermutation.from_json(obj)
        translation = json_array(obj.get("translation", []), "translation")
        translation = tuple(parse_quarter(t) for t in translation)
        if not translation:
            translation = (0,) * linear.dim
        return cls(linear, translation)

    def __str__(self) -> str:
        trans = ",".join(str(format_quarter(q)) for q in self.translation)
        return f"{self.linear}L[{trans}]"


class BieberbachGroup(Record):
    """A candidate Bieberbach group: the generators it came from, plus one
    representative per coset of the translation lattice, identity first.

    There is no public constructor: expand_holonomy derives the
    representatives from the generators and is the only way to make a group.
    A group it builds from diagonal generators with translations in
    (1/2)Z^n holds a basis of its cosets' (negation mask, half-translation
    mask) pairs (see IsometryElement.half_masks), and builds ``holonomy``
    only when read; the order, the torsion test, the classification and the
    signature read the basis, and a torsion witness walks only as far as
    the witness."""

    dim: int
    generators: tuple[IsometryElement, ...]
    name: str | None
    #: the echelon basis of a mask group's pairs, None for any other group
    _basis = None

    def __init__(self, *args, **kwargs):
        raise TypeError("groups are made only by expand_holonomy")

    @cached_property
    def holonomy(self) -> tuple[IsometryElement, ...]:
        """The representatives, identity first, in the order of the one
        walk.  Runs only for a mask group, at the first read, which stores
        the result: expand_holonomy stores an element group's
        representatives itself."""
        return tuple(_walk(self.generators, self.dim))

    @cached_property
    def _hash(self) -> int:
        # the row cache hashes the group per call; equal groups have equal generators
        return hash((self.dim, self.generators, self.name))

    def __hash__(self) -> int:
        return self._hash

    @property
    def order(self) -> int:
        """|F|, the holonomy group order."""
        return len(self.holonomy) if self._basis is None else 1 << len(self._basis)

    @cached_property
    def signature(self) -> tuple[tuple[tuple[ThetaKey, tuple[int, ...]], int], ...]:
        """Pairs ((theta key, T), count) in order of first appearance, so the
        identity's first, where T[p] is one coset's trace on p-forms and count
        the number of representatives with that key and those traces: all
        that the multiplicities d_p(N) read of the group (see ``spectra``).
        An involution's cycles are axes kept or negated and 2-cycles of sign
        product +1; the kept axes and the 2-cycles make its theta key, so its
        traces are column n - len(key) of krawtchouk_table(n), read by index,
        and only a coset of higher order reads exterior_traces: 0.6-1.0 s for
        B_6 (|F| = 46080, 65 entries), nearly all in cycles and theta keys.
        A mask group walks its basis in Gray-code order, one XOR a step and
        no coset built, and names each (x, b) by mask_entry: 31-34 ms for a
        dim-64 group of 2^16 cosets and 697 entries (CPython 3.11, Xeon VM)."""
        n = self.dim
        if self._basis is None:
            table, counts = krawtchouk_table(n), Counter()
            for elem in self.holonomy:
                key, linear = elem.theta_key, elem.linear
                counts[key, table[n - len(key)] if linear.order() <= 2 else linear.exterior_traces()] += 1
            return tuple(counts.items())
        counts = {(0, 0): 1}  # (x, b) -> cosets
        neg = trans = 0
        for i in range(1, self.order):
            # step i flips the basis pair of its lowest set bit
            b_neg, b_trans = self._basis[(i & -i).bit_length() - 1]
            neg, trans = neg ^ b_neg, trans ^ b_trans
            x_b = (neg.bit_count(), (trans & ~neg).bit_count())
            counts[x_b] = counts.get(x_b, 0) + 1
        return tuple((mask_entry(n, x, b), count) for (x, b), count in counts.items())

    def label(self) -> str:
        return self.name if self.name else f"group(dim={self.dim},|F|={self.order})"

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
    for i, g in enumerate(json_array(obj.get("generators", []), "generators"), 1):
        if not isinstance(g, dict):
            raise ValueError(f"generator {i} must be a JSON object, got {g!r}")
        generators.append(IsometryElement.from_json(g))
    name = obj.get("name")
    if name is not None and type(name) is not str:
        raise ValueError(f"name must be a JSON string or null, got {name!r}")
    return generators, dim, name


def expand_holonomy(generators, dim: int, name: str | None = None) -> BieberbachGroup:
    """Breadth-first closure of the generators' linear parts modulo Z^n.

    Keeps one representative per linear part (the identity's translation is
    0 by construction).  Raises HolonomyExpansionError if two products demand
    different translations mod 1 for the same linear part, or if the closure
    exceeds HOLONOMY_CAP elements, and ValueError if dim is below 1 or
    exceeds DIM_CAP.  Each distinct generator is kept once, in first-seen
    order: a repeat forms no new product, so the representatives are the
    same, and neither this walk nor classify_holonomy's commutation check
    repeats it.  Costs |F| * g products for g distinct generators; see
    HOLONOMY_CAP for the time at the largest admitted inputs.  The only way
    to make a group.

    When every generator is diagonal with translation in (1/2)Z^n, a product
    is the XOR of (negation mask, half-translation mask) pairs, because a
    diagonal B is its own inverse and -1/2 = 1/2 mod 1.  The group is then
    the GF(2) span of the generators' pairs, and it keeps an echelon basis
    of them, built in O(g^2) XORs with no walk; its representatives are
    walked only when read.  An inconsistent span raises while the basis is
    built, naming the first generator the earlier ones contradict (see
    _mask_basis), so before the cap; a consistent span of rank r raises the
    cap error at once when 2^r > HOLONOMY_CAP.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if dim > DIM_CAP:
        raise ValueError(f"dimension {dim} exceeds the cap of {DIM_CAP}")
    gens = tuple(dict.fromkeys(generators))
    for g in gens:
        if g.dim != dim:
            raise ValueError(f"generator dimension {g.dim} != {dim}")
    if any(g.half_masks is None for g in gens):
        holonomy = tuple(_walk(gens, dim))
        return BieberbachGroup._trusted(dim=dim, holonomy=holonomy, generators=gens, name=name)
    basis = _mask_basis(gens)
    _check_cap((1 << len(basis)) - 1)  # the size before the walk's last coset
    return BieberbachGroup._trusted(dim=dim, generators=gens, name=name, _basis=basis)


def _mask_basis(gens) -> tuple[tuple[int, int], ...]:
    """A basis of the span of the generators' half_masks pairs, with
    distinct leading negation bits.  Raises HolonomyExpansionError for the
    first generator whose negation mask the earlier ones' span reaches with
    another translation (the identity's being 0), naming its linear part
    with the span's translation and its own."""
    basis: list[tuple[int, int]] = []  # descending, so each XOR clears a lead
    for gen in gens:
        neg, trans = gen.half_masks
        for b_neg, b_trans in basis:
            if neg ^ b_neg < neg:
                neg, trans = neg ^ b_neg, trans ^ b_trans
        if neg:
            basis.append((neg, trans))
            basis.sort(reverse=True)
        elif trans:  # the span's element with this linear part differs on trans
            shifted = tuple((q + 2 * (trans >> j & 1)) % 4 for j, q in enumerate(gen.translation))
            raise _inconsistent(IsometryElement._trusted(linear=gen.linear, translation=shifted), gen)
    return tuple(basis)


def mask_entry(n: int, x: int, b: int) -> tuple[ThetaKey, tuple[int, ...]]:
    """The signature entry of a mask coset in dimension n that negates x
    axes, x = popcount(neg), and translates b of the others by 1/2,
    b = popcount(~neg & trans): its theta key (1, 0)^(n-x-b) (1, 2)^b and its
    traces, column x of krawtchouk_table(n)."""
    return ((1, 0),) * (n - x - b) + ((1, 2),) * b, krawtchouk_table(n)[x]


def _walk(gens, dim: int):
    """Breadth-first closure of the generators modulo Z^n: yields each new
    representative rep(a) * g as the walk finds it, identity first, and
    raises on a conflicting translation or past HOLONOMY_CAP.  The only
    walk: a caller that stops early forms no further product."""
    identity = IsometryElement.identity(dim)
    reps: dict[SignedPermutation, IsometryElement] = {identity.linear: identity}
    queue = deque([identity])
    yield identity
    while queue:
        elem = queue.popleft()
        for gen in gens:
            prod = elem.compose(gen)
            known = reps.get(prod.linear)
            if known is None:
                _check_cap(len(reps))
                reps[prod.linear] = prod
                queue.append(prod)
                yield prod
            elif known.translation != prod.translation:
                raise _inconsistent(known, prod)


def _check_cap(size: int) -> None:
    if size >= HOLONOMY_CAP:
        raise HolonomyExpansionError(
            f"holonomy closure exceeded the cap of {HOLONOMY_CAP} elements"
        )


def _inconsistent(known: IsometryElement, prod: IsometryElement) -> HolonomyExpansionError:
    pair = " and ".join(
        "(" + ", ".join(str(format_quarter(q)) for q in e.translation) + ")" for e in (known, prod)
    )
    return HolonomyExpansionError(
        f"inconsistent cocycle: linear part {prod.linear} carries translations {pair} mod 1"
    )


def coset_is_torsion_free(element: IsometryElement) -> bool:
    """True iff no isometry in element * Z^n has finite order.

    With p_B the orthogonal projection onto the fixed space of B, the coset
    of B L_b contains torsion iff p_B(b) lies in p_B(Z^n); per positive
    cycle of B that is the condition sum(eps * b) in Z.  So the coset is
    torsion free iff some pair (l, c) of its theta key has c != 0.
    """
    return any(c for _, c in element.theta_key)


def is_torsion_free(group: BieberbachGroup) -> bool:
    """Standard criterion applied to every non-identity representative."""
    return torsion_witness(group) is None


def torsion_witness(group: BieberbachGroup) -> IsometryElement | None:
    """The first non-identity representative whose coset contains torsion,
    or None; holonomy and _walk both yield the identity first.  A mask group
    walks, storing no coset and only as far as the witness, only if a key of
    its signature past the identity's has no c != 0."""
    if group._basis is None:
        cosets = group.holonomy
    elif all(any(c for _l, c in key) for (key, _traces), _count in group.signature[1:]):
        return None
    else:
        cosets = _walk(group.generators, group.dim)
    for elem in itertools.islice(cosets, 1, None):
        if not coset_is_torsion_free(elem):
            return elem
    return None


class HolonomyClass(Record):
    """Isomorphism data for the finite holonomy group."""

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
    if group._basis is not None:
        factors = (2,) * (m.bit_length() - 1)
    else:
        gens = [g.linear for g in group.generators]
        if not all(a.compose(b) == b.compose(a) for a, b in itertools.combinations(gens, 2)):
            return HolonomyClass(False, None, f"nonabelian of order {m}")
        factors = _primary_factors([e.linear.order() for e in group.holonomy])
    rank = len(factors) if set(factors) <= {2} else None
    text = " x ".join(f"Z{d}" for d in factors) or "trivial"
    return HolonomyClass(True, rank, f"Z2^{rank}" if rank and rank > 1 else text)


def is_orientable(group: BieberbachGroup) -> bool:
    """All linear parts of determinant 1, the top exterior trace, read off the generators."""
    return all(g.linear.exterior_traces()[-1] == 1 for g in group.generators)


class ValidationReport(Record):
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
    error: str | None

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
        return dict(zip(self._fields, self._values(self)), accepted=self.accepted)


def validate(group: BieberbachGroup) -> ValidationReport:
    """Check torsion-freeness and report the structural classification.

    Closure and cocycle consistency hold by construction: expand_holonomy,
    the only way to make a group, checks every product rep(a) * g of its
    walk, or the span of a mask group's basis, and raises on the first
    mismatch, which validate_generators reports.  So this costs the torsion
    test and classify_holonomy, which form no product and, for a torsion-free
    mask group, build no coset: about 42 ms for a K_17 member (2^16 cosets),
    and about 1 ms for B_6 (see HOLONOMY_CAP).  A mask group with torsion
    walks only as far as its witness and stores no coset.  diagonal_type is
    whether it is a mask group: every generator has half_masks, torus too.
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
        diagonal_type=group._basis is not None,
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

