"""Bieberbach groups over the cubic lattice Z^n.

Linear parts are signed permutations (exactly the orthogonal matrices that
stabilize Z^n), translation parts are vectors in (1/4)Z^n reduced mod 1,
held in integer quarter units as documented on ``IsometryElement``.  A
group is held as one representative per coset of the translation lattice,
identity first.

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
from dataclasses import asdict, dataclass, replace
from functools import lru_cache

from .arith import format_quarter, parse_quarter, quarters_as_rationals

#: largest holonomy group expand_holonomy will build, read at each call.
#: Expansion and validation cost O(|F| * g) composes for g generators, so it
#: is reachable: B_6 (|F| = 46080, 3 generators) expands in about 2.5 s and
#: validates in about 1.7 s (CPython 3.11, Xeon).
HOLONOMY_CAP = 2**16


class HolonomyExpansionError(ValueError):
    """Raised when generator closure blows up or translations conflict."""


class GroupValidationError(ValueError):
    """Raised when a candidate group fails structural validation."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__(report.summary())


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
        """Matrix product self o other."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return _compose(self, other)

    def inverse(self) -> "SignedPermutation":
        return _inverse(self)

    def cycles(self):
        """Cycle data: tuples (indices, eps, sign_product).

        ``indices`` follows the orbit j -> perm[j]; ``eps[t]`` is the product
        of the signs met strictly before step t, so a cycle with sign product
        +1 has fixed vectors proportional to sum(eps[t] * e_{indices[t]}).
        """
        return _cycles(self)

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

    def trace(self) -> int:
        return sum(self.signs[j] for j in range(self.dim) if self.perm[j] == j)

    def to_json(self) -> dict:
        return {"perm": [p + 1 for p in self.perm], "signs": list(self.signs)}

    @classmethod
    def from_json(cls, obj: dict) -> "SignedPermutation":
        perm = tuple(int(p) - 1 for p in obj["perm"])
        signs = tuple(int(s) for s in obj["signs"])
        return cls(perm, signs)

    def __str__(self) -> str:
        cols = ",".join(f"{'-' if s < 0 else ''}e{t + 1}" for t, s in zip(self.perm, self.signs))
        return f"[{cols}]"


# few distinct linear parts occur per session, so product and inverse tables
# stay small while holonomy expansion hits them constantly
@lru_cache(maxsize=None)
def _compose(a: SignedPermutation, b: SignedPermutation) -> SignedPermutation:
    perm = tuple(a.perm[b.perm[j]] for j in range(a.dim))
    signs = tuple(b.signs[j] * a.signs[b.perm[j]] for j in range(a.dim))
    return SignedPermutation(perm, signs)


@lru_cache(maxsize=None)
def _inverse(b: SignedPermutation) -> SignedPermutation:
    perm = [0] * b.dim
    signs = [1] * b.dim
    for j, (target, sign) in enumerate(zip(b.perm, b.signs)):
        perm[target] = j
        signs[target] = sign
    return SignedPermutation(tuple(perm), tuple(signs))


@lru_cache(maxsize=None)
def _cycles(b: SignedPermutation):
    n = b.dim
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        indices = []
        eps = []
        j = start
        e = 1
        while True:
            seen[j] = True
            indices.append(j)
            eps.append(e)
            e *= b.signs[j]
            j = b.perm[j]
            if j == start:
                break
        out.append((tuple(indices), tuple(eps), e))
    return tuple(out)


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

    def is_identity(self) -> bool:
        return self.linear.is_identity() and all(t == 0 for t in self.translation)

    def compose(self, other: "IsometryElement") -> "IsometryElement":
        """(Ba L_a)(Bb L_b) = (Ba Bb) L_{Bb^-1 a + b}, where
        (Bb^-1 a)_j = signs[j] * a[perm[j]] is read straight off Bb."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        b = other.linear
        a = self.translation
        shifted = tuple(s * a[p] + t for p, s, t in zip(b.perm, b.signs, other.translation))
        return IsometryElement(self.linear.compose(b), shifted)

    def inverse(self) -> "IsometryElement":
        moved = self.linear.apply(self.translation)
        return IsometryElement(self.linear.inverse(), tuple(-q for q in moved))

    def sort_key(self):
        return (self.linear.perm, self.linear.signs, self.translation)

    def key_string(self) -> str:
        perm = ",".join(str(p + 1) for p in self.linear.perm)
        signs = ",".join("+" if s > 0 else "-" for s in self.linear.signs)
        trans = ",".join(str(format_quarter(q)) for q in self.translation)
        return f"{perm}|{signs}|{trans}"

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


@dataclass(frozen=True)
class BieberbachGroup:
    """A candidate Bieberbach group: one representative per coset of the
    translation lattice, identity first, plus the generators it came from."""

    dim: int
    holonomy: tuple[IsometryElement, ...]
    generators: tuple[IsometryElement, ...] = ()
    name: str | None = None

    @property
    def order(self) -> int:
        """|F|, the holonomy group order."""
        return len(self.holonomy)

    def linear_parts(self) -> tuple[SignedPermutation, ...]:
        return tuple(e.linear for e in self.holonomy)

    def label(self) -> str:
        return self.name if self.name else f"group(dim={self.dim},|F|={self.order})"

    def renamed(self, name: str) -> "BieberbachGroup":
        return replace(self, name=name)

    def canonical_key(self) -> str:
        """Deterministic serialization; equal keys iff identical coset
        representative sets."""
        return ";".join(e.key_string() for e in sorted(self.holonomy, key=IsometryElement.sort_key))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "name": self.name,
            "generators": [g.to_json() for g in self.generators],
        }

    def __str__(self) -> str:
        return f"{self.label()}: " + ", ".join(str(e) for e in self.holonomy)


def group_from_json(obj: dict) -> BieberbachGroup:
    """Rebuild a group from the JSON interchange form by re-expanding its
    generators."""
    dim = int(obj["dim"])
    generators = [IsometryElement.from_json(g) for g in obj.get("generators", [])]
    return expand_holonomy(generators, dim, name=obj.get("name"))


def expand_holonomy(generators, dim: int, name: str | None = None) -> BieberbachGroup:
    """Breadth-first closure of the generators' linear parts modulo Z^n.

    Keeps one representative per linear part (the identity's translation is
    0 by construction).  Raises HolonomyExpansionError if two products demand
    different translations mod 1 for the same linear part, or if the closure
    exceeds HOLONOMY_CAP elements.  Costs |F| * g composes for g generators;
    see HOLONOMY_CAP for the time at the largest admitted group.
    """
    gens = tuple(generators)
    for g in gens:
        if g.dim != dim:
            raise ValueError(f"generator dimension {g.dim} != {dim}")
    identity = IsometryElement.identity(dim)
    reps: dict[SignedPermutation, IsometryElement] = {identity.linear: identity}
    queue = deque([identity])
    while queue:
        elem = queue.popleft()
        for gen in gens:
            prod = elem.compose(gen)
            known = reps.get(prod.linear)
            if known is None:
                if len(reps) >= HOLONOMY_CAP:
                    raise HolonomyExpansionError(
                        f"holonomy closure exceeded the cap of {HOLONOMY_CAP} elements"
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
    return BieberbachGroup(dim=dim, holonomy=tuple(reps.values()), generators=gens, name=name)


def coset_is_torsion_free(element: IsometryElement) -> bool:
    """True iff no isometry in element * Z^n has finite order.

    With p_B the orthogonal projection onto the fixed space of B, the coset
    of B L_b contains torsion iff p_B(b) lies in p_B(Z^n); per positive
    cycle of B that is the condition sum(eps * b) in Z, so the coset is
    torsion free iff some positive cycle gives a non-integer sum (a quarter
    sum not divisible by 4).
    """
    translation = element.translation
    return any(
        sum(e * translation[j] for j, e in zip(indices, eps)) % 4
        for indices, eps, sigma in element.linear.cycles()
        if sigma == 1
    )


def is_torsion_free(group: BieberbachGroup) -> bool:
    """Standard criterion applied to every non-identity representative."""
    return torsion_witness(group) is None


def torsion_witness(group: BieberbachGroup) -> IsometryElement | None:
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


def _primary_factors(orders) -> tuple[int, ...] | None:
    """The primary cyclic factors, descending, of the abelian group with
    these element orders; None if the counts fit no group of that order.

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
            logs = [next((r for r in range(exponent + 1) if p**r == c), None) for c in counts]
            if None in logs:
                return None
            ranks = [b - a for a, b in zip(logs, logs[1:])] + [0]
            for k in range(1, exponent + 1):
                factors += [p**k] * (ranks[k - 1] - ranks[k])
        p += 1
    # a product other than |F| means the representatives are not a group
    return tuple(sorted(factors, reverse=True)) if math.prod(factors) == m else None


def classify_holonomy(group: BieberbachGroup) -> HolonomyClass:
    """Classify F: elementary abelian 2-groups by rank, other abelian groups
    by their primary cyclic factors, read off the element orders.  F is
    abelian iff the generators commute (the representatives serve if there
    are none): g(g-1) products, plus O(|F| log |F|) for the orders."""
    parts = group.linear_parts()
    m = len(parts)
    orders = [b.order() for b in parts]
    gens = tuple(g.linear for g in group.generators) or parts
    abelian = all(a.compose(b) == b.compose(a) for a, b in itertools.combinations(gens, 2))
    if abelian and all(o <= 2 for o in orders):
        rank = m.bit_length() - 1
        if 2**rank == m:
            if rank == 0:
                description = "trivial"
            elif rank == 1:
                description = "Z2"
            else:
                description = f"Z2^{rank}"
            return HolonomyClass(m, True, rank, description)
    factors = _primary_factors(orders) if abelian else None
    if factors is not None:
        return HolonomyClass(m, True, None, " x ".join(f"Z{d}" for d in factors))
    kind = "abelian" if abelian else "nonabelian"
    return HolonomyClass(m, abelian, None, f"{kind} of order {m}")


def is_diagonal_type(group: BieberbachGroup) -> bool:
    """All linear parts diagonal sign matrices and all translations in (1/2)Z^n."""
    return all(e.linear.is_diagonal() for e in group.holonomy) and all(
        q % 2 == 0 for e in group.holonomy for q in e.translation
    )


def is_orientable(group: BieberbachGroup) -> bool:
    return all(e.linear.det() == 1 for e in group.holonomy)


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
    """Re-verify closure and cocycle consistency, then check torsion-freeness
    and report the structural classification, in O(|F| * g) for g generators
    (see HOLONOMY_CAP for the time at the cap).

    Walking breadth-first from the identity, rep(a) * g must have a stored
    representative with the same translation mod Z^n, and every one must be
    reached.  Each is then a word in the generators, so the pairwise
    rep(a) * rep(b) = rep(ab) follows by induction on the length of b.  With
    no generators the representatives generate: the pairwise check itself.
    """
    by_linear = {e.linear: e for e in group.holonomy}
    closure = True
    cocycle = True
    detail = None
    identity = IsometryElement.identity(group.dim)
    if by_linear.get(identity.linear) != identity:
        cocycle = False
        detail = "identity coset missing or carries a nonzero translation"
    reached = {identity.linear}
    queue = deque([identity])
    while queue:
        a = queue.popleft()
        for g in group.generators or group.holonomy:
            prod = a.compose(g)
            known = by_linear.get(prod.linear)
            if known is None:
                closure = False
                detail = detail or f"product {a}*{g} leaves the representative set"
                continue
            if known.translation != prod.translation:
                cocycle = False
                detail = detail or (
                    f"product {a}*{g} demands translation "
                    f"{quarters_as_rationals(prod.translation)} for {prod.linear}, "
                    f"stored {quarters_as_rationals(known.translation)}"
                )
            if prod.linear not in reached:
                reached.add(prod.linear)
                queue.append(known)
    for rep in group.holonomy:
        if rep.linear not in reached:
            closure = False
            detail = detail or f"representative {rep} is not reached from the generators"
        elif by_linear[rep.linear] != rep:
            cocycle = False
            detail = detail or f"linear part {rep.linear} has two representatives"
    witness = torsion_witness(group) if closure and cocycle else None
    torsion_free = closure and cocycle and witness is None
    if witness is not None:
        detail = detail or f"coset of {witness} contains an element of finite order"
    cls = classify_holonomy(group)
    return ValidationReport(
        dim=group.dim,
        name=group.name,
        closure=closure,
        cocycle=cocycle,
        torsion_free=torsion_free,
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
    except (HolonomyExpansionError, ValueError) as exc:
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

