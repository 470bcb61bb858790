"""The three-blowup calculus: hexagon of exceptional spheres, rotation
numbers, torus kernels, and the imprimitive monomial groups.

With three blowups the six exceptional classes form a hexagon: consecutive
classes pair to 1 and the rest to 0.  The cyclic edge order is forced by
those intersection numbers; the orientation is fixed so that H-E1-E3 comes
immediately before E1 and H-E1-E2 immediately after.  A finite map acting
trivially on the lattice is pinned down by its pair of rotation weights at
the first vertex (the corner of H-E1-E3 and E1); the weights at the other
five vertices follow by propagation around the hexagon.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Optional, Tuple

from .errors import InvariantViolation, LatticeError, LimitExceeded
from .lattice import CohClass, pairing


def _coh(*coords) -> CohClass:
    return CohClass(tuple(coords))


HEX_EDGES: Tuple[CohClass, ...] = (
    _coh(0, 1, 0, 0),    # E1
    _coh(1, -1, -1, 0),  # H - E1 - E2
    _coh(0, 0, 1, 0),    # E2
    _coh(1, 0, -1, -1),  # H - E2 - E3
    _coh(0, 0, 0, 1),    # E3
    _coh(1, -1, 0, -1),  # H - E1 - E3
)


@dataclass(frozen=True)
class HexagonModel:
    """The cyclic configuration of the six exceptional classes, N = 3.

    ``first_vertex`` is the intersection of the last and first edges
    (H - E1 - E3 and E1); vertices are numbered from it counter-clockwise.
    """

    edges: tuple = HEX_EDGES

    def __post_init__(self):
        edges = tuple(self.edges)
        if len(edges) != 6:
            raise LatticeError("a hexagon has six edges")
        for i, e in enumerate(edges):
            for j in range(i + 1, 6):
                want = 1 if (j - i == 1 or (i, j) == (0, 5)) else 0
                if pairing(e, edges[j]) != want:
                    raise LatticeError(
                        f"edges {i} and {j} pair to {pairing(e, edges[j])},"
                        f" expected {want}")
        object.__setattr__(self, "edges", edges)

    @property
    def first_vertex(self) -> tuple:
        return (self.edges[5], self.edges[0])


def propagate_rotation(pair) -> list:
    """Rotation pairs at the six vertices from the pair at the first vertex.

    Works with any exact ring elements (integers or Fractions); no modular
    reduction is applied here.
    """
    a, b = pair
    return [(a, b), (a + b, -a), (b, -a - b), (-a, -b), (-a - b, a), (-b, a + b)]


def other_fixed_point(pair):
    """Weights (-a, a+b) at the second fixed point on the same sphere."""
    a, b = pair
    if a == 0:
        raise LatticeError(
            "tangentially trivial weight: the sphere is fixed, there is no"
            " second isolated fixed point")
    return (-a, a + b)


def reduce_pair(pair, n: int) -> tuple:
    return (pair[0] % n, pair[1] % n)


# ---------------------------------------------------------------------------
# Torus elements: the subgroup acting trivially on the lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorusElement:
    """Element of the two-torus of order dividing ``modulus`` = n.

    Recorded by its rotation numbers (a, b) at the first vertex, residues
    mod n: the angles (a/n, b/n) in Q/Z, so composition adds residues.
    """

    a: int
    b: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise LatticeError("order must be positive")
        object.__setattr__(self, "a", self.a % self.modulus)
        object.__setattr__(self, "b", self.b % self.modulus)

    @classmethod
    def identity(cls, n: int) -> "TorusElement":
        return cls(0, 0, n)

    @property
    def order(self) -> int:
        return self.modulus // gcd(self.a, self.b, self.modulus)

    def rotation_numbers(self, n: Optional[int] = None) -> tuple:
        """The rotation numbers mod n, of an element whose order divides n
        (by default its order)."""
        n = self.order if n is None else n
        m = self.modulus
        if (self.a * n) % m or (self.b * n) % m:
            raise LatticeError(f"element order does not divide {n}")
        return (self.a * n // m % n, self.b * n // m % n)

    def __mul__(self, other: "TorusElement") -> "TorusElement":
        if self.modulus != other.modulus:
            raise LatticeError("modulus mismatch")
        return TorusElement(self.a + other.a, self.b + other.b, self.modulus)

    def inverse(self) -> "TorusElement":
        return TorusElement(-self.a, -self.b, self.modulus)

    def __pow__(self, k: int) -> "TorusElement":
        return TorusElement(k * self.a, k * self.b, self.modulus)

    def is_identity(self) -> bool:
        return self.a == 0 and self.b == 0

    def vertex_weights(self) -> list:
        return [reduce_pair(p, self.modulus)
                for p in propagate_rotation((self.a, self.b))]

    def conjugate_by_rotation(self, steps: int = 1) -> "TorusElement":
        """Conjugation by the 60-degree hexagon rotation, ``steps`` times.

        Rotating the hexagon shifts the vertex weight list; the conjugate
        is anchored at whatever weights land on the first vertex.
        """
        return TorusElement(*self.vertex_weights()[(-steps) % 6], self.modulus)

    def sort_key(self):
        return (self.a, self.b)


def g3_conjugation_check(h: TorusElement) -> bool:
    """Conjugation by the 180-degree rotation inverts every torus element.

    Verified as stated: the vertex weight list rotated by three positions
    equals the vertex weight list of the inverse.
    """
    rotated = h.vertex_weights()
    rotated = rotated[3:] + rotated[:3]
    return rotated == h.inverse().vertex_weights()


def _solve_congruence(k: int, c: int, n: int) -> Optional[int]:
    """Least nonnegative v with k*v = c (mod n), or None."""
    g = gcd(k, n)
    if c % g:
        return None
    k2, c2, n2 = k // g, (c % n) // g, n // g
    return (c2 * pow(k2, -1, n2)) % n2 if n2 > 1 else 0


def build_gamma(n: int, k: int, b: int) -> tuple:
    """The torus kernel generated by weights (0, 1) of order n/k and (1, b).

    Requires k | n and b^2 + b + 1 = 0 (mod k).  The generator ht1 = (1, b)
    has order n and first residue 1, while h1 = (0, k) has order n/k and
    first residue 0, so the two cyclic groups meet only in the identity and
    the kernel is their direct sum, of order n^2/k, with residues mod n

        {(i, i*b + j*k mod n) : 0 <= i < n, 0 <= j < n/k}.

    For fixed i the second residues are r + j*k with r = i*b mod k, so
    listing i and then j ascending is already the sorted order.
    """
    if n < 1 or k < 1 or n % k:
        raise LatticeError(f"k = {k} must divide n = {n}")
    if (b * b + b + 1) % k:
        raise LatticeError(f"b^2 + b + 1 = {b*b+b+1} is not 0 mod k = {k}")
    return tuple(TorusElement(i, i * b % k + j * k, n)
                 for i in range(n) for j in range(n // k))


def gamma_generators(n: int, k: int, b: int) -> tuple:
    """The kernel generators h1 = (0, k) and ht1 = (1, b), mod n."""
    return TorusElement(0, k, n), TorusElement(1, b, n)


def g2_action_check(n: int, k: int, b: int) -> bool:
    """Verify the 120-degree conjugation relations on the kernel generators.

    With h1 = (0,1) of order n/k and ht1 = (1,b) of order n the relations

        g^2 h1 g^-2 = ht1^-k h1^b,    g^2 ht1 g^-2 = ht1^(-b-1) h1^v

    hold for the least v with k*v = b^2 + b + 1 (mod n); no valid v means
    the triple (n, k, b) is inconsistent.
    """
    if n < 1 or k < 1 or n % k:
        raise LatticeError(f"k = {k} must divide n = {n}")
    v = _solve_congruence(k, b * b + b + 1, n)
    if v is None:
        raise LatticeError(f"no v with {k}*v = b^2+b+1 mod {n}")
    h1, ht1 = gamma_generators(n, k, b)
    lhs1 = h1.conjugate_by_rotation(2)
    rhs1 = (ht1 ** (-k)) * (h1 ** b)
    lhs2 = ht1.conjugate_by_rotation(2)
    rhs2 = (ht1 ** (-b - 1)) * (h1 ** v)
    return lhs1 == rhs1 and lhs2 == rhs2


def involution_nontrivial_conjugation() -> bool:
    """The 60-degree rotation conjugates every involution nontrivially.

    Both involution weight types, (1,0) and (1,1) mod 2, are propagated
    around the hexagon; a one-step rotation of either list differs from
    the original modulo 2.
    """
    for a, b in ((1, 0), (1, 1)):
        lst = propagate_rotation((a, b))
        rotated = lst[-1:] + lst[:-1]
        same = all((x1 - x2) % 2 == 0 and (y1 - y2) % 2 == 0
                   for (x1, y1), (x2, y2) in zip(lst, rotated))
        if same:
            return False
    return True


# ---------------------------------------------------------------------------
# Monomial subgroups of the rank-3 projective linear group
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonomialGroupElement:
    """[mu^c0 z_sigma(0), mu^c1 z_sigma(1), mu^c2 z_sigma(2)] mod diagonal.

    Scalars are residues mod ``modulus`` canonicalized by subtracting c0,
    so the diagonal subgroup is killed and closure hashing is exact.
    """

    perm: tuple
    scalars: tuple
    modulus: int

    def __post_init__(self):
        if sorted(self.perm) != [0, 1, 2]:
            raise LatticeError("perm must be a permutation of (0, 1, 2)")
        if self.modulus < 1:
            raise LatticeError("modulus must be positive")
        c0 = self.scalars[0]
        canon = tuple((c - c0) % self.modulus for c in self.scalars)
        object.__setattr__(self, "scalars", canon)
        object.__setattr__(self, "perm", tuple(self.perm))

    @classmethod
    def identity(cls, n: int) -> "MonomialGroupElement":
        return cls((0, 1, 2), (0, 0, 0), n)

    @classmethod
    def scalar(cls, n: int, c0: int, c1: int, c2: int) -> "MonomialGroupElement":
        return cls((0, 1, 2), (c0, c1, c2), n)

    def __mul__(self, other: "MonomialGroupElement") -> "MonomialGroupElement":
        """self applied after other."""
        if self.modulus != other.modulus:
            raise LatticeError("modulus mismatch")
        perm = tuple(other.perm[self.perm[i]] for i in range(3))
        scal = tuple(self.scalars[i] + other.scalars[self.perm[i]]
                     for i in range(3))
        return MonomialGroupElement(perm, scal, self.modulus)

    def inverse(self) -> "MonomialGroupElement":
        inv = [0, 0, 0]
        for i, p in enumerate(self.perm):
            inv[p] = i
        scal = tuple(-self.scalars[inv[i]] for i in range(3))
        return MonomialGroupElement(tuple(inv), scal, self.modulus)

    def __pow__(self, k: int) -> "MonomialGroupElement":
        if k < 0:
            return self.inverse() ** (-k)
        acc = MonomialGroupElement.identity(self.modulus)
        for _ in range(k):
            acc = acc * self
        return acc

    def is_identity(self) -> bool:
        return self.perm == (0, 1, 2) and self.scalars == (0, 0, 0)

    def sort_key(self):
        return (self.perm, self.scalars)


CYCLE = (2, 0, 1)        # [z2, z0, z1]
SWAP_12 = (0, 2, 1)      # [z0, z2, z1]
SWAP_01 = (1, 0, 2)      # [z1, z0, z2]

KIND_GN = "Gn"
KIND_GTN = "Gtn"
KIND_GNKS = "Gnks"
KIND_GTN32 = "Gtn32"

# The complement P each kind's permutation generators generate, sorted.
# CYCLE alone generates C3 (Gn, Gnks).  A subgroup of S3 holding a 3-cycle
# and a transposition (Gtn) has order divisible by 6, so it is S3; so is
# one holding two distinct transpositions (Gtn32), whose product is a
# 3-cycle.
_C3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
_S3 = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
_COMPLEMENT = {KIND_GN: _C3, KIND_GTN: _S3, KIND_GNKS: _C3, KIND_GTN32: _S3}


@dataclass(frozen=True)
class MonomialGroup:
    kind: str
    n: int
    k: int
    s: int
    generators: tuple
    elements: tuple

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _imprimitive_generators(kind: str, n: int, k: Optional[int], s: Optional[int]):
    if n < 1:
        raise LatticeError("n must be positive")
    if kind in (KIND_GN, KIND_GTN, KIND_GTN32) and (k, s) != (None, None):
        raise LatticeError(
            f"k and s are Gnks parameters; kind {kind} fixes them")
    if kind == KIND_GN:
        return (MonomialGroupElement.scalar(n, 1, 0, 0),
                MonomialGroupElement.scalar(n, 0, 1, 0),
                MonomialGroupElement(CYCLE, (0, 0, 0), n)), 3 * n * n, 1, 0
    if kind == KIND_GTN:
        return (MonomialGroupElement.scalar(n, 1, 0, 0),
                MonomialGroupElement.scalar(n, 0, 1, 0),
                MonomialGroupElement(SWAP_12, (0, 0, 0), n),
                MonomialGroupElement(CYCLE, (0, 0, 0), n)), 6 * n * n, 1, 0
    if kind == KIND_GNKS:
        if k is None or s is None:
            raise LatticeError("kind Gnks needs k and s")
        if k <= 1 or n % k:
            raise LatticeError(f"need k > 1 dividing n, got k = {k}, n = {n}")
        if (s * s - s + 1) % k:
            raise LatticeError(f"s^2 - s + 1 = {s*s-s+1} is not 0 mod k = {k}")
        return (MonomialGroupElement.scalar(n, k, 0, 0),
                MonomialGroupElement.scalar(n, s, 1, 0),
                MonomialGroupElement(CYCLE, (0, 0, 0), n)), 3 * n * n // k, k, s
    if kind == KIND_GTN32:
        if n % 3:
            raise LatticeError(f"kind Gtn32 needs 3 | n, got n = {n}")
        return (MonomialGroupElement.scalar(n, 3, 0, 0),
                MonomialGroupElement.scalar(n, 2, 1, 0),
                MonomialGroupElement(SWAP_12, (0, 0, 0), n),
                MonomialGroupElement(SWAP_01, (0, 0, 0), n)), 2 * n * n, 3, 2
    raise LatticeError(f"unknown kind {kind!r}")


DEFAULT_LIMIT = 100_000


def make_imprimitive(kind: str, n: int, k: Optional[int] = None,
                     s: Optional[int] = None,
                     limit: int = DEFAULT_LIMIT) -> MonomialGroup:
    """The group of the listed generators, built as T x| P, sorted.

    The permutation generators carry zero scalars, so they generate a
    complement P (C3 or S3, as ``_COMPLEMENT`` proves).  Conjugation by a
    permutation permutes the scalars, so the diagonal part T is the
    subgroup of (Z/n)^3/diagonal generated by the P-permuted scalar
    generators; it is normal, meets P trivially, and every element is
    uniquely t * p, so the order is |T| * |P| (3n^2, 6n^2, 3n^2/k, 2n^2
    by kind).  T grows by coset extension: for each generator v with m
    least such that m*v is in T, T + {0, ..., m-1}*v is a subgroup m
    times larger, with no repeats.

    Raises LimitExceeded, before building anything, when that order
    exceeds ``limit``.
    """
    gens, expected, k_eff, s_eff = _imprimitive_generators(kind, n, k, s)
    if expected > limit:
        raise LimitExceeded(f"{kind} at n = {n} has order {expected}, above"
                            f" the limit of {limit} (gsurf hexagon --limit)")
    perms = _COMPLEMENT[kind]
    torus = [(0, 0)]
    for c, p in itertools.product((g.scalars for g in gens if g.perm == (0, 1, 2)),
                                  perms):
        v = ((c[p[1]] - c[p[0]]) % n, (c[p[2]] - c[p[0]]) % n)
        members, coset = set(torus), torus
        while True:
            coset = [((x + v[0]) % n, (y + v[1]) % n) for x, y in coset]
            if coset[0] in members:
                break
            torus += coset
    order = len(perms) * len(torus)
    if order != expected:  # pragma: no cover
        raise InvariantViolation(
            f"{kind} closure has order {order}, expected {expected}")
    torus.sort()
    elements = tuple(MonomialGroupElement(p, (0,) + t, n)
                     for p in perms for t in torus)
    return MonomialGroup(kind, n, k_eff, s_eff, gens, elements)


def presentation_check(n: int, k: int, s: int) -> bool:
    """Verify the 120-degree conjugation relations on t1, t2 by exact
    multiplication in the monomial group.

    t1 = [mu_(n/k) z0, z1, z2], t2 = [mu_n^s z0, mu_n z1, z2] and the cycle
    g^2 satisfy g^2 t1 g^-2 = t2^k t1^-s and g^2 t2 g^-2 = t2^(s-1) t1^-v,
    where k*v = s^2 - s + 1 (mod n).
    """
    if n < 1 or k < 1 or n % k:
        raise LatticeError(f"k = {k} must divide n = {n}")
    v = _solve_congruence(k, s * s - s + 1, n)
    if v is None:
        raise LatticeError(f"no v with {k}*v = s^2-s+1 mod {n}")
    t1 = MonomialGroupElement.scalar(n, k, 0, 0)
    t2 = MonomialGroupElement.scalar(n, s, 1, 0)
    g2 = MonomialGroupElement(CYCLE, (0, 0, 0), n)
    g2i = g2.inverse()
    rel1 = (g2 * t1 * g2i) == (t2 ** k) * (t1 ** (-s))
    rel2 = (g2 * t2 * g2i) == (t2 ** (s - 1)) * (t1 ** (-v))
    return rel1 and rel2


# ---------------------------------------------------------------------------
# Transitive subgroups of the hexagon symmetry group
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HexagonSubgroup:
    order: int
    cyclic: bool
    vertex_perms: tuple


def transitive_hexagon_subgroups() -> tuple:
    """Subgroups of the full hexagon symmetry group acting transitively.

    Transitive on the hexagon means transitive on the six edges and on the
    six vertices: the configuration consists of the spheres and their
    intersection points, and a symmetry permutes both.  Exactly two
    subgroups qualify: the rotations (cyclic, order 6) and the full group
    of order 12.  A transitive group has order divisible by 6.  A group of
    order 6 is transitive on six points only if no element but the
    identity fixes one; of the three order-6 subgroups, the S3 of the
    third-turns and the reflections through vertices fixes a vertex, and
    the S3 of the third-turns and the reflections through edge midpoints
    fixes an edge.  Vertex i maps to vertex r + i under a rotation and to
    c - i under a reflection; each group is listed sorted.
    """
    rotations = tuple(tuple((i + r) % 6 for i in range(6)) for r in range(6))
    reflections = tuple(tuple((c - i) % 6 for i in range(6)) for c in range(6))
    return (HexagonSubgroup(6, True, rotations),
            HexagonSubgroup(12, False, tuple(sorted(rotations + reflections))))
