"""Root systems, Weyl groups as lattice isometry groups, invariant lattices.

The orthogonal complement of the canonical class K in the degree-2 lattice
is a root lattice (A2+A1, A4, D5, E6, E7, E8 for N = 3..8); its roots are
the integer classes with r.r = -2 and K.r = 0.  Finite isometry groups are
handled with one stabilizer chain on the orbits of the basis classes,
built by ``generate_group``.  The order is read off the chain; the sorted
elements and their traces are read off its transversals only when asked
for, so the order alone is feasible for the largest Weyl group.  The
chain holds each permutation of at most 256 points as a 256-byte table,
composed by ``bytes.translate``, and a larger one as a tuple; the order
and ``group_sum`` run on Python ints.  numpy is imported only by the
``listing`` module, which builds the arrays behind ``element_array()``,
iteration and ``trace_vector()``; ``gsurf weyl``, ``invariants`` and
``conic``, which list no group, load neither.
"""

from __future__ import annotations

import struct
from functools import cached_property, lru_cache, reduce
from itertools import chain, combinations, compress, cycle, permutations
from math import isqrt, prod
from operator import itemgetter, matmul, mul
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

from .errors import InvariantViolation, LatticeError, LimitExceeded
from .lattice import (CohClass, Isometry, canonical_class, pairing,
                      reflection, unit)

if TYPE_CHECKING:
    import numpy as np

ROOT_SYSTEM_TYPES = {3: "A2+A1", 4: "A4", 5: "D5", 6: "E6", 7: "E7", 8: "E8"}


def root_system_type(n: int) -> str:
    if n not in ROOT_SYSTEM_TYPES:
        raise LatticeError(f"root system defined for 3 <= N <= 8, got {n}")
    return ROOT_SYSTEM_TYPES[n]


def simple_roots(n: int) -> Tuple[CohClass, ...]:
    """H - E1 - E2 - E3 followed by Ei - E(i+1) for i < N."""
    root_system_type(n)
    first = CohClass((1, -1, -1, -1) + (0,) * (n - 3))
    return (first,) + tuple(unit(n, i) - unit(n, i + 1) for i in range(1, n))


@lru_cache(maxsize=None)
def all_roots(n: int) -> Tuple[CohClass, ...]:
    """All integer r with r.r = -2 and K.r = 0, sorted by coordinates.

    In closed form (Dolgachev, *Classical Algebraic Geometry*, 2012,
    section 8.2): the roots are E_i - E_j for i != j, +-(H - E_i - E_j -
    E_k), +-(2H minus six of the E's) for N >= 6, and +-(3H - 2E_i minus
    the other seven E's) for N = 8; 8, 20, 40, 72, 126 and 240 of them for
    N = 3..8.
    """
    root_system_type(n)
    coords = []
    for i, j in permutations(range(1, n + 1), 2):
        c = [0] * (n + 1)
        c[i], c[j] = 1, -1
        coords.append(c)
    # aH minus `size` of the E's; combinations() yields none when size > N
    for a, size in ((1, 3), (2, 6)):
        for chosen in combinations(range(1, n + 1), size):
            c = [a] + [0] * n
            for i in chosen:
                c[i] = -1
            coords += [c, [-x for x in c]]
    if n == 8:
        for i in range(1, 9):
            c = [3] + [-1] * 8
            c[i] = -2
            coords += [c, [-x for x in c]]
    coords.sort()
    # trusted: N + 1 >= 4 coordinates, each an int literal or its negative
    return tuple(CohClass._trusted(tuple(c)) for c in coords)


@lru_cache(maxsize=None)
def simple_reflections(n: int) -> Tuple[Isometry, ...]:
    """Reflections in the simple roots; cached, as isometries are immutable."""
    return tuple(reflection(a) for a in simple_roots(n))


# ---------------------------------------------------------------------------
# Finite isometry groups
# ---------------------------------------------------------------------------

class FiniteIsometryGroup:
    """A finite group of lattice isometries, held as its stabilizer chain.

    Only ``generate_group`` builds one; calling the class raises, and an
    instance is immutable and safe to share.  ``order`` is the product of
    the transversal sizes.  The first ``element_array()``, iteration or
    ``trace_vector()`` reads the elements' order and traces off the chain
    (see ``listing``) and caches them; the elements themselves, an
    (order, dim, dim) integer array in lexicographic row-major order, so
    reports are reproducible, are built and cached on the first
    ``element_array()`` or iteration.  ``trace_vector()`` builds no
    matrix.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("a FiniteIsometryGroup is built only by generate_group")

    @classmethod
    def _sealed(cls, gens: tuple, order: int, listing: tuple, orbit: list):
        """``listing`` holds the arguments of ``listing.sorted_rows`` after
        the dimension; ``orbit`` labels each point with its orbit."""
        group = object.__new__(cls)
        group.__dict__.update(generators=gens, order=order, _listing=listing,
                              _orbit=orbit)
        return group

    def __setattr__(self, name, value):
        raise AttributeError("a FiniteIsometryGroup is immutable")

    @property
    def n(self) -> int:
        return self.generators[0].n

    def __len__(self) -> int:
        return self.order

    @cached_property
    def _rows(self):
        from .listing import sorted_rows
        return sorted_rows(self.n + 1, *self._listing)

    @cached_property
    def _elements(self) -> np.ndarray:
        from .listing import elements
        return elements(self._rows)

    @cached_property
    def _invariant_lattice(self) -> tuple:
        return _fixed_sublattice(self.generators)

    @property
    def _moves_k(self) -> bool:
        return self._listing[2]

    def element_array(self) -> np.ndarray:
        return self._elements

    def __iter__(self):
        """Trusted: each element is a product of the generating isometries."""
        for mat in self.element_array():
            yield Isometry._trusted(tuple(map(tuple, mat.tolist())))

    def trace_vector(self) -> np.ndarray:
        """Trace of every element on the full degree-2 lattice, in element
        order, as int64."""
        return self._rows.trace.copy()

    def group_sum(self) -> Tuple[Tuple[int, ...], ...]:
        """R, the sum of the matrices of all elements, read off the orbits.

        Column j >= 1 of R is the sum over g of g(E_j).  g -> g(E_j) maps
        G onto the orbit O of E_j, and each point of O is the image of
        |G|/|O| elements, a coset of E_j's stabilizer, so column j is
        |G|/|O| times the sum of O's points.  Column 0, R H, is read the
        same way from H's orbit when K moves.  Otherwise every element
        fixes K, and as H = (E1 + ... + EN - K)/3, column 0 is (the sum of
        the other columns - |G| K)/3.  All of it is in Python ints.

        Raises LimitExceeded when an element of one of the chain's
        transversals (see ``generate_group``) has an image of H with an
        entry above 32767 in absolute value.  When K moves, that image is
        a point, so in range.  Otherwise it is (sum of N points - K)/3,
        whose entries are at most (N m + 3)/3 in absolute value, m being
        the largest point entry; so each element is checked only when
        N m + 3 > 3 * 32767.

        R is |G| times the projector onto the invariant subspace V^G:
        g R = R g = R for every g in G, as left or right multiplication
        by g permutes the elements.  So R (g - I) = 0, R's image lies in
        V^G, and R v = |G| v for v in V^G; hence R/|G| is an idempotent
        onto V^G and tr R = |G| * rank V^G.
        """
        transversals, points, moves_k, largest = self._listing
        n = self.n
        dim = n + 1
        pts = list(struct.iter_unpack(f"<{dim}q", points))
        k = (-3,) + (1,) * n
        if not moves_k and n * largest + 3 > 3 * _MAX_ENTRY:
            for trans in transversals:
                for u in _images(trans, n):
                    h = map(sum, zip(*map(pts.__getitem__, u)))
                    if any(abs(v - c) > 3 * _MAX_ENTRY for v, c in zip(h, k)):
                        raise LimitExceeded(_RANGE_MESSAGE)
        orbits = {}
        for label, p in zip(self._orbit, pts):
            orbits.setdefault(label, []).append(p)
        sums = {label: [self.order // len(ps) * v for v in map(sum, zip(*ps))]
                for label, ps in orbits.items()}
        # the seeds E1..EN, then H if K moves, are the first points
        cols = [sums[label] for label in self._orbit[:dim if moves_k else n]]
        if moves_k:
            col0 = cols.pop()
        else:
            col0 = [v - self.order * c for v, c in zip(map(sum, zip(*cols)), k)]
            if any(v % 3 for v in col0):  # pragma: no cover - K is fixed
                raise InvariantViolation("image of H is not integral")
            col0 = [v // 3 for v in col0]
        return tuple(zip(col0, *cols))


# Entries are stored in int16 at most.
_MAX_ENTRY = 32767
_RANGE_MESSAGE = "matrix entries exceeded supported range"
# Orbit points at which a group that may be infinite is tested for an
# element of infinite order (see ``generate_group``).  Growing the orbits to
# here takes about as long as the test's worst case, 5-20 ms at N = 9..12,
# and a group whose search ends sooner never pays for the test.
_CERTIFY_AT = 1024
# B(d), the largest finite order of an element of GL(d, Z), for d <= 21.
# An element of order m exists exactly when the sum of phi(p^a) over the
# prime powers p^a exactly dividing m, less 1 when m = 2 mod 4, is at most
# d (Kuzmanovich and Pavlichenkov, Amer. Math. Monthly, 2002).
_MAX_FINITE_ORDER = (1, 2, 6, 6, 12, 12, 30, 30, 60, 60, 120, 120, 210, 210,
                     420, 420, 840, 840, 1260, 1260, 2520, 2520)


def generate_group(gens: Sequence[Isometry],
                   limit: Optional[int] = 10_000_000) -> FiniteIsometryGroup:
    """The group generated by ``gens``, held as its stabilizer chain.

    Raises LimitExceeded when the group has more than ``limit`` elements
    (None sets no limit) and when a point has an entry above 32767 in
    absolute value.  Listing the elements, sorted row-major, raises it
    when an element's image of H has such an entry.

    *Points.*  The group acts on the union of the orbits of E1..EN, with
    the orbit of H added when some generator moves K.  E1..EN and K span
    the rational space and H = (E1 + ... + EN - K)/3, so an isometry is
    determined by its action on these points: the action is faithful.
    The orbits are grown breadth-first with the seeds first, so point j-1
    is E_j.  An orbit longer than ``limit`` proves |G| > limit.  Once the
    orbits hold 1024 points, a group that may be infinite (N >= 9, or
    some generator moves K) is tested for an element of infinite order: a
    generator or the product of all of them, in order, with no power up
    to the largest finite order in GL(N + 1, Z) equal to I (for N <= 20).
    The group is then refused with the same message, as it exceeds every
    limit.  For reflections the product is a Coxeter element, which has
    infinite order in every infinite irreducible Coxeter group (Howlett
    1982), so the affine E8 and the E10 reflections end at once.

    *Factorization.*  ``StabilizerChain`` gives a base b1..bk and
    transversals U1..Uk, Ui holding one element per point of bi's orbit
    under the stabilizer of b1..b(i-1).  Every element is uniquely
    u1 ... uk with ui in Ui (Sims 1970), so |G| = |U1| ... |Uk| and
    multiplying the transversals out lists each element once.

    *Rows.*  The transversals are multiplied out as permutations,
    keeping only the images of the seeds.  Each product h is listed as
    h^-1 = Q h^T Q, Q = diag(1, -1, ..., -1): row j >= 1 of it is -Q times
    the point h sends E_j to, and row 0 is Q h(H), read from H's orbit when
    H is a point, otherwise as (sum of the seeds' images - K)/3, K being
    fixed.  ``listing.sorted_rows`` orders the elements and reads their
    traces off these images; every point is in range already, so only
    row 0 is checked.
    """
    gens = tuple(gens)
    chain, pts, orbit, moves_k, largest = _basis_chain(gens, limit)
    return FiniteIsometryGroup._sealed(
        gens, chain.order(), (chain.transversals, pts, moves_k, largest), orbit)


def group_order_via_chain(gens: Sequence[Isometry]) -> int:
    """Order of the group ``gens`` generate, from ``generate_group``'s chain.

    Defined for 3 <= N <= 8 and generators fixing K.  K's orthogonal
    complement is then negative definite, so the group is finite and the
    chain runs with no limit: W(E8) has 696,729,600 elements, above
    ``generate_group``'s default limit.  K is checked first, with integer
    row sums, so a generator moving it is refused before any orbit grows.
    """
    if gens:
        root_system_type(gens[0].n)
        k = [-3] + [1] * gens[0].n  # row . K = sum(row) - 4 row[0]
        for g in gens:
            if g.dim != len(k):
                raise LatticeError("dimension mismatch")
            if [sum(row) - 4 * row[0] for row in g.mat] != k:
                raise LatticeError("generators must fix the canonical class")
    return generate_group(gens, None).order


def _basis_chain(gens: Sequence[Isometry], limit: Optional[int]):
    """``generate_group``'s chain, its points, their orbit labels, whether
    K moves, and the largest point entry in absolute value.

    ``limit`` None bounds neither the orbits nor the order.
    """
    if not gens:
        raise LatticeError("at least one generator required")
    dim = gens[0].dim
    if any(g.dim != dim for g in gens):
        raise LatticeError("generators act on different lattices")
    rows = [row for g in gens for row in g.mat]
    if max(max(map(max, rows)), -min(map(min, rows))) > _MAX_ENTRY:
        raise LimitExceeded(_RANGE_MESSAGE)
    pts, orbit, perms, moves_k, largest = _orbits([g.mat for g in gens], limit)
    chain = StabilizerChain(len(orbit), limit,
                            seeds=dim if moves_k else dim - 1)
    chain.add_all(perms)
    return chain, pts, orbit, moves_k, largest


def _orbits(mats: Sequence[Sequence[Sequence[int]]], limit: Optional[int]):
    """Orbits of the seeds: their points' keys joined in index order,
    each point's orbit label, each matrix's permutation of the points,
    whether some matrix moves K, and the largest point entry in absolute
    value.  Once there are ``_CERTIFY_AT`` points, matrices that may
    generate an infinite group go through ``_refuse_infinite_order``.

    The seeds are E1..EN, then H when some matrix moves K; they keep
    indices 0.. in order.  Breadth-first over all orbits at once, one
    layer at a time and, within it, one matrix at a time.  Every matrix
    entry must be at most 32767 in absolute value.  A point's orbit label
    is the index of a seed in that orbit.  Once a matrix has mapped a layer,
    its images that are not points yet are checked against 32767, then
    recorded, and then the orbit sizes are checked against ``limit``.
    While no orbit can pass ``limit`` in a layer, all the matrices' images
    of it are checked and recorded at once, in the same order, so the
    points, permutations and errors are the same.

    *Keys.*  A point is keyed by its entries as little-endian signed
    64-bit words.  Write E(v) = sum of v_i 2^(64 i).  E is linear, so
    with A_j = sum over the matrices M_g of E(column j of M_g)
    2^(64 dim g), the int sum of p_j A_j is sum over g of E(M_g p)
    2^(64 dim g): one product per nonzero coordinate gives the images of
    p under every matrix.  Adding B, the sum of 2^(64 i + 63), turns
    every word into its entry plus 2^63; XOR-ing B back gives each word's
    two's complement, so slicing the bytes gives each image's key.  This
    is exact.  Every matrix entry and every point entry is at most 32767
    in absolute value, so every entry of M_g p is below dim * 32767^2 <
    2^63, and its word holds it with no carry into the next.  So distinct
    images get distinct keys, and an image whose key is a point's key is
    that point.  K's images, the sum of the A_j less 4 A_0, are read the
    same way, as K's entries are at most 3.
    """
    dim, count = len(mats[0]), len(mats)
    width = 8 * dim
    bias = int.from_bytes((bytes(7) + b"\x80") * (dim * count), "little")
    entries = memoryview(struct.pack(
        f"<{dim * dim * count}q",
        *chain.from_iterable(chain.from_iterable(mats)))).cast("q")
    # the cast only moves 8-byte words: word g * dim + i of A_j is entry
    # (i, j) of matrix g
    columns = [(int.from_bytes(entries[j::dim].tobytes(), "little") ^ bias)
               - bias for j in range(dim)]

    def image_keys(total: int) -> bytes:
        return ((total + bias) ^ bias).to_bytes(width * count, "little")

    # K = -3 H + E1 + ... + EN
    moves_k = image_keys(sum(columns) - 4 * columns[0]) != \
        struct.pack(f"<{dim * count}q", *((-3,) + (1,) * (dim - 1)) * count)
    # E1..EN, then H if K moves; E_j's images are the columns j
    order = (*range(1, dim), 0)[:dim if moves_k else dim - 1]
    index = {(1 << 64 * j).to_bytes(width, "little"): i
             for i, j in enumerate(order)}
    unpack = struct.Struct(f"<{dim}q").unpack
    points = list(map(unpack, index))
    largest = 1
    orbit = list(range(len(points)))
    size = [1] * len(points)
    perms: List[List[int]] = [[] for _ in mats]
    offsets = range(0, width * count, width)
    totals = [columns[j] for j in order]
    # With K fixed and N <= 8, K.K = 9 - N > 0 leaves a negative definite
    # complement and the group is finite; otherwise it may be infinite.
    certify = (moves_k or dim >= 10) and dim < len(_MAX_FINITE_ORDER)
    lo = 0
    while lo < len(points):
        if certify and len(points) >= _CERTIFY_AT:
            certify = False
            _refuse_infinite_order(mats, limit)
        hi = len(points)
        raw = list(map(image_keys, totals))
        # the layer adds at most count * (hi - lo) points; while that keeps
        # every orbit within ``limit``, all matrices' images are one step
        if limit is None or hi + count * (hi - lo) <= limit:
            steps = [list(zip(offsets, perms))]
        else:
            steps = [[pair] for pair in zip(offsets, perms)]
        for step in steps:
            keys = [r[at:at + width] for at, _ in step for r in raw]
            js = list(map(index.get, keys))
            if None in js:
                # each new point, at its first position among the images
                first = {}
                for at in [at for at, j in enumerate(js) if j is None]:
                    first.setdefault(keys[at], at)
                new = list(first)
                found = list(map(unpack, new))
                top = max(max(map(max, found)), -min(map(min, found)))
                if top > _MAX_ENTRY:
                    raise LimitExceeded(_RANGE_MESSAGE)
                largest = max(largest, top)
                index.update(zip(new, range(len(points),
                                            len(points) + len(new))))
                points += found
                labels = [orbit[lo + at % (hi - lo)]
                          for at in first.values()]
                orbit += labels
                for label in labels:
                    size[label] += 1
                js = list(map(index.__getitem__, keys))
            for (_, perm), at in zip(step, range(0, len(js), hi - lo)):
                perm += js[at:at + hi - lo]
            if list(map(orbit.__getitem__, js)) != orbit[lo:hi] * len(step):
                for src, j in zip(cycle(range(lo, hi)), js):
                    here, gone = orbit[src], orbit[j]
                    if here != gone:
                        orbit = [here if o == gone else o for o in orbit]
                        size[here] += size[gone]
            # a merged orbit's stale size is below its new one's
            if limit is not None and max(size) > limit:
                raise LimitExceeded(f"group closure exceeded limit {limit}")
        lo = hi
        totals = [sum(map(mul, filter(None, p), compress(columns, p)))
                  for p in points[lo:]]
    return b"".join(index), orbit, list(map(tuple, perms)), moves_k, largest


def _refuse_infinite_order(mats, limit: Optional[int]) -> None:
    """Raise LimitExceeded when a matrix, or the product of all of them in
    order, has no power up to B(dim) = ``_MAX_FINITE_ORDER[dim]`` equal
    to I: that element has infinite order, so the group is infinite and
    exceeds every limit.
    """
    # trusted: ``generate_group`` passes its generators' own matrices
    gens = [Isometry._trusted(m) for m in mats]
    bound = _MAX_FINITE_ORDER[len(mats[0])]
    for g in (*gens, reduce(matmul, gens)):
        power = g
        for _ in range(bound):
            if power.is_identity():
                break
            power = power @ g
        else:
            raise LimitExceeded(f"group closure exceeded limit {limit}")


def weyl_group(n: int, limit: Optional[int] = 10_000_000) -> FiniteIsometryGroup:
    return generate_group(simple_reflections(n), limit=limit)


# ---------------------------------------------------------------------------
# Schreier-Sims
# ---------------------------------------------------------------------------

# An action on at most this many points holds each permutation as a table
# of 256 bytes, the images followed by the identity on the unused bytes.
_TABLE_POINTS = 256
_TABLE_ID = bytes(range(_TABLE_POINTS))


def _pcompose(q: tuple, p: tuple) -> tuple:
    """Product acting as q first, then p, on tuples: ``bytes.translate``'s
    argument order.  q, a permutation or its images of the seeds, has
    length >= 2: a non-identity permutation moves two points, and the
    chain sifts at least two images."""
    return itemgetter(*q)(p)


def _pinv(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)


def _tinv(p: bytes) -> bytes:
    return bytes.maketrans(p, _TABLE_ID)


def _images(trans: dict, count: int) -> List[tuple]:
    """Each element of a chain's transversal as its images of the points
    0..count-1, in the transversal's order."""
    return [tuple(u[:count]) for u in trans.values()]


class StabilizerChain:
    """Deterministic Schreier-Sims over a faithful permutation action
    (Seress, *Permutation Group Algorithms*, 2003, ch. 4).

    ``add_all`` puts each generator, as later each residue, at the level of
    its first moved base point (or appends that point), then completes the
    levels once each, deepest first.  Level i acts by the generators of
    all levels >= i.  Points are only appended, so a level counts, per
    generator, the points whose Schreier generators it has sifted.  Every
    element is stored with its inverse, so sifting inverts nothing.

    *Permutations.*  On at most 256 points a permutation is a 256-byte
    table, its images padded with the identity: ``bytes.translate``
    composes two, ``bytes.maketrans`` inverts one, both in C.  On more
    points it is a tuple, composed with ``operator.itemgetter``.  The two
    differ only in ``_compose``, ``_invert`` and ``_id``; ``add_all``
    converts each generator once, and ``_images`` reads a transversal
    back as tuples.

    *Seeds.*  The action must be faithful on the points ``0..seeds-1``
    (all points by default).  Two facts follow, and the Schreier
    generators are sifted on their images of the seeds alone:

    - an element that fixes every seed is the identity;
    - the first point a non-identity element moves is a seed, so every
      base point is a seed and the sift reads only seed images.

    Only a Schreier generator with a nontrivial residue is formed as a
    full permutation, and sifted again, before it becomes a strong
    generator; the chain is the one full sifting builds.

    With a ``limit``, LimitExceeded is raised once the order is known to
    exceed it.  The product of the transversal sizes is a lower bound
    while the chain grows: each orbit is one under a subgroup of the
    final level's stabilizer, so it only grows, and levels only get added.
    """

    def __init__(self, degree: int, limit: Optional[int] = None,
                 seeds: Optional[int] = None):
        self.degree = degree
        self.limit = limit
        self.base: List[int] = []
        self.assigned: List[list] = []
        self.transversals: List[dict] = []
        self._assigned_inv: List[list] = []
        self._inverses: List[dict] = []
        self._counts: List[dict] = []
        if degree <= _TABLE_POINTS:
            self._id, self._compose, self._invert = \
                _TABLE_ID, bytes.translate, _tinv
        else:
            self._id, self._compose, self._invert = \
                tuple(range(degree)), _pcompose, _pinv
        # an element fixing the seeds fixes every point; sifting at least
        # two keeps each itemgetter result a tuple (see _pcompose)
        self._sifted = min(max(degree if seeds is None else seeds, 2), degree)

    def order(self) -> int:
        return prod(map(len, self.transversals))

    def add_all(self, perms: Sequence[tuple]) -> None:
        for perm in dict.fromkeys(perms):
            if len(perm) != self.degree:
                raise LatticeError("permutation degree mismatch")
            perm = self._table(perm)
            if perm != self._id:
                self._assign(perm)
        for i in range(len(self.base) - 1, -1, -1):
            self._complete(i)

    def _table(self, perm: Sequence[int]):
        """``perm``, its images of the points in order, as the chain holds
        a permutation."""
        return type(self._id)(perm) + self._id[self.degree:]

    def _strip(self, start: int, p):
        """Sift ``p``, a full permutation or its images of the seeds."""
        compose = self._compose
        for i in range(start, len(self.base)):
            uinv = self._inverses[i].get(p[self.base[i]])
            if uinv is None:
                break
            p = compose(p, uinv)
        return p

    def _assign(self, gen) -> int:
        # a residue maps its level's base point out of the orbit: it is new
        at = next((i for i, b in enumerate(self.base) if gen[b] != b),
                  len(self.base))
        if at == len(self.base):
            beta = next(i for i, v in enumerate(gen) if v != i)
            self.base.append(beta)
            self.assigned.append([])
            self._assigned_inv.append([])
            self.transversals.append({beta: self._id})
            self._inverses.append({beta: self._id})
            self._counts.append({})
        self.assigned[at].append(gen)
        self._assigned_inv[at].append(self._invert(gen))
        return at

    def _extend_orbit(self, i: int) -> None:
        trans, inverses = self.transversals[i], self._inverses[i]
        compose = self._compose
        gens = [pair for j in range(i, len(self.base))
                for pair in zip(self.assigned[j], self._assigned_inv[j])]
        queue = list(trans)
        for pt in queue:
            upt, uinv = trans[pt], inverses[pt]
            for g, ginv in gens:
                img = g[pt]
                if img not in trans:
                    trans[img] = compose(upt, g)
                    inverses[img] = compose(ginv, uinv)
                    queue.append(img)
        if self.limit is not None and self.order() > self.limit:
            raise LimitExceeded(f"group closure exceeded limit {self.limit}")

    def _complete(self, i: int) -> None:
        """Sift Schreier generators until level i verifies.

        Assumes deeper levels are complete on entry and re-completes any
        level it adds generators to, so the invariant holds on exit.
        """
        sifted, compose = self._sifted, self._compose
        ident = self._id[:sifted]
        trans, inverses = self.transversals[i], self._inverses[i]
        counts = self._counts[i]
        while True:
            self._extend_orbit(i)
            points = list(trans)
            progressed = False
            for j, idx, g in [(j, idx, g) for j in range(i, len(self.base))
                              for idx, g in enumerate(self.assigned[j])]:
                start, counts[j, idx] = counts.get((j, idx), 0), len(points)
                for pt in points[start:]:
                    # u_{g(pt)}^-1 g u_pt on the seeds
                    back = inverses[g[pt]]
                    s = compose(compose(trans[pt][:sifted], g), back)
                    if s == ident or self._strip(i + 1, s) == ident:
                        continue
                    at = self._assign(self._strip(
                        i + 1, compose(compose(trans[pt], g), back)))
                    for jj in range(at, i, -1):
                        self._complete(jj)
                    progressed = True
            if not progressed:
                return


# ---------------------------------------------------------------------------
# Invariant lattice and the trace condition
# ---------------------------------------------------------------------------

def integer_kernel(rows: Sequence[Sequence[int]], dim: int) -> List[tuple]:
    """Primitive basis of {x in Z^dim : A x = 0}, by unimodular column ops.

    The returned vectors form a basis of the full integer kernel (the
    kernel of a unimodular change of coordinates is saturated).
    """
    ncols = dim
    acols = [[rows[r][c] for r in range(len(rows))] for c in range(ncols)]
    ucols = [[1 if i == c else 0 for i in range(ncols)] for c in range(ncols)]
    active = list(range(ncols))
    for r in range(len(rows)):
        live = [c for c in active if acols[c][r] != 0]
        while len(live) > 1:
            live.sort(key=lambda c: (abs(acols[c][r]), c))
            piv = live[0]
            pval = acols[piv][r]
            for c in live[1:]:
                q = acols[c][r] // pval
                if q:
                    acols[c] = [x - q * y for x, y in zip(acols[c], acols[piv])]
                    ucols[c] = [x - q * y for x, y in zip(ucols[c], ucols[piv])]
            live = [c for c in live if acols[c][r] != 0]
        if live:
            active.remove(live[0])
    kernel = []
    for c in active:
        v = ucols[c]
        if any(v):
            if next(x for x in v if x) < 0:
                v = [-x for x in v]
            kernel.append(tuple(v))
    kernel.sort()
    return kernel


def invariant_lattice(group_or_gens):
    """(rank, primitive basis) of the sublattice fixed by every generator.

    Computed once per ``FiniteIsometryGroup`` and cached on it.
    """
    if isinstance(group_or_gens, FiniteIsometryGroup):
        return group_or_gens._invariant_lattice
    return _fixed_sublattice(list(group_or_gens))


def _fixed_sublattice(gens: Sequence[Isometry]):
    if not gens:
        raise LatticeError("at least one generator required")
    dim = gens[0].dim
    # a zero row of g - I is a no-op in integer_kernel's column operations
    rows = [r for g in gens for i, row in enumerate(g.mat)
            if any(r := [v - (i == j) for j, v in enumerate(row)])]
    kernel = integer_kernel(rows, dim)
    # trusted: integer_kernel returns int tuples of length dim >= 2
    return len(kernel), tuple(map(CohClass._trusted, kernel))


def trace_sum_condition(group: FiniteIsometryGroup):
    """(sum over G of the traces on K's orthogonal complement, sum == 0).

    Every generator must fix K.  An isometry g fixing K preserves
    K^perp = {x : x.K = 0} and acts trivially on the one-dimensional
    quotient H2/K^perp, since gx.K = gx.gK = x.K; so tr(g|K^perp) =
    tr(g|H2) - 1.  For N <= 8, K^perp is the root lattice.  At N = 9,
    where K.K = 0 puts K in K^perp, the quotient argument holds as it is.

    Summing over G, the total is tr R - |G| with R = ``group_sum()``, and
    tr R = |G| * rank(H2^G) (see ``group_sum``), so the total vanishes
    exactly when the invariant rank is 1.  R comes from the orbits and the
    rank from the kernel of the generators, so tr R != |G| * rank would
    be an internal error, checked on every call.  Whether some generator
    moves K is read off the group's chain, which recorded it.
    """
    if group._moves_k:
        k = canonical_class(group.n)
        g = next(g for g in group.generators if not g.fixes(k))
        raise LatticeError(f"generator moves the canonical class:\n{g}")
    trace = sum(row[i] for i, row in enumerate(group.group_sum()))
    rank, _ = invariant_lattice(group)
    if trace != group.order * rank:
        raise InvariantViolation("trace sum disagrees with fixed-lattice rank")
    return trace - group.order, trace == group.order


# ---------------------------------------------------------------------------
# Rank dichotomy and fiber-class candidates
# ---------------------------------------------------------------------------

RANK1 = "rank1"
RANK2 = "rank2"
NEITHER = "neither"


class Dichotomy(NamedTuple):
    kind: str
    rank: int
    basis: tuple
    fiber_candidates: tuple


def _ext_gcd(a: int, b: int):
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return (g, y, x - (a // b) * y)


def fiber_class_candidates(basis: Sequence[CohClass]) -> Tuple[CohClass, ...]:
    """Primitive F = x*u + y*v with F.F = 0 and K.F = -2 in a rank-2 lattice."""
    u, v = basis
    k = canonical_class(u.n)
    alpha, beta = pairing(k, u), pairing(k, v)
    g, x0, y0 = _ext_gcd(alpha, beta)
    if g == 0 or (-2) % g != 0:
        return ()
    t0 = (-2) // g
    f0 = (x0 * t0) * u + (y0 * t0) * v
    w = (-beta // g) * u + (alpha // g) * v
    a2, a1, a0 = w.square(), pairing(f0, w), f0.square()
    ts = []
    if a2 != 0:
        disc = a1 * a1 - a2 * a0
        root = isqrt(max(disc, 0))
        if root * root == disc:
            for num in (-a1 + root, -a1 - root):
                if num % a2 == 0:
                    ts.append(num // a2)
    elif a1 != 0:
        if a0 % (2 * a1) == 0:
            ts.append(-a0 // (2 * a1))
    else:
        if a0 == 0:  # pragma: no cover - impossible in signature (1, N)
            raise InvariantViolation("degenerate isotropic pencil")
    out = []
    for t in sorted(set(ts)):
        f = f0 + t * w
        if f.is_primitive() and f.square() == 0 and pairing(k, f) == -2:
            out.append(f)
    out.sort(key=lambda c: c.coords)
    return tuple(out)


def minimality_rank_dichotomy(group_or_gens) -> Dichotomy:
    """Classify by the rank of the invariant lattice (1, 2, or neither).

    In the rank-2 case the primitive invariant classes with F.F = 0 and
    K.F = -2 are returned as fiber-class candidates (there are at most two).
    """
    if isinstance(group_or_gens, FiniteIsometryGroup):
        gens = group_or_gens.generators
    else:
        gens = group_or_gens = list(group_or_gens)
    if not all(g.fixes(canonical_class(g.n)) for g in gens):
        raise LatticeError("generators must fix the canonical class")
    rank, basis = invariant_lattice(group_or_gens)
    if rank == 1:
        return Dichotomy(RANK1, rank, basis, ())
    if rank == 2:
        return Dichotomy(RANK2, rank, basis, fiber_class_candidates(basis))
    return Dichotomy(NEITHER, rank, basis, ())
