"""Root systems, Weyl groups as lattice isometry groups, invariant lattices.

The orthogonal complement of the canonical class K in the degree-2 lattice
is a root lattice (A2+A1, A4, D5, E6, E7, E8 for N = 3..8); its roots are
the integer classes with r.r = -2 and K.r = 0.  Finite isometry groups are
handled with one stabilizer chain on the orbits of the basis classes,
built by ``generate_group``.  The order is read off the chain; the sorted
element set is multiplied out of its transversals only when asked for, so
the order alone is feasible for the largest Weyl group.  numpy is imported
inside the functions that use it, so the commands that never build a chain
start without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import isqrt
from operator import itemgetter
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

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
    """All integer r with r.r = -2 and K.r = 0, sorted."""
    from .exceptional import lattice_classes
    root_system_type(n)
    return lattice_classes(n, -2, 0)


@lru_cache(maxsize=None)
def simple_reflections(n: int) -> Tuple[Isometry, ...]:
    """Reflections in the simple roots; cached, as isometries are immutable."""
    return tuple(reflection(a) for a in simple_roots(n))


# ---------------------------------------------------------------------------
# Element listing from a stabilizer chain
# ---------------------------------------------------------------------------

class FiniteIsometryGroup:
    """A finite group of lattice isometries, held as its stabilizer chain.

    Only ``generate_group`` builds one; calling the class raises, and an
    instance is immutable and safe to share.  ``order`` is the product of
    the transversal sizes.  The elements are listed on the first
    ``element_array()`` or iteration and cached: an (order, dim, dim)
    integer array in lexicographic row-major order, so reports are
    reproducible.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("a FiniteIsometryGroup is built only by generate_group")

    @classmethod
    def _sealed(cls, gens: tuple, order: int, listing: tuple):
        """``listing`` holds the arguments of ``_list_elements``."""
        group = object.__new__(cls)
        group.__dict__.update(generators=gens, order=order, _listing=listing)
        return group

    def __setattr__(self, name, value):
        raise AttributeError("a FiniteIsometryGroup is immutable")

    @property
    def n(self) -> int:
        return self.generators[0].n

    def __len__(self) -> int:
        return self.order

    @cached_property
    def _elements(self) -> np.ndarray:
        return _list_elements(*self._listing)

    @cached_property
    def _invariant_lattice(self) -> tuple:
        return _fixed_sublattice(self.generators)

    @property
    def _moves_k(self) -> bool:
        return self._listing[3]

    def element_array(self) -> np.ndarray:
        return self._elements

    def __iter__(self):
        """Trusted: each element is a product of the generating isometries."""
        for mat in self.element_array():
            yield Isometry._trusted(tuple(map(tuple, mat.tolist())))

    def trace_vector(self) -> np.ndarray:
        """Trace of every element on the full degree-2 lattice."""
        import numpy as np
        return self.element_array().trace(axis1=1, axis2=2, dtype=np.int64)

    def group_sum(self) -> Tuple[Tuple[int, ...], ...]:
        """R, the sum of the matrices of all elements, from the chain alone.

        Every element is uniquely u1 u2 ... uk with ui in Ui (see
        ``generate_group``) and the matrix of a product is the product of
        the matrices, so R = (sum of U1)(sum of U2) ... (sum of Uk).  Each
        level's sum is exact in int64, as |Ui| * 32767 is far below 2^63.
        The product is taken in Python ints, as numpy object arrays: each
        partial product is the sum of distinct elements u1 ... uj (the rest
        of the factors being the identity), and |G| times an entry may pass
        int64.  With no levels (the trivial group) R is the identity.
        Raises LimitExceeded when a transversal element's image of H has an
        entry above 32767 in absolute value.

        R is |G| times the projector onto the invariant subspace V^G:
        g R = R g = R for every g in G, as left or right multiplication
        by g permutes the elements.  So R (g - I) = 0, R's image lies in
        V^G, and R v = |G| v for v in V^G; hence R/|G| is an idempotent
        onto V^G and tr R = |G| * rank V^G.
        """
        import numpy as np
        transversals, pts, k, moves_k = self._listing
        dim = pts.shape[1]
        if not transversals:
            return tuple(map(tuple, np.eye(dim, dtype=int).tolist()))
        seeds = dim if moves_k else dim - 1
        images = np.array([u[:seeds] for trans in transversals
                           for u in trans.values()])
        mats = _read_matrices(images, pts, k, moves_k)
        starts = np.cumsum([0] + [len(t) for t in transversals[:-1]])
        levels = np.add.reduceat(mats, starts, dtype=np.int64).astype(object)
        return tuple(map(tuple, reduce(np.matmul, levels).tolist()))


# Entries are stored in int16 at most.
_MAX_ENTRY = 32767
_RANGE_MESSAGE = "matrix entries exceeded supported range"


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
    is E_j.  An orbit longer than ``limit`` proves |G| > limit, which ends
    the search for an infinite group.

    *Factorization.*  Deterministic Schreier-Sims gives a base b1..bk and
    transversals U1..Uk, Ui holding one element per point of the orbit of
    bi under the stabilizer of b1..b(i-1).  Every element is uniquely
    u1 u2 ... uk with ui in Ui (Sims 1970; Seress, *Permutation Group
    Algorithms*, 2003, ch. 4), so |G| = |U1| ... |Uk| and multiplying the
    transversals out lists each element once, with no deduplication.

    *Columns.*  The transversals are multiplied out as permutations,
    keeping only the images of the seeds.  Column j >= 1 of an element is
    the point its permutation sends E_j to.  Column 0 is the image of H:
    read from H's orbit when H is a point, otherwise (sum of the other
    columns - K)/3, K being fixed.  Each matrix is read once, at the end,
    by ``_read_matrices``, which ``group_sum`` shares; every point is in
    range already, so only column 0 is checked.
    """
    gens = tuple(gens)
    chain, pts, k, moves_k = _basis_chain(gens, limit)
    return FiniteIsometryGroup._sealed(gens, chain.order(),
                                       (chain.transversals, pts, k, moves_k))


def group_order_via_chain(gens: Sequence[Isometry]) -> int:
    """Order of the group ``gens`` generate, from ``generate_group``'s chain.

    Defined for 3 <= N <= 8 and generators fixing K.  K's orthogonal
    complement is then negative definite, so the group is finite and the
    chain runs with no limit: W(E8) has 696,729,600 elements, above
    ``generate_group``'s default limit.
    """
    if gens:
        root_system_type(gens[0].n)
        k = canonical_class(gens[0].n)
        if not all(g.fixes(k) for g in gens):
            raise LatticeError("generators must fix the canonical class")
    return generate_group(gens, None).order


def _basis_chain(gens: Sequence[Isometry], limit: Optional[int]):
    """``generate_group``'s chain, its points, K and whether K moves.

    ``limit`` None bounds neither the orbits nor the order.
    """
    import numpy as np
    if not gens:
        raise LatticeError("at least one generator required")
    dim = gens[0].dim
    if any(g.dim != dim for g in gens):
        raise LatticeError("generators act on different lattices")
    n = dim - 1
    if max(max(map(abs, row)) for g in gens for row in g.mat) > _MAX_ENTRY:
        raise LimitExceeded(_RANGE_MESSAGE)
    mats = np.array([g.mat for g in gens], dtype=np.int64)
    k = np.array((-3,) + (1,) * n, dtype=np.int64)
    moves_k = bool((mats @ k != k).any())
    # E1..EN, then H if K moves
    seeds = np.roll(np.eye(dim, dtype=np.int64), -1, axis=0)[:dim if moves_k else n]
    pts, perms = _orbits(mats, seeds, limit)
    chain = StabilizerChain(len(pts), limit, seeds=len(seeds))
    for p in perms:
        chain.add(p)
    return chain, pts, k, moves_k


def _orbits(mats: np.ndarray, seeds: np.ndarray, limit: Optional[int]):
    """Points of the seeds' orbits and each generator's permutation of them.

    Breadth-first over all orbits at once, one matrix product per
    generator and layer; the seeds keep indices 0.. in order.  A
    union-find over the seeds tracks the size of each orbit found so far.
    """
    import numpy as np
    dim = seeds.shape[1]
    width = 2 * dim
    # each point is keyed by its int16 bytes
    points = [s.astype(np.int16).tobytes() for s in seeds]
    index = {p: i for i, p in enumerate(points)}
    owner = list(range(len(points)))
    parent = list(owner)
    size = [1] * len(points)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    images: List[List[int]] = [[] for _ in range(len(mats))]
    lo = 0
    while lo < len(points):
        hi = len(points)
        layer = np.frombuffer(b"".join(points[lo:hi]), dtype=np.int16)
        layer = layer.reshape(hi - lo, dim).astype(np.int64)
        for m, img in zip(mats, images):
            prod = layer @ m.T
            if np.abs(prod).max() > _MAX_ENTRY:
                raise LimitExceeded(_RANGE_MESSAGE)
            raw = prod.astype(np.int16).tobytes()
            for src in range(lo, hi):
                q = raw[(src - lo) * width:(src - lo + 1) * width]
                root = find(owner[src])
                j = index.get(q)
                if j is None:
                    j = index[q] = len(points)
                    points.append(q)
                    owner.append(root)
                    size[root] += 1
                elif find(owner[j]) != root:
                    other = find(owner[j])
                    parent[other] = root
                    size[root] += size[other]
                if limit is not None and size[root] > limit:
                    raise LimitExceeded(f"group closure exceeded limit {limit}")
                img.append(j)
        lo = hi
    pts = np.frombuffer(b"".join(points), dtype=np.int16)
    return pts.reshape(len(points), dim).astype(np.int64), \
        [tuple(img) for img in images]


def _list_elements(transversals: List[dict], pts: np.ndarray,
                   k: np.ndarray, moves_k: bool) -> np.ndarray:
    """The elements of ``generate_group``'s chain, read as it describes.

    Each row of ``images`` is the seeds sent through one u1 u2 ... uk; uk
    acts first, so the levels are applied last to first, each as a small
    unsigned index array.  The matrices are read by ``_read_matrices`` and
    sorted row-major as byte strings by ``_sort_rows``.  Sorted, a
    repeated element would sit on adjacent rows of equal bytes.
    """
    import numpy as np
    dim = pts.shape[1]
    seeds = dim if moves_k else dim - 1
    index = np.min_scalar_type(len(pts) - 1)
    images = np.arange(seeds, dtype=index)[None]
    for trans in reversed(transversals):
        level = np.array(list(trans.values()), dtype=index)
        images = level[:, images].reshape(-1, seeds)
    elements = _read_matrices(images, pts, k, moves_k)
    del images  # before the sort copies the elements
    elements = _sort_rows(elements.reshape(-1, dim * dim))
    rows = elements.view((np.void, elements.itemsize * dim * dim)).ravel()
    if (rows[1:] == rows[:-1]).any():  # pragma: no cover
        raise InvariantViolation("closure bookkeeping mismatch")
    return elements.reshape(-1, dim, dim)


def _read_matrices(images: np.ndarray, pts: np.ndarray, k: np.ndarray,
                   moves_k: bool) -> np.ndarray:
    """The matrices of the elements whose seed images are ``images``' rows.

    Row r holds the indices into ``pts`` of the points one element sends
    the seeds to.  Column j >= 1 of its matrix is the point E_j goes to;
    column 0 is H's image, read from H's orbit when K moves, otherwise
    (sum of the other columns - K)/3, K being fixed.  Every point is in
    16-bit range already, so only column 0 is checked: an entry above
    32767 in absolute value raises LimitExceeded.  The matrices are int8
    when every entry fits, else int16.
    """
    import numpy as np
    dim = pts.shape[1]
    # exact: N entries below 2^15 in absolute value sum below 2^31
    pts = pts.astype(np.int32)
    if moves_k:  # H is the last seed
        col0 = pts.take(images[:, -1], axis=0)
    else:
        col0 = pts.take(images[:, 0], axis=0) - k.astype(np.int32)
        for j in range(1, dim - 1):
            col0 += pts.take(images[:, j], axis=0)
        if (col0 % 3).any():  # pragma: no cover - K is fixed
            raise InvariantViolation("image of H is not integral")
        col0 //= 3
    largest = max(-int(col0.min()), int(col0.max()), int(np.abs(pts).max()))
    if largest > _MAX_ENTRY:
        raise LimitExceeded(_RANGE_MESSAGE)
    mats = np.empty((len(images), dim, dim), np.int8 if largest <= 127 else np.int16)
    mats[:, :, 0] = col0
    pts = pts.astype(mats.dtype)
    for j in range(1, dim):
        mats[:, :, j] = pts.take(images[:, j - 1], axis=0)
    return mats


def _sort_rows(arr: np.ndarray) -> np.ndarray:
    """Rows in row-major value order, sorted as fixed-width byte strings.

    Each entry is biased to unsigned, so that value order is byte order,
    and written big-endian at its dtype's width; each row is then one
    ``np.void`` string, and comparing the strings compares the entries in
    column order.  The sort is stable, so equal rows keep their order.
    """
    import numpy as np
    rows, cols = arr.shape
    if rows < 2:
        return arr
    unsigned = np.dtype(f"u{arr.itemsize}")
    keys = arr.view(unsigned) ^ unsigned.type(1 << (8 * arr.itemsize - 1))
    keys = keys.astype(unsigned.newbyteorder(">"), copy=False)
    order = np.argsort(keys.view((np.void, arr.itemsize * cols)).ravel(),
                       kind="stable")
    del keys
    return arr[order]


def weyl_group(n: int, limit: Optional[int] = 10_000_000) -> FiniteIsometryGroup:
    return generate_group(simple_reflections(n), limit=limit)


# ---------------------------------------------------------------------------
# Schreier-Sims
# ---------------------------------------------------------------------------

def _pcompose(p: tuple, q: tuple) -> tuple:
    """Product acting as q first, then p; q must have length >= 2.

    q is a permutation or its images of the seeds.  Every permutation the
    chain composes has degree >= 2, since a non-identity permutation
    moves at least two points, and the chain sifts at least two images.
    """
    return itemgetter(*q)(p)


def _pinv(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)


class StabilizerChain:
    """Deterministic Schreier-Sims over a faithful permutation action.

    Level i stores the strong generators whose first moved base point is
    base[i]; the generating set effective at level i is the union over all
    levels >= i, since deeper generators also stabilize the prefix.  Each
    transversal element and each strong generator is stored with its
    inverse, so sifting never inverts a permutation.

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
        self.assigned: List[List[tuple]] = []
        self.transversals: List[dict] = []
        self._assigned_inv: List[List[tuple]] = []
        self._inverses: List[dict] = []
        self._done: List[set] = []
        self._id = tuple(range(degree))
        # an element fixing the seeds fixes every point; sifting at least
        # two keeps each itemgetter result a tuple (see _pcompose)
        self._sifted = min(max(degree if seeds is None else seeds, 2), degree)

    def order(self) -> int:
        o = 1
        for t in self.transversals:
            o *= len(t)
        return o

    def add(self, perm: tuple) -> None:
        if len(perm) != self.degree:
            raise LatticeError("permutation degree mismatch")
        residue, at = self._strip(0, perm)
        if residue == self._id:
            return
        self._assign(at, residue)
        for i in range(at, -1, -1):
            self._complete(i)

    def contains(self, perm: tuple) -> bool:
        residue, _ = self._strip(0, perm)
        return residue == self._id

    def _strip(self, start: int, p: tuple):
        """Sift ``p``, a full permutation or its images of the seeds."""
        for i in range(start, len(self.base)):
            uinv = self._inverses[i].get(p[self.base[i]])
            if uinv is None:
                return p, i
            p = _pcompose(uinv, p)
        return p, len(self.base)

    def _assign(self, at: int, gen: tuple) -> None:
        if at == len(self.base):
            beta = next(i for i, v in enumerate(gen) if v != i)
            self.base.append(beta)
            self.assigned.append([])
            self._assigned_inv.append([])
            self.transversals.append({beta: self._id})
            self._inverses.append({beta: self._id})
            self._done.append(set())
        if gen not in self.assigned[at]:
            self.assigned[at].append(gen)
            self._assigned_inv[at].append(_pinv(gen))

    def _extend_orbit(self, i: int) -> None:
        trans, inverses = self.transversals[i], self._inverses[i]
        gens = [pair for j in range(i, len(self.base))
                for pair in zip(self.assigned[j], self._assigned_inv[j])]
        queue = list(trans)
        for pt in queue:
            upt, uinv = trans[pt], inverses[pt]
            for g, ginv in gens:
                img = g[pt]
                if img not in trans:
                    trans[img] = _pcompose(g, upt)
                    inverses[img] = _pcompose(uinv, ginv)
                    queue.append(img)
        if self.limit is not None and self.order() > self.limit:
            raise LimitExceeded(f"group closure exceeded limit {self.limit}")

    def _complete(self, i: int) -> None:
        """Process Schreier generators until level i verifies.

        Assumes deeper levels are complete on entry and re-completes any
        level it adds generators to, so the invariant holds on exit.
        """
        sifted = self._sifted
        ident = self._id[:sifted]
        while True:
            self._extend_orbit(i)
            trans, inverses = self.transversals[i], self._inverses[i]
            done = self._done[i]
            progressed = False
            for j, idx, g in [(j, idx, g) for j in range(i, len(self.base))
                              for idx, g in enumerate(self.assigned[j])]:
                for pt in list(trans):
                    mark = (pt, j, idx)
                    if mark in done:
                        continue
                    done.add(mark)
                    # u_{g(pt)}^-1 g u_pt on the seeds
                    back = inverses[g[pt]]
                    s = _pcompose(back, _pcompose(g, trans[pt][:sifted]))
                    if s == ident or self._strip(i + 1, s)[0] == ident:
                        continue
                    residue, at = self._strip(
                        i + 1, _pcompose(back, _pcompose(g, trans[pt])))
                    self._assign(at, residue)
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
    rows = [[v - (i == j) for j, v in enumerate(row)]
            for g in gens for i, row in enumerate(g.mat)]
    kernel = integer_kernel(rows, dim)
    return len(kernel), tuple(CohClass(v) for v in kernel)


def trace_sum_condition(group: FiniteIsometryGroup):
    """(sum over G of the traces on K's orthogonal complement, sum == 0).

    Every generator must fix K.  An isometry g fixing K preserves
    K^perp = {x : x.K = 0} and acts trivially on the one-dimensional
    quotient H2/K^perp, since gx.K = gx.gK = x.K; so tr(g|K^perp) =
    tr(g|H2) - 1.  For N <= 8, K^perp is the root lattice.  At N = 9,
    where K.K = 0 puts K in K^perp, the quotient argument holds as it is.

    Summing over G, the total is tr R - |G| with R = ``group_sum()``, and
    tr R = |G| * rank(H2^G) (see ``group_sum``), so the total vanishes
    exactly when the invariant rank is 1.  R comes from the chain and the
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


@dataclass(frozen=True)
class Dichotomy:
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
