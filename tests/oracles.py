"""Brute-force oracles: a second route to each of the library's results.

These recompute expected values by direct search so the main code paths
are checked against a second route: plain per-coordinate recursion here
versus the multiset enumerator in the package, a dict-based pure-Python
closure versus the vectorized one, and the scans that the package's closed
forms replaced (the a-scan blowdown obstruction and fiber pairs, the
m-scan of the largest swap-closed section, the section identity through
the lattice pairing, the vertical decompositions of a class by a scan
over every multiplicity, the expansion of each multiset through all of its
n! orderings, cone membership by exact ``Fraction`` areas, reducedness by
minimal exceptional areas beside the coefficient inequalities, the gap
coordinate of a slice class by the 2x2 Gram system, the breadth-first
closures of the hexagon subgroups and the monomial groups beside the
listing of a monomial group's two factors, torus elements as
``Fraction`` angles in Q/Z beside the package's integer residues, the bundle isometries pushed
through ``CohClass`` arithmetic, a stabilizer chain on the roots beside the library's chain on
the orbits of the basis classes, the order of a parabolic subgroup of
W(E7) as a product over the Coxeter components, the invariant lattice
from every row of the stacked g - I, traces read off an int64 copy of a
group's listing, and a bundle group's P, Q and minimality read off the
columns of its listing, or off a plain list checked for closure product
by product).  The conic-bundle classifier's matrix routes are here too:
each fiber action read off full rows and columns with F and K checked
first, the classification on eps tuples, and Q's independence of the
labelling by comparing matrix keys.  So is the package's exceptional
Cremona descent as it ran before integer coordinates: a ``CohClass`` and a
pairing per step, with the reflection and the tie rule it was defined by.
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, floor, gcd, isqrt, lcm
from operator import mul

from gsurf.cone import DEFAULT_PARTIAL_DEGREE, FULL, OUTSIDE, PARTIAL_POSITIVE
from gsurf.errors import InvariantViolation, LatticeError, LimitExceeded
from gsurf.exceptional import (
    DEFAULT_LIMIT,
    ReductionTrace,
    _degree_bounds,
    _expand,
    _multisets,
    _plan,
    enumerate_exceptional,
)
from gsurf.gconic import (
    CASE_CYCLIC_CORE,
    CASE_INVOLUTION,
    CASE_KLEIN,
    CASE_NON_MINIMAL,
    FiberAction,
    GroupDecomposition,
    SectionIdentity,
    fiber_action,
    fiber_class,
    matrix_from_fiber_action,
)
from gsurf.hexagon import (
    HexagonSubgroup,
    MonomialGroupElement,
    _imprimitive_generators,
    propagate_rotation,
)
from gsurf.lattice import (CohClass, Isometry, SymplecticClass,
                           canonical_class, pairing, unit)
from gsurf.weyl import (FiniteIsometryGroup, StabilizerChain, all_roots,
                        integer_kernel)


def raw_pairing(x, y):
    return x[0] * y[0] - sum(a * b for a, b in zip(x[1:], y[1:]))


def _solve(n, target_s, target_q, degree):
    """Vectors b with sum b = target_s and sum b^2 = target_q, raw coords."""
    out = []

    def rec(i, s, q, prefix):
        if i == n:
            if s == 0 and q == 0:
                out.append((degree,) + tuple(-b for b in prefix))
            return
        rem = n - i - 1
        lim = isqrt(q)
        for b in range(-lim, lim + 1):
            s2, q2 = s - b, q - b * b
            if q2 < 0:
                continue
            if rem == 0:
                if s2 == 0 and q2 == 0:
                    out.append((degree,) + tuple(-x for x in prefix + [b]))
                continue
            if s2 * s2 > rem * q2:
                continue
            rec(i + 1, s2, q2, prefix + [b])

    rec(0, target_s, target_q, [])
    return out


def exc_classes_oracle(n, degree_lo=-3, degree_hi=10):
    """All raw coordinate vectors with e.e = -1 and K.e = -1.

    The scan window [-3, 10] strictly contains the Cauchy-Schwarz degree
    interval for every n <= 8.
    """
    out = []
    for a in range(degree_lo, degree_hi + 1):
        out.extend(_solve(n, 3 * a - 1, a * a + 1, a))
    return out


def root_classes_oracle(n):
    """All raw coordinate vectors with r.r = -2 and K.r = 0, n <= 8."""
    out = []
    for a in range(-5, 6):
        out.extend(_solve(n, 3 * a, a * a + 2, a))
    return out


def feasible_degrees(n, square, k_degree, reach=50):
    """The degrees a in [-reach, reach] that pass Cauchy-Schwarz for classes
    with x.x = square and K.x = k_degree: (3a + k)^2 <= N (a^2 - s).

    A scan, the route the closed form ``_degree_bounds`` replaced.
    """
    return [a for a in range(-reach, reach + 1)
            if (3 * a + k_degree) ** 2 <= n * (a * a - square)]


def lattice_classes(n, square, k_degree):
    """All integer classes x with x.x = ``square`` and K.x = ``k_degree``,
    sorted by coordinates, for 1 <= N <= 8, where ``_degree_bounds``
    makes the set finite.

    The package's exceptional enumerator run on any family: the route
    ``weyl.all_roots`` took before its closed form.
    """
    if not 1 <= n <= 8:
        raise LatticeError(f"lattice classes need 1 <= N <= 8, got {n}")
    lo, hi = _degree_bounds(n, square, k_degree)
    return _expand(_plan(n, square, k_degree, lo, hi))


def _degree_window(n, max_degree):
    """The degrees ``enumerate_exceptional(n, max_degree)`` covers."""
    if n <= 8:
        degrees = feasible_degrees(n, -1, -1)
        hi = degrees[-1]
        return degrees[0], hi if max_degree is None else min(hi, max_degree)
    return -1, max_degree


def exc_coords_by_permutation_sets(n, max_degree=None):
    """Sorted raw coordinates of the enumeration, multisets expanded by sets.

    Each multiset of b-values is expanded through all n! orderings of
    ``itertools.permutations`` and deduplicated by a set, the route that
    Algorithm L replaced in the package.
    """
    lo, hi = _degree_window(n, max_degree)
    out = []
    for a in range(lo, hi + 1):
        for multiset in _multisets(n, 3 * a - 1, a * a + 1):
            for perm in set(itertools.permutations(multiset)):
                out.append((a,) + tuple(-b for b in perm))
    return tuple(sorted(out))


def exc_count_by_multinomials(n, max_degree=None):
    """Size of the enumeration: n! / prod(multiplicity!) per multiset."""
    lo, hi = _degree_window(n, max_degree)
    total = 0
    for a in range(lo, hi + 1):
        for multiset in _multisets(n, 3 * a - 1, a * a + 1):
            count = factorial(n)
            for k in Counter(multiset).values():
                count //= factorial(k)
            total += count
    return total


def blowdown_obstruction_scan(n, a_min):
    """Pairs (a, m), m = -a^2 K^2 / (2a - 1) > 0, scanning a over [a_min, -1]."""
    ksq = 9 - n
    out = []
    for a in range(a_min, 0):
        num = -(a * a * ksq)
        den = 2 * a - 1
        if num % den == 0:
            m = num // den
            if m > 0:
                out.append((a, m))
    return tuple(out)


def cone_verdict_by_fraction_areas(w, max_degree=5):
    """Cone membership with each exceptional area paired in ``Fraction``s;
    a class of degree nu <= 0 is in the backward half of the positive
    cone, so outside."""
    if pairing(w, w) <= 0 or w.nu <= 0:
        return OUTSIDE
    n = w.n
    exc = enumerate_exceptional(n) if n <= 8 \
        else enumerate_exceptional(n, max_degree)
    for e in exc:
        if w.area(e) <= 0:
            return OUTSIDE
    return FULL if exc.complete else PARTIAL_POSITIVE


def cone_verdict_by_scan(w, limit=DEFAULT_LIMIT):
    """Cone membership by the integer area of every enumerated class.

    The square in ``Fraction``s; then, with L the lcm of the denominators,
    the area of e is positive exactly when (L*w).e is, an integer dot
    product with e's raw coordinates.  The enumeration is called as
    ``cone.is_in_cone`` calls it, so ``limit`` reaches it the same way.
    A class of degree nu <= 0 is outside before any enumeration.
    """
    if pairing(w, w) <= 0 or w.nu <= 0:
        return OUTSIDE
    n = w.n
    args = (n,) if n <= 8 else (n, DEFAULT_PARTIAL_DEGREE)
    if limit != DEFAULT_LIMIT:
        args = (n, DEFAULT_PARTIAL_DEGREE if n > 8 else None, limit)
    exc = enumerate_exceptional(*args)
    scale = lcm(*(c.denominator for c in w.coords))
    scaled = [c.numerator * (scale // c.denominator) for c in w.coords]
    for e in exc:
        if sum(map(mul, scaled, e.coords)) <= 0:
            return OUTSIDE
    return FULL if exc.complete else PARTIAL_POSITIVE


def span2_coefficients(w, u, v):
    """Exact (x, y) with w = x*u + y*v, or None if w is outside the span:
    the 2x2 Gram system solved by Cramer's rule, then checked coordinate
    by coordinate.  The reference for ``cone.delta``'s closed form."""
    gm = [[u.square(), pairing(u, v)], [pairing(u, v), v.square()]]
    rhs = [pairing(w, u), pairing(w, v)]
    det = gm[0][0] * gm[1][1] - gm[0][1] * gm[1][0]
    if det == 0:
        raise LatticeError("degenerate span basis")
    x = Fraction(rhs[0] * gm[1][1] - rhs[1] * gm[0][1], det)
    y = Fraction(gm[0][0] * rhs[1] - gm[1][0] * rhs[0], det)
    if all(Fraction(c) == x * a + y * b
           for c, a, b in zip(w.raw(), u.coords, v.coords)):
        return x, y
    return None


def is_reduced_by_minimal_areas(w):
    """Area-minimality form of reducedness, against the full enumeration.

    The standard basis is reduced for w when E_N has minimal area among
    the positive-area exceptional classes and, walking down, each E_i has
    minimal area among those orthogonal to E_(i+1), ..., E_N.  Needs the
    complete enumeration, so N <= 8.

    Pointwise this is strictly stronger than the coefficient inequalities
    of ``lattice.is_reduced_class``: area-minimality forces area(H-Ei-Ej)
    >= area(Ej) for i < j on top of the sorted areas and the leading
    triple inequality.  (26/3; 13/4, 11/4, 5/2, 9/4, 5/4) passes the
    coefficient test but fails here at E2.  The descent normal forms
    (3+b; 1+b, 1...) satisfy both.
    """
    n = w.n
    if n < 3 or n > 8:
        raise LatticeError("area-minimality test needs 3 <= N <= 8")
    pool = [e for e in enumerate_exceptional(n) if w.area(e) > 0]
    for i in range(n, 0, -1):
        sub = [e for e in pool
               if all(e.coords[j] == 0 for j in range(i + 1, n + 1))]
        ei = unit(n, i)
        if ei not in sub:
            return False
        if any(w.area(e) < w.area(ei) for e in sub):
            return False
    return True


# -- the Cremona descents by class arithmetic and matrix products -------------

def h_ijk(n, i, j, k):
    """The (-2)-class H - Ei - Ej - Ek."""
    if not (1 <= i < j < k <= n):
        raise LatticeError(f"need 1 <= i < j < k <= {n}, got ({i},{j},{k})")
    coords = [0] * (n + 1)
    coords[0] = 1
    coords[i] = coords[j] = coords[k] = -1
    return CohClass(tuple(coords))


def cremona_reflect(x, indices):
    """Reflection in H - Ei - Ej - Ek: x + (x . Hijk) * Hijk.

    Fixes the canonical class, is involutive, preserves the pairing, and
    accepts either an integer or a symplectic class.
    """
    i, j, k = indices
    n = x.n
    h = h_ijk(n, i, j, k)
    p = pairing(x, h)
    if isinstance(x, CohClass):
        return x + p * h
    if isinstance(x, SymplecticClass):
        raw = x.raw()
        return SymplecticClass.from_raw(
            tuple(r + p * c for r, c in zip(raw, h.coords)))
    raise LatticeError("CohClass or SymplecticClass expected")


def permutation_isometry(n, images):
    """Isometry permuting the Ei coordinates: Ei -> E_images[i], fixing H.

    ``images`` maps a subset of 1..N bijectively; omitted indices are fixed.
    """
    perm = {i: images.get(i, i) for i in range(1, n + 1)}
    if sorted(perm.values()) != list(range(1, n + 1)):
        raise LatticeError("not a permutation of 1..N")
    cols = [unit(n, 0).coords] + [unit(n, perm[i]).coords
                                  for i in range(1, n + 1)]
    return Isometry(tuple(zip(*cols)))


def is_exceptional_by_pairing(e):
    return e.square() == -1 and pairing(canonical_class(e.n), e) == -1


def b_vector(x):
    """(b1, ..., bN) of x = a*H - sum bs*Es."""
    return tuple(-c for c in x.coords[1:])


def _largest_three(bs):
    """Indices (1-based, i<j<k) of the three largest b-coefficients.

    Ties break toward the smallest index, which makes traces reproducible.
    """
    order = sorted(range(len(bs)), key=lambda t: (-bs[t], t))
    return tuple(sorted(t + 1 for t in order[:3]))


def reduce_exceptional_by_classes(e):
    """The package's descent before it ran on integer coordinates: a
    ``CohClass`` and a pairing per step."""
    if e.n < 3:
        raise LatticeError("reduction needs at least three blowups")
    if not is_exceptional_by_pairing(e):
        raise LatticeError(f"{e} is not exceptional")
    steps = []
    cur = e
    while cur.degree > 0:
        ijk = _largest_three(b_vector(cur))
        nxt = cremona_reflect(cur, ijk)
        if nxt.degree >= cur.degree:
            raise LatticeError(f"degree did not drop at {cur}")
        steps.append((ijk, cur, nxt))
        cur = nxt
    if cur.degree != 0:
        raise LatticeError(f"descent stalled at {cur}")
    bs = b_vector(cur)
    nonzero = [t + 1 for t, b in enumerate(bs) if b != 0]
    if len(nonzero) != 1 or bs[nonzero[0] - 1] != -1:
        raise LatticeError(f"descent did not end at a basis class: {cur}")
    return ReductionTrace(e, tuple(steps), cur, nonzero[0])


def tuple_closure(gen_mats, limit=1_000_000):
    """Pure-Python breadth-first closure over tuple-of-tuples matrices."""
    dim = len(gen_mats[0])

    def mul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(dim))
                           for j in range(dim)) for i in range(dim))

    ident = tuple(tuple(1 if i == j else 0 for j in range(dim))
                  for i in range(dim))
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for m in frontier:
            for g in gen_mats:
                p = mul(m, g)
                if p not in seen:
                    seen.add(p)
                    new.append(p)
                    if len(seen) > limit:
                        raise RuntimeError("oracle closure limit")
        frontier = new
    return seen


def fiber_pairs_scan(n):
    """Admissible a in 1..8 with F' = -a*K - F a second fiber class."""
    k, f = canonical_class(n), fiber_class(n)
    out = []
    for a in range(1, 9):
        fp = -a * k - f
        if fp.square() == 0 and pairing(k, fp) == -2 and pairing(f, fp) == 2 * a:
            out.append(a)
    return tuple(out)


def max_swap_closed_section_scan(n):
    """Largest m, scanned down from (N - 1)/2, that the swap counting allows.

    A lone solution (r, x) = (1, 0) of N - 1 = r + 2m + 2x needs the
    shared-fiber triple r1 + r2 = N - 2 with both pair identities.
    """
    for m in range((n - 1) // 2, 0, -1):
        sols = [(r, x) for x in range(n) for r in range(n)
                if r + 2 * m + 2 * x == n - 1]
        if not sols:
            continue
        if sols == [(1, 0)]:
            triple = [
                (r1, x1, r2, x2)
                for r1 in range(n - 1) for x1 in range(n)
                if r1 + 2 * m + 2 * x1 == n - 1
                for r2 in [n - 2 - r1] if r2 >= 0
                for x2 in range(n)
                if r2 + 2 * m + 2 * x2 == n - 1
            ]
            if not triple:
                continue
        return m
    return None


def section_identity_by_pairing(e, e_prime, model):
    """``section_identity`` through the lattice pairing, as it was first
    written: parse both normal forms into mark sets, then take the two
    squares and the product with ``CohClass.square`` and ``pairing``."""
    n = model.n_blowups
    if e.n != n or e_prime.n != n:
        raise LatticeError("dimension mismatch")
    if e == e_prime:
        raise LatticeError("two distinct sections are required")
    marks = []
    for x in (e, e_prime):
        c = x.coords
        if c[1] != 1 - c[0] or not set(c[2:]) <= {0, 1}:
            raise LatticeError(f"{x} is not in section normal form")
        marks.append(set(itertools.compress(range(2, len(c)), c[2:])))
    r = n - 1 - len(marks[0].symmetric_difference(marks[1]))
    m, m_p = -e.square(), -e_prime.square()
    prod = pairing(e, e_prime)
    return SectionIdentity(r, m, m_p, prod, n - 1 == r + m + m_p + 2 * prod)


def vertical_decompositions_by_scan(target, n):
    """``vertical_decompositions`` by scan, as a set: every nonnegative
    p_j, q_j (j = 2..N) and u with sum q_j + u equal to the H-degree a, each
    p_j at most a + |t_j|, kept when sum p_j Ej + q_j (F - Ej) + u F is the
    target in ``CohClass`` arithmetic.  Only label j's own p_j and q_j
    touch the Ej coordinate, so a partial sum that misses it there is
    dropped at once.  There is no degree or lower-bound pre-check and no
    p_j = t_j + q_j: a target of negative degree has no (q, u) at all."""
    f = fiber_class(n)
    t = target.coords
    found = set()

    def scan(j, budget, total, parts):
        if j > n:
            if total + budget * f == target:
                found.add(tuple(sorted(((c, m) for c, m in parts + [(f, budget)]
                                        if m), key=lambda cm: cm[0].coords)))
            return
        e = unit(n, j)
        for q in range(budget + 1):
            for p in range(t[0] + abs(t[j]) + 1):
                step = total + p * e + q * (f - e)
                if step.coords[j] == t[j]:
                    scan(j + 1, budget - q, step, parts + [(e, p), (f - e, q)])

    scan(2, t[0], CohClass((0,) * (n + 1)), [])
    return found


def _hexagon_subgroups():
    """(sorted elements, vertex-transitive, edge-transitive) of every subgroup.

    Every subgroup of the hexagon symmetries is closed breadth-first from
    one or two of its twelve elements.  Vertex i goes to r + i under a
    rotation and to c - i under a reflection; edge i joins vertices i and
    i + 1, and an orbit is grown to a fixed point under the elements.
    """
    elems = [tuple((i + r) % 6 for i in range(6)) for r in range(6)] + \
            [tuple((c - i) % 6 for i in range(6)) for c in range(6)]
    ident = tuple(range(6))

    def compose(p, q):
        return tuple(p[q[i]] for i in range(6))

    def edge_perm(vp):
        out = []
        for i in range(6):
            a, b = vp[i], vp[(i + 1) % 6]
            out.append(a if (a + 1) % 6 == b else b)
        return tuple(out)

    def transitive(perms):
        orbit = {0}
        changed = True
        while changed:
            changed = False
            for p in perms:
                for x in list(orbit):
                    if p[x] not in orbit:
                        orbit.add(p[x])
                        changed = True
        return len(orbit) == 6

    subgroups = set()
    for gens in [()] + [(g,) for g in elems] + \
            list(itertools.combinations(elems, 2)):
        group = {ident}
        frontier = [ident]
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    y = compose(x, g)
                    if y not in group:
                        group.add(y)
                        new.append(y)
            frontier = new
        subgroups.add(frozenset(group))
    return [(tuple(sorted(sg)), transitive(sg),
             transitive([edge_perm(p) for p in sg])) for sg in subgroups]


def hexagon_edge_transitive_subgroup_orders():
    """Orders of ALL edge-transitive subgroups of the hexagon symmetries.

    Includes the subgroup generated by the third-turn rotations and the
    vertex reflections, which is edge-transitive but not vertex-transitive;
    the library's transitivity notion excludes it.
    """
    return sorted(len(perms) for perms, _, edges in _hexagon_subgroups()
                  if edges)


def transitive_hexagon_subgroups_by_closure():
    """The vertex- and edge-transitive subgroups, as the library returns them.

    A subgroup is cyclic when some element's powers reach all of it.
    """
    def element_order(p):
        q, k = p, 1
        while q != tuple(range(6)):
            q, k = tuple(p[i] for i in q), k + 1
        return k

    out = [HexagonSubgroup(len(perms),
                           any(element_order(p) == len(perms) for p in perms),
                           perms)
           for perms, vertices, edges in _hexagon_subgroups()
           if vertices and edges]
    out.sort(key=lambda s: (s.order, s.vertex_perms))
    return tuple(out)


def _bfs(identity, gens):
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def monomial_group_by_closure(kind, n, k=None, s=None):
    """Sorted elements of a monomial group, closed breadth-first."""
    gens = _imprimitive_generators(kind, n, k, s)[0]
    seen = _bfs(MonomialGroupElement.identity(n), gens)
    return tuple(sorted(seen, key=lambda g: (g.perm, g.scalars)))


def monomial_group_elements(group):
    """The elements of a ``MonomialGroup``, expanded from its factors: each
    p of the complement and t of the torus give
    ``MonomialGroupElement(p, (0,) + t, n)``, in sorted order."""
    return tuple(MonomialGroupElement(p, (0,) + t, group.n)
                 for p in group.complement for t in group.torus)


@dataclass(frozen=True)
class AngleTorus:
    """A torus element as its first-vertex angles in Q/Z.

    The angles are ``Fraction``s reduced to [0, 1) and composition adds
    them; ``TorusElement(a, b, n)`` is the angle pair (a/n, b/n).
    """

    angles: tuple

    def __post_init__(self):
        object.__setattr__(self, "angles",
                           tuple(x - floor(x) for x in map(Fraction, self.angles)))

    @classmethod
    def of(cls, h):
        """The angles of a ``TorusElement``."""
        return cls((Fraction(h.a, h.modulus), Fraction(h.b, h.modulus)))

    @property
    def order(self):
        t, u = self.angles
        return t.denominator * u.denominator // gcd(t.denominator, u.denominator)

    def rotation_numbers(self, n=None):
        n = self.order if n is None else n
        a, b = (x * n for x in self.angles)
        if a.denominator != 1 or b.denominator != 1:
            raise LatticeError(f"element order does not divide {n}")
        return (int(a) % n, int(b) % n)

    def __mul__(self, other):
        return AngleTorus(tuple(x + y for x, y in zip(self.angles, other.angles)))

    def inverse(self):
        return AngleTorus(tuple(-x for x in self.angles))

    def __pow__(self, k):
        return AngleTorus(tuple(k * x for x in self.angles))

    def conjugate_by_rotation(self, steps=1):
        return AngleTorus(propagate_rotation(self.angles)[(-steps) % 6])


def fiber_action_by_classes(g, model):
    """(pi, eps) from each sphere's image under ``Isometry.apply``."""
    f = model.fiber
    plus = {e.coords: j for j, e in zip(model.labels(), model.sphere_classes)}
    minus = {(f - e).coords: j
             for j, e in zip(model.labels(), model.sphere_classes)}
    pi, eps = [], []
    for e in model.sphere_classes:
        img = g.apply(e).coords
        if img in plus:
            pi.append(plus[img])
            eps.append(1)
        else:
            pi.append(minus[img])
            eps.append(-1)
    return FiberAction(tuple(pi), tuple(eps))


def bundle_data_by_listing(group):
    """``decompose``'s (q_elements, p_structure, minimal) on the standard
    model, read off the columns of every listed element.

    Column j >= 2 of a bundle isometry is E_k, or F - E_k = H - E1 - E_k
    when fiber j is swapped, k being fiber j's image: k is the row of the
    column's nonzero entry below row 1, and the H row holds 1 exactly on
    the swapped fibers.
    """
    import numpy as np
    arr = group.element_array().astype(np.int64)
    n = arr.shape[1] - 1
    pi = 2 + np.abs(arr[:, 2:, 2:]).argmax(axis=1)
    fixed = pi == np.arange(2, n + 1)
    q = tuple(Isometry(tuple(map(tuple, m)))
              for m in arr[fixed.all(axis=1)].tolist())
    p_structure = tuple(sorted(set(map(tuple, pi.tolist()))))
    switched = fixed & (arr[:, 0, 2:] == 1)
    return q, p_structure, bool(switched.any(axis=0).all())


def bundle_data_by_products(elements, model):
    """``decompose``'s (q_elements, p_structure, minimal) on a list.

    Each element's fiber action is taken once, a repeated element is
    refused, and every product of two actions is looked up among them, so
    closure is checked with |S|^2 products.  Q is the base-trivial elements
    in input order, P the base permutations, and minimality is read over
    every action.
    """
    pairs = [(g, fiber_action(g, model)) for g in elements]
    actions = [a for _, a in pairs]
    present = set(actions)
    if len(present) != len(actions):
        raise LatticeError("input group lists an element more than once")
    for a in actions:
        for b in actions:
            if a.compose(b) not in present:
                raise LatticeError("input group is not closed under products")
    q = tuple(g for g, a in pairs if _is_base_trivial(a))
    lifts = {a.pi: a for a in actions}
    return q, tuple(sorted(lifts)), _is_minimal_by_eps(actions, model)


def matrix_from_fiber_action_by_classes(pi, eps, n):
    """Rows of the lift with E1 -> (sum of the Ej images - K - 3F) / 2.

    The columns are summed as ``CohClass`` values; the result is the bare
    tuple of rows, so comparing it costs no second pairing check.
    """
    f, k = fiber_class(n), canonical_class(n)
    images = [unit(n, p) if e == 1 else f - unit(n, p) for p, e in zip(pi, eps)]
    total = CohClass((0,) * (n + 1))
    for img in images:
        total = total + img
    num = total - k - 3 * f
    e1_img = CohClass(tuple(c // 2 for c in num.coords))
    cols = [(f + e1_img).coords, e1_img.coords] + [img.coords for img in images]
    return tuple(zip(*cols))


# -- the matrix routes of the conic-bundle classifier ---------------------------
#
# ``gconic`` reads each isometry's fiber action once and works on swap masks
# from then on.  The routes below are the ones it replaced: the action read
# off full row and column tuples with F and K checked first, the
# classification on eps tuples (residues by comparing flags, minimality and
# the sigma sets by label, the involution and cover checks kept), and Q's
# independence of the labelling by comparing the keys of the matrices.

def fiber_action_by_rows(g, model):
    """(pi, eps) with F and K read off the rows and each sphere's image
    summed from the columns its coordinates select."""
    n = model.n_blowups
    if g.n != n:
        raise LatticeError("dimension mismatch")
    if tuple([r[0] - r[1] for r in g.mat]) != (1, -1) + (0,) * (n - 1):
        raise LatticeError("isometry does not fix the fiber class")
    if tuple([sum(r) - 4 * r[0] for r in g.mat]) != (-3,) + (1,) * n:
        raise LatticeError("isometry does not fix the canonical class")
    cols = tuple(zip(*g.mat))
    pi, eps = [], []
    for e in model.sphere_classes:
        terms = [[c * v for v in cols[i]] for i, c in enumerate(e.coords) if c]
        hit = model.components.get(tuple(map(sum, zip(*terms))))
        if hit is None:
            raise LatticeError(f"isometry moves {e} out of the singular fibers")
        pi.append(hit[0])
        eps.append(hit[1])
    return FiberAction(tuple(pi), tuple(eps))


def _is_base_trivial(a):
    return a.pi == tuple(range(2, 2 + len(a.pi)))


def _sigma_by_eps(a):
    """Fiber labels whose pair the action preserves componentwise."""
    return tuple(j for j, p, e in zip(range(2, 2 + len(a.pi)), a.pi, a.eps)
                 if p == j and e == 1)


def _is_minimal_by_eps(actions, model):
    needed = set(model.labels())
    for act in actions:
        needed.difference_update(
            j for j, p, e in zip(model.labels(), act.pi, act.eps)
            if p == j and e == -1)
    return not needed


def _bundle_structure_by_eps(actions, n, bound):
    """``gconic._bundle_structure`` with each residue's mask read off the
    two flag tuples."""
    identity = FiberAction.identity(n - 1)
    lifts, queue, basis, gens = {identity.pi: identity}, [identity], [], []

    def residue(lift, g):
        v = sum(1 << t for t, (a, b) in enumerate(zip(lift.eps, g.eps)) if a != b)
        for b in basis:
            v = min(v, v ^ b)
        return v

    for s in actions:
        have = lifts.get(s.pi)
        if have is not None and not residue(have, s):
            continue
        gens.append(s)
        old = len(queue)
        for i, lift in enumerate(queue):
            if len(queue) << len(basis) > bound:
                break
            for t in gens if i >= old else gens[-1:]:
                g = t.compose(lift)
                have = lifts.setdefault(g.pi, g)
                if have is g:
                    queue.append(g)
                elif have.eps != g.eps and len(basis) < n - 2:
                    v = residue(have, g)
                    if v:
                        basis = sorted(basis + [v], reverse=True)
    span = [0]
    for b in basis:
        span += [v ^ b for v in span]
    return lifts, span


def _sigma_partition_by_eps(actions, model):
    identity = FiberAction.identity(model.n_blowups - 1)
    taus = [a for a in actions if a != identity]
    if len(taus) != 3 or len(set(taus)) != 3:
        raise LatticeError("exactly three distinct involutions expected")
    for a in taus:
        if not _is_base_trivial(a):
            raise LatticeError("involutions must act trivially on the base")
        if a.compose(a) != identity:
            raise LatticeError("non-involution in the base-trivial subgroup")
    if taus[0].compose(taus[1]) != taus[2]:
        raise LatticeError("the involutions do not form a Klein four group")
    sigmas = [set(_sigma_by_eps(a)) for a in taus]
    for i in range(3):
        for j in range(i + 1, 3):
            common = sigmas[i] & sigmas[j]
            if common:
                raise InvariantViolation(
                    f"fibers {sorted(common)} are preserved componentwise by"
                    f" two distinct involutions")
    if set().union(*sigmas) != set(model.labels()):
        raise InvariantViolation("fiber partition does not cover all fibers")
    n = model.n_blowups
    out = tuple(tuple(sorted(s)) for s in sigmas)
    return out + (all(len(s) % 2 == (n - 1) % 2 for s in sigmas),)


def decompose_by_matrices(group, model, g0_order=1):
    """``gconic.decompose`` with every action read by
    ``fiber_action_by_rows`` and the classification on eps tuples."""
    generated = isinstance(group, FiniteIsometryGroup)
    elements = group.generators if generated else list(group)
    if not elements:
        raise LatticeError("input group is empty")
    if type(g0_order) is not int:
        raise LatticeError("the declared core order must be an int")
    if g0_order < 1:
        raise LatticeError("the declared core order must be at least 1")
    n, m = model.n_blowups, g0_order
    actions = [fiber_action_by_rows(g, model) for g in elements]
    if not generated and len(set(actions)) != len(actions):
        raise LatticeError("input group lists an element more than once")
    order = group.order if generated else len(actions)
    lifts, span = _bundle_structure_by_eps(actions, n, order)
    if len(lifts) * len(span) != order:
        if not generated:
            raise LatticeError("input group is not closed under products")
        raise InvariantViolation(f"|P| |Q| = {len(lifts)} * {len(span)}"
                                 f" for a group of order {order}")
    if generated:
        pi = tuple(model.labels())
        fibers = [model.components[unit(n, k).coords][0] - 2 for k in pi]
        q_pairs = []
        for v in span:
            eps = tuple(-1 if v >> t & 1 else 1 for t in range(n - 1))
            g = matrix_from_fiber_action(pi, [eps[t] for t in fibers], n)
            q_pairs.append((g, FiberAction(pi, eps)))
        q_pairs.sort(key=lambda pair: pair[0].key())
    else:
        q_pairs = [(g, a) for g, a in zip(elements, actions) if _is_base_trivial(a)]
    q = tuple(g for g, _ in q_pairs)
    minimal = _is_minimal_by_eps([*lifts.values(), *(a for _, a in q_pairs)], model)
    identity = FiberAction.identity(n - 1)
    nontrivial = [a for _, a in q_pairs if a != identity]
    for a in nontrivial:
        if a.compose(a) != identity:
            raise InvariantViolation("base-trivial element is not an involution")
    sigma_sets = sigma_sizes = parity = None
    q_image = {1: "trivial", 2: "Z2", 4: "Z2xZ2"}.get(
        len(q), f"elementary-2 of order {len(q)}")
    if m > 1:
        if n % 2 == 0:
            raise LatticeError("a nontrivial core forces an odd number of blowups")
        full = all(e == -1 for a in nontrivial for e in a.eps)
        shape_ok = len(nontrivial) <= 1 and full
        if shape_ok and nontrivial:
            q_abstract = (f"D{2 * m}",)
        else:
            q_abstract = (f"Z{m}",) if shape_ok and m % 2 == 0 else ()
        if minimal:
            if not shape_ok:
                raise LatticeError(
                    "nontrivial core with a base-trivial image outside {id, full swap}")
            if not nontrivial and m % 2:
                raise LatticeError(
                    "core-only base kernel needs an even core order")
            tag = CASE_CYCLIC_CORE
        else:
            tag = CASE_NON_MINIMAL
    elif len(q) == 2:
        tag = CASE_INVOLUTION if minimal else CASE_NON_MINIMAL
        q_abstract = ("Z2",)
        sig = _sigma_by_eps(nontrivial[0])
        sigma_sets, sigma_sizes = (sig,), (len(sig),)
        parity = len(sig) % 2 == (n - 1) % 2
    elif len(q) == 4:
        tag = CASE_KLEIN if minimal else CASE_NON_MINIMAL
        q_abstract = ("Z2xZ2",)
        s1, s2, s3, parity = _sigma_partition_by_eps(nontrivial, model)
        sigma_sets = (s1, s2, s3)
        sigma_sizes = (len(s1), len(s2), len(s3))
    elif minimal:
        raise InvariantViolation(
            f"minimal bundle with base-trivial image of order {len(q)}")
    else:
        tag, q_abstract = CASE_NON_MINIMAL, ()
    return GroupDecomposition(q, m, tuple(sorted(lifts)), tag, minimal, q_image,
                              q_abstract, sigma_sets, sigma_sizes, parity)


def q_subgroup(group, model):
    """Elements leaving each singular fiber invariant (pi = identity)."""
    return tuple(g for g in group
                 if _is_base_trivial(fiber_action_by_rows(g, model)))


def q_invariance_by_keys(model, model_prime, group):
    """``gconic.q_invariance_check`` listing the group and comparing the
    keys of the two Q subsets."""
    if model.n_blowups != model_prime.n_blowups:
        raise LatticeError("models live on different lattices")
    elements = list(group)
    q1 = {g.key() for g in q_subgroup(elements, model)}
    q2 = {g.key() for g in q_subgroup(elements, model_prime)}
    return q1 == q2


def sort_rows_by_columns(arr):
    """Row-major value order, keys packed four int16 columns at a time."""
    import numpy as np
    if arr.shape[0] < 2:
        return arr
    biased = arr.view(np.uint16) ^ np.uint16(0x8000)
    keys = []
    for c0 in range(0, arr.shape[1], 4):
        packed = np.zeros(arr.shape[0], dtype=np.uint64)
        for j in range(c0, min(c0 + 4, arr.shape[1])):
            packed <<= np.uint64(16)
            packed |= biased[:, j].astype(np.uint64)
        keys.append(packed)
    return arr[np.lexsort(tuple(reversed(keys)))]


def trace_vector_by_einsum(group):
    """Each element's trace, from an int64 copy of the whole listing."""
    import numpy as np
    return np.einsum("kii->k", group.element_array().astype(np.int64))


def group_by_bfs(gens, limit=10_000_000, chunk_size=32768):
    """Sorted element array of the closure, breadth-first over byte keys.

    The closure ``weyl.generate_group`` used before it listed elements
    from a stabilizer chain, with the same exceptions and messages.
    """
    import numpy as np
    if not gens:
        raise LatticeError("at least one generator required")
    dim = gens[0].dim
    if any(g.dim != dim for g in gens):
        raise LatticeError("generators act on different lattices")
    dd = dim * dim
    row_bytes = dd * 2
    gen_mats = [np.array(g.mat, dtype=np.float64) for g in gens]
    ident = np.eye(dim, dtype=np.int16).reshape(1, dd)
    seen = {ident.tobytes()}
    chunks = [ident]
    frontier = ident
    while frontier.shape[0]:
        new_parts = []
        for start in range(0, frontier.shape[0], chunk_size):
            blk = frontier[start:start + chunk_size].astype(np.float64)
            blk = blk.reshape(-1, dim)
            for gm in gen_mats:
                prod = (blk @ gm).reshape(-1, dd)
                if prod.size and float(np.abs(prod).max()) > 32767:
                    raise LimitExceeded("matrix entries exceeded supported range")
                flat = np.ascontiguousarray(prod.astype(np.int16))
                raw = flat.tobytes()
                fresh = []
                for r in range(flat.shape[0]):
                    key = raw[r * row_bytes:(r + 1) * row_bytes]
                    if key not in seen:
                        seen.add(key)
                        fresh.append(r)
                if fresh:
                    new_parts.append(flat[fresh])
            if len(seen) > limit:
                raise LimitExceeded(f"group closure exceeded limit {limit}")
        if new_parts:
            frontier = np.concatenate(new_parts)
            chunks.append(frontier)
        else:
            frontier = np.empty((0, dd), dtype=np.int16)
    elements = sort_rows_by_columns(np.concatenate(chunks))
    if int(np.abs(elements).max()) <= 127:
        elements = elements.astype(np.int8)
    return elements.reshape(len(seen), dim, dim)


def apply_route(gens, points):
    """Each generator's permutation of ``points``, one ``Isometry.apply`` each."""
    index = {p.coords: i for i, p in enumerate(points)}
    return [tuple(index[g.apply(p).coords] for p in points) for g in gens]


def root_chain(gens):
    """Stabilizer chain of the action on ``all_roots(n)``, for 3 <= N <= 8.

    The roots span K's orthogonal complement, so the action is faithful
    on generators fixing K.  Its points and permutation code are not the
    ones ``weyl.group_order_via_chain`` uses.
    """
    n = gens[0].n
    if not all(g.fixes(canonical_class(n)) for g in gens):
        raise LatticeError("the root action is faithful only when K is fixed")
    roots = all_roots(n)
    chain = StabilizerChain(len(roots))
    chain.add_all(apply_route(gens, roots))
    return chain


# The E7 Coxeter diagram on ``simple_reflections(7)``: root 0 is
# H - E1 - E2 - E3 and joins root 3; root i is Ei - E(i+1).
E7_EDGES = frozenset({(0, 3)} | {(i, i + 1) for i in range(1, 6)})


def parabolic_order(nodes):
    """|W_J| for a set J of E7's simple reflections: the product over the
    connected components of J of |W(A_k)| = (k+1)!, |W(D_k)| =
    2^(k-1) k!, |W(E6)| = 51,840 or |W(E7)| = 2,903,040, the type read off
    the arm lengths at the branch node."""
    nbrs = {v: {w for e in E7_EDGES if v in e for w in e if w != v} & set(nodes)
            for v in nodes}
    todo, order = set(nodes), 1
    while todo:
        comp, stack = set(), [todo.pop()]
        while stack:
            v = stack.pop()
            comp.add(v)
            stack += nbrs[v] - comp
        todo -= comp
        k = len(comp)
        branch = [v for v in comp if len(nbrs[v]) == 3]
        if not branch:
            order *= factorial(k + 1)
            continue
        arms = []
        for start in nbrs[branch[0]]:
            prev, cur, length = branch[0], start, 1
            while len(nbrs[cur]) == 2:
                prev, cur = cur, next(iter(nbrs[cur] - {prev}))
                length += 1
            arms.append(length)
        arms.sort()
        if arms[:2] == [1, 1]:
            order *= 2 ** (k - 1) * factorial(k)
        else:
            order *= {(1, 2, 2): 51840, (1, 2, 3): 2903040}[tuple(arms)]
    return order


def invariant_lattice_all_rows(gens):
    """(rank, basis) of the sublattice every generator fixes, from the
    kernel of every row of the stacked g - I, zero rows included, with
    each basis vector validated as a ``CohClass``."""
    dim = gens[0].dim
    rows = [[v - (i == j) for j, v in enumerate(row)]
            for g in gens for i, row in enumerate(g.mat)]
    kernel = integer_kernel(rows, dim)
    return len(kernel), tuple(CohClass(v) for v in kernel)
