"""Brute-force oracles: a second route to each of the library's results.

These recompute expected values by direct search so the main code paths
are checked against a second route: plain per-coordinate recursion here
versus the multiset enumerator in the package, a dict-based pure-Python
closure versus the vectorized one, and the scans that the package's closed
forms replaced (the a-scan blowdown obstruction and fiber pairs, the
m-scan of the largest swap-closed section, the section identity through
the lattice pairing, the expansion of each multiset through all of its
n! orderings, cone membership by exact ``Fraction`` areas, reducedness by
minimal exceptional areas beside the coefficient inequalities, the
breadth-first closures of the hexagon subgroups, the monomial
groups and torus kernels, torus elements as ``Fraction`` angles in Q/Z
beside the package's integer residues, the bundle isometries pushed
through ``CohClass`` arithmetic, a stabilizer chain on the roots beside the library's chain on
the orbits of the basis classes, traces read off an int64 copy of a
group's listing, and a bundle group's P, Q and minimality read off the
columns of its listing, or off a plain list checked for closure product
by product).
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, floor, gcd, isqrt

from gsurf.cone import FULL, OUTSIDE, PARTIAL_POSITIVE
from gsurf.errors import LatticeError, LimitExceeded
from gsurf.exceptional import (
    _multisets,
    enumerate_exceptional,
)
from gsurf.gconic import (
    FiberAction,
    SectionIdentity,
    _is_minimal,
    fiber_action,
    fiber_class,
)
from gsurf.hexagon import (
    HexagonSubgroup,
    MonomialGroupElement,
    TorusElement,
    _imprimitive_generators,
    gamma_generators,
    propagate_rotation,
)
from gsurf.lattice import CohClass, Isometry, canonical_class, pairing, unit
from gsurf.weyl import StabilizerChain, all_roots


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
    """Cone membership with each exceptional area paired in ``Fraction``s."""
    if w.square() <= 0:
        return OUTSIDE
    n = w.n
    exc = enumerate_exceptional(n) if n <= 8 \
        else enumerate_exceptional(n, max_degree)
    for e in exc:
        if w.area(e) <= 0:
            return OUTSIDE
    return FULL if exc.complete else PARTIAL_POSITIVE


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
    return tuple(sorted(seen, key=MonomialGroupElement.sort_key))


def torus_kernel_by_closure(n, k, b):
    """Sorted elements of the torus kernel, closed breadth-first."""
    seen = _bfs(TorusElement.identity(n), gamma_generators(n, k, b))
    return tuple(sorted(seen, key=TorusElement.sort_key))


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
    q = tuple(g for g, a in pairs if a.is_base_trivial())
    lifts = {a.pi: a for a in actions}
    return q, tuple(sorted(lifts)), _is_minimal(actions, model)


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
    for p in apply_route(gens, roots):
        chain.add(p)
    return chain
