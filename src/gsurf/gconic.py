"""Combinatorics of conic-bundle group actions on the degree-2 lattice.

The standard bundle model on N blowups has fiber class F = H - E1 and
N - 1 singular fibers, each a pair of exceptional classes (Ej, H - E1 - Ej)
summing to F.  A bundle-preserving isometry fixes F and K and permutes the
pairs; it is encoded by a permutation pi of the fiber labels together with
swap flags eps (eps = -1 sends the chosen sphere of a fiber to the other
component of its image fiber).  Conversely (pi, eps) determines the matrix,
and an integral lift exists precisely when the number of swapped fibers is
even.
"""

from __future__ import annotations

import itertools
from operator import mul, ne
from typing import TYPE_CHECKING, Iterable, List, NamedTuple, Optional, Sequence

from .errors import InvariantViolation, LatticeError, _Frozen
from .lattice import (CohClass, Isometry, canonical_class, fiber_class, pairing,
                      unit)
from .weyl import FiniteIsometryGroup

if TYPE_CHECKING:
    import numpy as np

CASE_CYCLIC_CORE = "cyclic-core"
CASE_INVOLUTION = "involution"
CASE_KLEIN = "klein-four"
CASE_NON_MINIMAL = "non-minimal"


class ConicBundleModel(_Frozen):
    """Fiber class H - E1 with one chosen sphere class per singular fiber.

    The default choice is (E2, ..., EN); a relabeled model may pick the
    other component of a fiber or permute the fibers, as long as the set
    of unordered pairs {e, F - e} is the standard one.  ``components``
    maps the coordinates of both components of every fiber to (label, +1)
    for the chosen sphere and (label, -1) for the other one; it is left
    out of equality and repr.
    """

    _fields = ("n_blowups", "sphere_classes")
    __slots__ = _fields + ("components",)

    def __init__(self, n_blowups: int, sphere_classes: tuple = None):
        n = n_blowups
        if n < 3:
            raise LatticeError("a conic bundle model needs at least 3 blowups")
        spheres = tuple(unit(n, j) for j in range(2, n + 1)) \
            if sphere_classes is None else tuple(sphere_classes)
        f = fiber_class(n)
        k = canonical_class(n)
        components = {}
        for j, e in enumerate(spheres, start=2):
            if e.n != n:
                raise LatticeError("sphere class of wrong dimension")
            if e.square() != -1 or pairing(k, e) != -1 or pairing(f, e) != 0:
                raise LatticeError(f"{e} is not a vertical sphere class")
            components[e.coords] = (j, 1)
            components[(f - e).coords] = (j, -1)
        # Every vertical sphere class is some Ej or H - E1 - Ej (j >= 2), so
        # the standard fibers are labelled iff N - 1 spheres hit N - 1 fibers.
        if len(spheres) != n - 1 or len(components) != 2 * (n - 1):
            raise LatticeError("sphere classes do not label the standard fibers")
        object.__setattr__(self, "n_blowups", n_blowups)
        object.__setattr__(self, "sphere_classes", spheres)
        object.__setattr__(self, "components", components)

    @property
    def fiber(self) -> CohClass:
        return fiber_class(self.n_blowups)

    def labels(self) -> range:
        """Fiber labels j = 2..N; label j names sphere_classes[j-2]."""
        return range(2, self.n_blowups + 1)


class FiberAction(_Frozen):
    """Permutation-with-swap-flags data of a bundle-preserving isometry.

    ``pi[j-2]`` is the image fiber label of fiber j and ``eps[j-2]`` is +1
    when the chosen sphere goes to the chosen sphere, -1 when it goes to
    the other component.
    """

    __slots__ = _fields = ("pi", "eps")

    def __init__(self, pi: tuple, eps: tuple):
        if sorted(pi) != list(range(2, 2 + len(pi))):
            raise LatticeError("pi is not a permutation of the fiber labels")
        if len(eps) != len(pi) or \
                any(type(e) is not int or e not in (1, -1) for e in eps):
            raise LatticeError("eps must consist of +1/-1 flags")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "eps", eps)

    @classmethod
    def _trusted(cls, pi: tuple, eps: tuple) -> "FiberAction":
        """Unchecked: for a label permutation and int +1/-1 flags."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "pi", pi)
        object.__setattr__(obj, "eps", eps)
        return obj

    @classmethod
    def identity(cls, size: int) -> "FiberAction":
        return cls(tuple(range(2, 2 + size)), (1,) * size)

    @property
    def size(self) -> int:
        return len(self.pi)

    def is_base_trivial(self) -> bool:
        return all(self.pi[t] == t + 2 for t in range(self.size))

    def swap_count(self) -> int:
        return sum(1 for e in self.eps if e == -1)

    def sigma(self) -> tuple:
        """Fiber labels whose pair is preserved componentwise."""
        return tuple(j for t, j in enumerate(range(2, 2 + self.size))
                     if self.pi[t] == j and self.eps[t] == 1)

    def compose(self, other: "FiberAction") -> "FiberAction":
        """Action of g @ h given self = action(g), other = action(h); trusted,
        as permutations compose to one and +1/-1 flags multiply to one."""
        if self.size != other.size:
            raise LatticeError("size mismatch")
        pi, eps = self.pi, self.eps
        return FiberAction._trusted(
            tuple([pi[p - 2] for p in other.pi]),
            tuple([eps[p - 2] * e for p, e in zip(other.pi, other.eps)]))


def fiber_action(g: Isometry, model: ConicBundleModel) -> FiberAction:
    """Extract (pi, eps) from a matrix, or fail if it breaks the bundle.

    F and K go to col0 - col1 and -3 col0 + col1 + ... + colN.  Each
    sphere's image, a sum of the columns its coordinates select, is looked
    up in the model's component table.
    """
    n = model.n_blowups
    if g.n != n:
        raise LatticeError("dimension mismatch")
    if tuple([r[0] - r[1] for r in g.mat]) != (1, -1) + (0,) * (n - 1):
        raise LatticeError("isometry does not fix the fiber class")
    if tuple([sum(r) - 4 * r[0] for r in g.mat]) != (-3,) + (1,) * n:
        raise LatticeError("isometry does not fix the canonical class")
    cols = tuple(zip(*g.mat))
    pi: List[int] = []
    eps: List[int] = []
    for e in model.sphere_classes:
        terms = [cols[i] if c == 1 else [c * v for v in cols[i]]
                 for i, c in enumerate(e.coords) if c]
        img = tuple(map(sum, zip(*terms)))
        hit = model.components.get(img)
        if hit is None:
            raise LatticeError(f"isometry moves {e} out of the singular fibers")
        pi.append(hit[0])
        eps.append(hit[1])
    return FiberAction(tuple(pi), tuple(eps))


def matrix_from_fiber_action(pi: Sequence[int], eps: Sequence[int],
                             n: int) -> Isometry:
    """Integral isometry realizing (pi, eps) on the standard model.

    The column of Ej is E_pi(j), or F - E_pi(j) when fiber j is swapped.
    Fixing F and K forces E1 -> (sum of the Ej images - K - 3F) / 2; with
    s swapped fibers, whose images form the set S, that is

        E1 -> (s/2) H + (1 - s/2) E1 - sum of Ep over p in S,

    integral iff s is even, and H = F + E1 goes to F plus E1's image.
    Trusted after these checks: the sphere images are (-1)-classes in
    distinct fibers; E1's squares to -1, meets F once and misses them, so
    H's, F + E1', squares to 1 and the Gram matrix is diag(1, -1, ..., -1).
    """
    action = FiberAction(tuple(pi), tuple(eps))
    if action.size != n - 1:
        raise LatticeError("wrong number of fiber labels")
    s = action.swap_count()
    if s % 2:
        raise LatticeError(
            "no integral lift: the number of swapped fibers must be even")
    sign = dict(zip(action.pi, action.eps))
    e1_img = [s // 2, 1 - s // 2] + [min(sign[p], 0) for p in range(2, n + 1)]
    cols = [[e1_img[0] + 1, e1_img[1] - 1] + e1_img[2:], e1_img]
    for p, e in zip(action.pi, action.eps):
        col = [0] * (n + 1) if e == 1 else [1, -1] + [0] * (n - 1)
        col[p] = e
        cols.append(col)
    return Isometry._trusted(tuple(zip(*cols)))


def full_swap(n: int) -> Isometry:
    """The involution sending every Ej to H - E1 - Ej (N must be odd)."""
    return matrix_from_fiber_action(tuple(range(2, n + 1)), (-1,) * (n - 1), n)


def _is_minimal(actions: Iterable[FiberAction], model: ConicBundleModel) -> bool:
    """Every fiber is switched by some element fixing that fiber."""
    needed = set(model.labels())
    for act in actions:
        needed.difference_update(
            j for j, p, e in zip(model.labels(), act.pi, act.eps)
            if p == j and e == -1)
        if not needed:
            return True
    return not needed


class GroupDecomposition(NamedTuple):
    """The (base-trivial subgroup, declared core, base action) data.

    ``q_elements`` is the image of Q in the isometry group: the elements
    acting trivially on the base, in input order for a list, and rebuilt
    from Q's swap masks and sorted by ``Isometry.key`` for a generated
    group (the order of its listing).  ``p_structure`` is P, the sorted
    set of the base permutations pi, so |P| <= (N - 1)!.  Both come from
    one breadth-first search over the fiber actions of the generators or
    of the listed elements, and |P| |Q| is the order of the group.
    ``minimal`` says whether every fiber is switched by some element
    fixing it.  The subgroup acting trivially on the whole lattice is
    invisible here, so its order m is declared by the caller.
    ``case_tag`` follows the classification of minimal bundles:
    ``cyclic-core`` (m > 1), ``involution`` / ``klein-four`` (m = 1), or
    ``non-minimal``.
    """

    q_elements: tuple
    g0_size: int
    p_structure: tuple
    case_tag: str
    minimal: bool
    q_image: str
    q_abstract: tuple
    sigma_sets: Optional[tuple]
    sigma_sizes: Optional[tuple]
    parity_ok: Optional[bool]


def decompose(group, model: ConicBundleModel, g0_order: int = 1) -> GroupDecomposition:
    """Split a closed isometry group along the bundle and classify it.

    The classification runs on signed permutations: ``fiber_action`` is a
    faithful homomorphism on isometries fixing F and K, so this is exact.
    A ``FiniteIsometryGroup`` is read off its generators and never
    listed.  Any other collection of isometries must be nonempty and
    without repeats, and is read as a generating set of itself.  Either
    way each element's fiber action is taken once, and one that breaks
    the bundle raises ``fiber_action``'s LatticeError.

    *P.*  Breadth-first from the identity: for a queued lift l and a
    generator s, g = s l becomes the lift of g.pi if that permutation is
    new.  As G is finite, this reaches every base permutation.  The
    generators are taken in turn.  One already in the group built so far
    is skipped: s lies in it exactly when s.pi has a lift l and the swap
    mask of l^-1 s (see Q) lies in that group's Q.  Any other extends the
    search in place: it is applied to the lifts found so far, and every
    generator to the lifts found after it, so each (lift, generator) pair
    is used exactly once.  Lifts are never replaced, so the residues
    found before are still those of the final lifts.

    *Q.*  The lifts are a transversal of the cosets gQ, which G permutes
    by left multiplication, so by Schreier's lemma (Seress, *Permutation
    Group Algorithms*, 2003, 4.2) Q is generated by the residues
    l(g.pi)^-1 g.  Such a residue fixes every fiber, with flag
    l(g.pi).eps[t] * g.eps[t] at fiber t, as both elements send fiber t
    to g.pi(t): its swap mask is the XOR of the two masks, with no
    inverse or product formed.  Q is an elementary abelian 2-group, the
    F2 span of these masks.  An integral lift swaps an even number of
    fibers, so rank N - 2 is the whole even-weight space and ends the
    reduction.

    *Closure.*  As the action is faithful, |P| |Q| is the order of the
    group generated.  For a ``FiniteIsometryGroup`` it must equal the
    order from the chain, an independent route; otherwise
    InvariantViolation.  A list lies in the group it generates, so a list
    without repeats is closed exactly when |P| |Q| equals its length;
    otherwise LatticeError.  The search stops once |P| |Q| passes that
    order, so a short list generating a large group is refused early.

    Q's isometries are, for a list, its base-trivial elements in input
    order.  For a generated group each mask's isometry is rebuilt by
    ``matrix_from_fiber_action`` after moving its flags to the standard
    fibers, as a base-trivial element swaps the same fibers in any model,
    and they are sorted by ``Isometry.key``, the order of the listing.

    *Minimality.*  Every element is l_p q with q in Q.  It fixes fiber j
    exactly when p(j) = j, and then its flag there is l_p.eps_j q.eps_j,
    so some element switches fiber j exactly when some lift fixing j or
    some element of Q switches it: ``_is_minimal`` over the lifts and
    Q's actions is exact.

    Structures incompatible with the classification of minimal bundles are
    reported as InvariantViolation: they cannot arise from a group action
    on the surface, only from adversarial lattice data.  A declared core
    order ``g0_order``, an ``int``, that valid lattice data contradicts is
    a LatticeError.
    """
    generated = isinstance(group, FiniteIsometryGroup)
    elements = group.generators if generated else list(group)
    if not elements:  # generate_group needs a generator
        raise LatticeError("input group is empty")
    if type(g0_order) is not int:
        raise LatticeError("the declared core order must be an int")
    if g0_order < 1:
        raise LatticeError("the declared core order must be at least 1")
    n = model.n_blowups
    actions = [fiber_action(g, model) for g in elements]
    if not generated and len(set(actions)) != len(actions):
        raise LatticeError("input group lists an element more than once")
    order = group.order if generated else len(actions)
    lifts, span = _bundle_structure(actions, model, order)
    if len(lifts) * len(span) != order:
        if not generated:
            raise LatticeError("input group is not closed under products")
        raise InvariantViolation(f"|P| |Q| = {len(lifts)} * {len(span)}"
                                 f" for a group of order {order}")
    if generated:
        q_pairs = _q_pairs(span, model)
    else:
        q_pairs = [(g, a) for g, a in zip(elements, actions) if a.is_base_trivial()]
    q = tuple(g for g, _ in q_pairs)
    p_structure = tuple(sorted(lifts))
    minimal = _is_minimal([*lifts.values(), *(a for _, a in q_pairs)], model)
    m = g0_order

    identity = FiberAction.identity(n - 1)
    nontrivial = [a for _, a in q_pairs if a != identity]
    for a in nontrivial:
        if a.compose(a) != identity:  # pragma: no cover - forced by the model
            raise InvariantViolation("base-trivial element is not an involution")

    sigma_sets = sigma_sizes = parity = None
    q_abstract: tuple
    q_image = _q_image_name(len(q))

    if m > 1:
        if n % 2 == 0:
            raise LatticeError("a nontrivial core forces an odd number of blowups")
        full = all(e == -1 for a in nontrivial for e in a.eps)
        shape_ok = len(nontrivial) <= 1 and full
        if shape_ok and nontrivial:
            q_abstract = (f"D{2 * m}",)
        elif shape_ok:
            q_abstract = (f"Z{m}",) if m % 2 == 0 else ()
        else:
            q_abstract = ()
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
    else:
        if len(q) == 2:
            tag = CASE_INVOLUTION if minimal else CASE_NON_MINIMAL
            q_abstract = ("Z2",)
            sig = nontrivial[0].sigma()
            sigma_sets = (sig,)
            sigma_sizes = (len(sig),)
            parity = len(sig) % 2 == (n - 1) % 2
        elif len(q) == 4:
            tag = CASE_KLEIN if minimal else CASE_NON_MINIMAL
            q_abstract = ("Z2xZ2",)
            s1, s2, s3, parity = _sigma_partition(nontrivial, model)
            sigma_sets = (s1, s2, s3)
            sigma_sizes = (len(s1), len(s2), len(s3))
        elif minimal:
            raise InvariantViolation(
                f"minimal bundle with base-trivial image of order {len(q)}")
        else:
            tag = CASE_NON_MINIMAL
            q_abstract = ()

    return GroupDecomposition(
        q_elements=q,
        g0_size=m,
        p_structure=p_structure,
        case_tag=tag,
        minimal=minimal,
        q_image=q_image,
        q_abstract=q_abstract,
        sigma_sets=sigma_sets,
        sigma_sizes=sigma_sizes,
        parity_ok=parity,
    )


def _bundle_structure(actions: Sequence[FiberAction], model: ConicBundleModel,
                      bound: int):
    """The lifts of the group the actions generate, keyed by base
    permutation, and the masks of its Q, as proved in ``decompose``.
    The search stops once |P| |Q| passes ``bound``."""
    n = model.n_blowups
    identity = FiberAction.identity(n - 1)
    lifts, queue, basis, gens = {identity.pi: identity}, [identity], [], []
    bits = [1 << t for t in range(n - 1)]

    def residue(lift, g):  # mask of lift^-1 g, reduced against the basis
        v = sum(itertools.compress(bits, map(ne, lift.eps, g.eps)))
        for b in basis:  # leading bits distinct, highest first
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


def _q_pairs(span: Sequence[int], model: ConicBundleModel) -> list:
    """Q's (isometry, action) pairs from its masks, sorted by
    ``Isometry.key``."""
    n = model.n_blowups
    pi = tuple(model.labels())
    fibers = [model.components[unit(n, k).coords][0] - 2 for k in model.labels()]
    q_pairs = []
    for v in span:
        eps = tuple([-1 if v >> t & 1 else 1 for t in range(n - 1)])
        g = matrix_from_fiber_action(pi, [eps[t] for t in fibers], n)
        q_pairs.append((g, FiberAction._trusted(pi, eps)))
    return sorted(q_pairs, key=lambda pair: pair[0].key())


def _q_image_name(size: int) -> str:
    return {1: "trivial", 2: "Z2", 4: "Z2xZ2"}.get(size, f"elementary-2 of order {size}")


def _sigma_partition(actions: Sequence[FiberAction], model: ConicBundleModel):
    """The fiber partition cut out by the three involutions of a Klein four.

    Sigma_i collects the fibers whose two spheres tau_i preserves; the sets
    must be pairwise disjoint and each size must be congruent to N - 1
    modulo 2.  Overlap means the data admits no group action on the
    surface and raises InvariantViolation.
    """
    identity = FiberAction.identity(model.n_blowups - 1)
    taus = [a for a in actions if a != identity]
    if len(taus) != 3 or len(set(taus)) != 3:
        raise LatticeError("exactly three distinct involutions expected")
    for a in taus:
        if not a.is_base_trivial():
            raise LatticeError("involutions must act trivially on the base")
        if a.compose(a) != identity:
            raise LatticeError("non-involution in the base-trivial subgroup")
    if taus[0].compose(taus[1]) != taus[2]:
        raise LatticeError("the involutions do not form a Klein four group")
    sigmas = [set(a.sigma()) for a in taus]
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
    parity_ok = all(len(s) % 2 == (n - 1) % 2 for s in sigmas)
    out = tuple(tuple(sorted(s)) for s in sigmas)
    return out[0], out[1], out[2], parity_ok


# ---------------------------------------------------------------------------
# Section classes and the counting identities
# ---------------------------------------------------------------------------

def section_class(n: int, c: int, marks: Sequence[int]) -> CohClass:
    """E1 + c*F + sum of Et over t in marks (the section normal form)."""
    if n < 1:
        raise LatticeError("need at least one blowup")
    coords = [0] * (n + 1)
    coords[0], coords[1] = c, 1 - c
    for t in marks:
        if not 2 <= t <= n:
            raise LatticeError(f"mark {t} out of range 2..{n}")
        if coords[t]:
            raise LatticeError(f"mark {t} repeated")
        coords[t] = 1
    return CohClass(tuple(coords))


def section_classes(n: int, c_min: int = -2, c_max: int = 2):
    """All section normal forms with c in [c_min, c_max]."""
    labels = list(range(2, n + 1))
    for c in range(c_min, c_max + 1):
        for r in range(len(labels) + 1):
            for marks in itertools.combinations(labels, r):
                yield section_class(n, c, marks)


_MARK_VALUES = frozenset((0, 1))


class SectionIdentity(_Frozen):
    # Kept without __slots__: one is built per section pair, and slots would
    # change that per-call cost, which the classify benchmark's op counts
    # (and with them its peak RSS) follow.
    _fields = ("r", "m", "m_prime", "product", "holds")

    def __init__(self, r: int, m: int, m_prime: int, product: int, holds: bool):
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "m_prime", m_prime)
        object.__setattr__(self, "product", product)
        object.__setattr__(self, "holds", holds)


def section_identity(e: CohClass, e_prime: CohClass,
                     model: ConicBundleModel) -> SectionIdentity:
    """Evaluate N - 1 = r + m + m' + 2 e.e' for two distinct sections.

    r counts the fibers where the two sections meet the same component,
    m and m' are the negated self-intersections.  Each field is read off
    the normal forms e = E1 + cF + sum of Et over t in A and
    e' = E1 + c'F + sum of Et over t in B (so the H coordinate is c and
    a mark coordinate is 1 exactly on A); with F.F = F.Et = 0, F.E1 = 1:

        e.e   = 2c - 1 - |A|,  so m = 1 + |A| - 2c,
        e.e'  = c + c' - 1 - |A & B|,
        r     = N - 1 - |A ^ B|,

    |A ^ B| being the number of mark coordinates where e and e' differ.
    None of them uses the identity, so ``holds`` still checks it.
    """
    n = model.n_blowups
    if e.n != n or e_prime.n != n:
        raise LatticeError("dimension mismatch")
    if e == e_prime:
        raise LatticeError("two distinct sections are required")
    a, b = e.coords, e_prime.coords
    marks, marks_p = a[2:], b[2:]
    for x, c, t in ((e, a, marks), (e_prime, b, marks_p)):
        if c[1] != 1 - c[0] or not _MARK_VALUES.issuperset(t):
            raise LatticeError(f"{x} is not in section normal form")
    r = n - 1 - sum(map(ne, marks, marks_p))
    m = 1 + sum(marks) - 2 * a[0]
    m_p = 1 + sum(marks_p) - 2 * b[0]
    prod = a[0] + b[0] - 1 - sum(map(mul, marks, marks_p))
    return SectionIdentity(r, m, m_p, prod, n - 1 == r + m + m_p + 2 * prod)


class SectionIdentityTable(_Frozen):
    """``section_identity`` on every pair of a sweep of section classes.

    ``classes`` holds the coordinates of ``section_classes(n, c_min,
    c_max)`` as rows, in that order; pair p is (classes[i[p]],
    classes[j[p]]) with i[p] < j[p], pairs in row-major order, and the
    other arrays hold that pair's fields.  A table equals only itself.
    """

    __slots__ = _fields = ("n", "classes", "i", "j", "r", "m", "m_prime",
                           "product", "holds")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, n: int, classes: np.ndarray, i: np.ndarray,
                 j: np.ndarray, r: np.ndarray, m: np.ndarray,
                 m_prime: np.ndarray, product: np.ndarray, holds: np.ndarray):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "m_prime", m_prime)
        object.__setattr__(self, "product", product)
        object.__setattr__(self, "holds", holds)


def section_identity_table(n: int, c_min: int = -2,
                           c_max: int = 2) -> SectionIdentityTable:
    """``section_identity`` on every pair i < j of ``section_classes``.

    With S the class coordinates as rows and Q = diag(1, -1, ..., -1),
    the integer Gram matrix S Q S^T holds every pairing: its diagonal
    e.e = 2c - 1 - |A| gives m, and its entry (i, j) is the product
    e.e' = c + c' - 1 - |A & B|.  Bit t - 2 of a class's mask is its mark
    coordinate at Et, so the XOR of two masks has its bits set on A ^ B
    and r = N - 1 - popcount(mask ^ mask'), read from a table of the
    2^(N-1) popcounts.  Every field comes from the coordinates, as in
    ``section_identity``; ``holds`` still checks the identity.  The int64
    products c*c' may wrap; int64 arithmetic is exact modulo 2^64, and
    every field, and the sum the identity checks, is below 8 max(|c|) + 5N
    in absolute value, so all of them are exact for |c| < 2^59.
    """
    import numpy as np
    if n < 3:
        raise LatticeError("a conic bundle model needs at least 3 blowups")
    coords = np.array([e.coords for e in section_classes(n, c_min, c_max)],
                      dtype=np.int64).reshape(-1, n + 1)
    signs = np.array((1,) + (-1,) * n, dtype=np.int64)
    gram = (coords * signs) @ coords.T
    masks = coords[:, 2:] @ (1 << np.arange(n - 1, dtype=np.int64))
    popcount = np.array([v.bit_count() for v in range(1 << (n - 1))],
                        dtype=np.int64)
    i, j = np.triu_indices(len(coords), 1)
    r = n - 1 - popcount[masks[i] ^ masks[j]]
    m = -gram.diagonal()
    m_i, m_j, product = m[i], m[j], gram[i, j]
    holds = n - 1 == r + m_i + m_j + 2 * product
    return SectionIdentityTable(n, coords, i, j, r, m_i, m_j, product, holds)


def max_swap_closed_section(n: int) -> int:
    """Largest self-intersection defect -m consistent with the swap counting.

    A section of self-intersection -m and its image under a component swap
    satisfy N - 1 = r + 2m + 2x with r, x >= 0.  When that forces
    (r, x) = (1, 0) the pair is disjoint and shares exactly one fiber;
    bringing in the swap image of the shared fiber adds the constraint
    r1 + r2 = N - 2 with both pair identities.  For even N >= 6 the answer
    is (N - 4)/2:

    - N - 1 is odd, so r is odd and m <= (N - 2)/2.
    - At m = (N - 2)/2 only (r, x) = (1, 0) solves the identity; the
      triple then has r1 = 1, r2 = N - 3 and 2*x2 = 4 - N, so it needs
      N = 4.
    - At m = (N - 4)/2 the solution (r, x) = (3, 0) needs no triple.

    The section E1 + E2 + ... + Em (c = 0) witnesses the square -m.
    """
    if n % 2 or n < 6:
        raise LatticeError("even N >= 6 required")
    m = (n - 4) // 2
    witness = section_class(n, 0, tuple(range(2, m + 1)))
    if witness.square() != -m:  # pragma: no cover
        raise InvariantViolation("section witness bookkeeping failed")
    return m


# ---------------------------------------------------------------------------
# Vertical decompositions
# ---------------------------------------------------------------------------

def vertical_decompositions(target: CohClass, model: ConicBundleModel) -> tuple:
    """Nonnegative integer combinations of {Ej, H-E1-Ej, H-E1} hitting target.

    Returns every solution as a sorted (class, multiplicity) tuple; the
    empty tuple of solutions means the class has no vertical representation.
    """
    n = model.n_blowups
    if target.n != n:
        raise LatticeError("dimension mismatch")
    t = target.coords
    s_total = t[0]
    if s_total < 0 or t[1] != -s_total:
        return ()
    f = model.fiber
    labels = list(model.labels())
    lower = [max(0, -t[j]) for j in labels]
    if sum(lower) > s_total:
        return ()
    out = []

    def rec(idx, budget, qs):
        if idx == len(labels):
            u = budget
            combo = []
            for j, q in zip(labels, qs):
                p = t[j] + q  # >= 0, as q >= lower
                if p:
                    combo.append((unit(n, j), p))
                if q:
                    combo.append((f - unit(n, j), q))
            if u:
                combo.append((f, u))
            out.append(tuple(sorted(combo, key=lambda cm: cm[0].coords)))
            return
        for q in range(lower[idx], budget - sum(lower[idx + 1:]) + 1):
            rec(idx + 1, budget - q, qs + [q])

    rec(0, s_total, [])  # distinct qs give distinct solutions
    return tuple(sorted(out, key=lambda dec: [(c.coords, m) for c, m in dec]))


def invariant_exceptional_n6() -> CohClass:
    """The class 2H - E2 - ... - E6 on six blowups, equal to -K - F.

    Exceptional, and invariant under any bundle-preserving group since both
    K and F are.
    """
    n = 6
    c = CohClass((2, 0, -1, -1, -1, -1, -1))
    k, f = canonical_class(n), fiber_class(n)
    if c.square() != -1 or pairing(k, c) != -1 or c != -1 * k - 1 * f:
        raise InvariantViolation("invariant exceptional class bookkeeping failed")
    return c


# ---------------------------------------------------------------------------
# Independence of Q from the adapted basis
# ---------------------------------------------------------------------------

def q_subgroup(group, model: ConicBundleModel) -> tuple:
    """Elements leaving each singular fiber invariant (pi = identity)."""
    return tuple(g for g in group if fiber_action(g, model).is_base_trivial())


def q_invariance_check(model: ConicBundleModel, model_prime: ConicBundleModel,
                       group) -> bool:
    """Q computed from either adapted labeling is the same subset.

    The primed model must label the same fibers: each primed sphere class
    lies in one of the standard pairs (this is enforced by the model
    constructor, which also pins F and K).
    """
    if model.n_blowups != model_prime.n_blowups:
        raise LatticeError("models live on different lattices")
    elements = list(group)
    q1 = {g.key() for g in q_subgroup(elements, model)}
    q2 = {g.key() for g in q_subgroup(elements, model_prime)}
    return q1 == q2
