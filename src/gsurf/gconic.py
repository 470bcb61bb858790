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
from operator import mul, ne, sub
from typing import Iterable, List, NamedTuple, Optional, Sequence

from .errors import InvariantViolation, LatticeError, _Frozen, _require_ints
from .lattice import (CohClass, Isometry, canonical_class, fiber_class, pairing,
                      unit)
from .weyl import FiniteIsometryGroup

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
    for the chosen sphere and (label, -1) for the other one.  ``columns``
    holds, per label, (i, +1) when the chosen sphere is Ei and (i, -1)
    when it is F - Ei.  Both are left out of equality and repr.
    """

    _fields = ("n_blowups", "sphere_classes")
    __slots__ = _fields + ("components", "columns")

    def __init__(self, n_blowups: int, sphere_classes: tuple = None):
        _require_ints(n_blowups=n_blowups)
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
        object.__setattr__(self, "columns", tuple(
            (next(i for i in range(2, n + 1) if e.coords[i]), 1 - 2 * e.coords[0])
            for e in spheres))

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
    the other component.  ``mask``, the swap mask, has bit j-2 set exactly
    when eps[j-2] = -1; it is left out of equality and repr.
    """

    _fields = ("pi", "eps")
    __slots__ = _fields + ("mask",)

    def __init__(self, pi: tuple, eps: tuple):
        if sorted(pi) != list(range(2, 2 + len(pi))):
            raise LatticeError("pi is not a permutation of the fiber labels")
        if len(eps) != len(pi) or \
                any(type(e) is not int or e not in (1, -1) for e in eps):
            raise LatticeError("eps must consist of +1/-1 flags")
        self._fill(pi, eps)

    @classmethod
    def _trusted(cls, pi: tuple, eps: tuple) -> "FiberAction":
        """Unchecked: for a label permutation and int +1/-1 flags."""
        return object.__new__(cls)._fill(pi, eps)

    def _fill(self, pi, eps):
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "mask",
                           sum([1 << t for t, e in enumerate(eps) if e < 0]))
        return self

    @classmethod
    def identity(cls, size: int) -> "FiberAction":
        return cls._trusted(tuple(range(2, 2 + size)), (1,) * size)

    def compose(self, other: "FiberAction") -> "FiberAction":
        """Action of g @ h given self = action(g), other = action(h); trusted,
        as permutations compose to one and +1/-1 flags multiply to one."""
        if len(self.pi) != len(other.pi):
            raise LatticeError("size mismatch")
        pi, eps = self.pi, self.eps
        return FiberAction._trusted(
            tuple([pi[p - 2] for p in other.pi]),
            tuple([eps[p - 2] * e for p, e in zip(other.pi, other.eps)]))


def fiber_action(g: Isometry, model: ConicBundleModel) -> FiberAction:
    """Extract (pi, eps) from a matrix, or fail if it breaks the bundle.

    The classifier's input boundary: ``decompose``, ``q_invariance_check``
    and ``gsurf conic`` read each isometry here once per model, then use
    only actions and swap masks.  F goes to col0 - col1.  Sphere j is Ei
    or F - Ei (``columns``), with image col_i or F minus it; col_i is
    looked up among the components.  With F fixed, the spheres all land
    exactly when K is fixed.  If K is fixed, each image e has e.e = K.e
    = -1 and F.e = 0, so it is a component.  If they all land, E1's image
    is fixed by its pairings with F and the Ej images up to adding tF,
    and squaring to -1 fixes t: g is the lift ``matrix_from_fiber_action``
    writes, which fixes K.
    """
    n = model.n_blowups
    if g.n != n:
        raise LatticeError("dimension mismatch")
    cols = tuple(zip(*g.mat))
    if tuple(map(sub, cols[0], cols[1])) != (1, -1) + (0,) * (n - 1):
        raise LatticeError("isometry does not fix the fiber class")
    get = model.components.get
    pi: List[int] = []
    eps: List[int] = []
    for i, s in model.columns:
        hit = get(cols[i])
        if hit is None:
            raise LatticeError("isometry does not fix the canonical class")
        pi.append(hit[0])
        eps.append(hit[1] * s)
    return FiberAction._trusted(tuple(pi), tuple(eps))


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
    if len(action.pi) != n - 1:
        raise LatticeError("wrong number of fiber labels")
    s = action.mask.bit_count()
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


def _is_minimal(lifts: Iterable[FiberAction], q_masks: Iterable[int],
                model: ConicBundleModel) -> bool:
    """Every fiber is switched by some element fixing that fiber: an
    element of Q fixes every fiber and switches those of its swap mask, a
    lift those of its mask on the fixed points of pi."""
    needed = (1 << (model.n_blowups - 1)) - 1
    for v in q_masks:
        needed &= ~v
    for act in lifts:
        if not needed:
            break
        fixed = sum([1 << t for t, p in enumerate(act.pi) if p == t + 2])
        needed &= ~(act.mask & fixed)
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
    way each element's fiber action is taken once, here, and one that
    breaks the bundle raises ``fiber_action``'s LatticeError.

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
    to g.pi(t): its swap mask is the XOR of the two actions' masks, with
    no inverse or product formed.  Q is an elementary abelian 2-group, the
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
    Q's masks is exact.  Each element of Q is an involution, as its
    square's mask is m ^ m = 0, and its sigma set, the fibers whose two
    spheres it preserves, is the zero bits of its mask.

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
    return _decompose(elements, [fiber_action(g, model) for g in elements],
                      group.order if generated else None, model, g0_order)


def _decompose(elements, actions, order, model, m):
    """``decompose`` from the elements' actions; ``order`` is the order
    from the chain for a generated group, None for a list."""
    if type(m) is not int:
        raise LatticeError("the declared core order must be an int")
    if m < 1:
        raise LatticeError("the declared core order must be at least 1")
    n = model.n_blowups
    labels = tuple(model.labels())
    generated = order is not None
    if not generated:
        if len(set(actions)) != len(actions):
            raise LatticeError("input group lists an element more than once")
        order = len(actions)
    lifts, span = _bundle_structure(actions, model, order)
    if len(lifts) * len(span) != order:
        if not generated:
            raise LatticeError("input group is not closed under products")
        raise InvariantViolation(f"|P| |Q| = {len(lifts)} * {len(span)}"
                                 f" for a group of order {order}")
    if generated:
        q_pairs = _q_pairs(span, model)
    else:
        q_pairs = [(g, a.mask) for g, a in zip(elements, actions)
                   if a.pi == labels]
    q = tuple(g for g, _ in q_pairs)
    p_structure = tuple(sorted(lifts))
    # on a list, span is Q's masks once closure is checked
    minimal = _is_minimal(lifts.values(), span, model)
    nontrivial = [v for _, v in q_pairs if v]

    sigma_sets = sigma_sizes = parity = None
    q_image = {1: "trivial", 2: "Z2", 4: "Z2xZ2"}.get(
        len(q), f"elementary-2 of order {len(q)}")

    if m > 1:
        if n % 2 == 0:
            raise LatticeError("a nontrivial core forces an odd number of blowups")
        full = all(v == (1 << (n - 1)) - 1 for v in nontrivial)
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
    else:
        if len(q) == 2:
            tag = CASE_INVOLUTION if minimal else CASE_NON_MINIMAL
            q_abstract = ("Z2",)
            sig = _sigma(nontrivial[0], labels)
            sigma_sets = (sig,)
            sigma_sizes = (len(sig),)
            parity = len(sig) % 2 == (n - 1) % 2
        elif len(q) == 4:
            tag = CASE_KLEIN if minimal else CASE_NON_MINIMAL
            q_abstract = ("Z2xZ2",)
            s1, s2, s3, parity = _sigma_partition(nontrivial, labels)
            sigma_sets = (s1, s2, s3)
            sigma_sizes = (len(s1), len(s2), len(s3))
        elif minimal:
            raise InvariantViolation(
                f"minimal bundle with base-trivial image of order {len(q)}")
        else:
            tag = CASE_NON_MINIMAL
            q_abstract = ()

    return GroupDecomposition(
        q_elements=q, g0_size=m, p_structure=p_structure, case_tag=tag,
        minimal=minimal, q_image=q_image, q_abstract=q_abstract,
        sigma_sets=sigma_sets, sigma_sizes=sigma_sizes, parity_ok=parity)


def _bundle_structure(actions: Sequence[FiberAction], model: ConicBundleModel,
                      bound: int):
    """The lifts of the group the actions generate, keyed by base
    permutation, and the masks of its Q, as proved in ``decompose``.
    The search stops once |P| |Q| passes ``bound``."""
    n = model.n_blowups
    identity = FiberAction.identity(n - 1)
    lifts, queue, basis, gens = {identity.pi: identity}, [identity], [], []

    def residue(v):  # a mask reduced against the basis
        for b in basis:  # leading bits distinct, highest first
            v = min(v, v ^ b)
        return v

    for s in actions:
        have = lifts.get(s.pi)
        if have is not None and not residue(have.mask ^ s.mask):
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
                elif have.mask != g.mask and len(basis) < n - 2:
                    v = residue(have.mask ^ g.mask)
                    if v:
                        basis = sorted(basis + [v], reverse=True)
    span = [0]
    for b in basis:
        span += [v ^ b for v in span]
    return lifts, span


def _q_pairs(span: Sequence[int], model: ConicBundleModel) -> list:
    """Q's (isometry, mask) pairs from its masks, sorted by
    ``Isometry.key``."""
    n = model.n_blowups
    pi = tuple(model.labels())
    fibers = [model.components[unit(n, k).coords][0] - 2 for k in model.labels()]
    q_pairs = [(matrix_from_fiber_action(
        pi, [-1 if v >> t & 1 else 1 for t in fibers], n), v) for v in span]
    return sorted(q_pairs, key=lambda pair: pair[0].key())


def _sigma(mask: int, labels: Sequence[int]) -> tuple:
    """The fibers whose two spheres a base-trivial element with this swap
    mask preserves: the zero bits of the mask."""
    return tuple(j for t, j in enumerate(labels) if not mask >> t & 1)


def _sigma_partition(masks: Sequence[int], labels: Sequence[int]):
    """The fiber partition cut out by the three involutions of a Klein four.

    ``masks`` are the three nonzero swap masks of Q, a 4-element F2 space,
    so m1 ^ m2 = m3.  Sigma_i collects the fibers whose two spheres tau_i
    preserves; the sets must be pairwise disjoint and each size must be
    congruent to N - 1 modulo 2.  Overlap means the data admits no group
    action on the surface and raises InvariantViolation.  The sets cover
    the fibers: a fiber swapped by tau_1 and tau_2 is preserved by tau_3.
    """
    out = [_sigma(v, labels) for v in masks]
    for i in range(3):
        for j in range(i + 1, 3):
            common = set(out[i]) & set(out[j])
            if common:
                raise InvariantViolation(
                    f"fibers {sorted(common)} are preserved componentwise by"
                    f" two distinct involutions")
    parity_ok = all(len(s) % 2 == len(labels) % 2 for s in out)
    return out[0], out[1], out[2], parity_ok


# ---------------------------------------------------------------------------
# Section classes and the counting identities
# ---------------------------------------------------------------------------

def section_class(n: int, c: int, marks: Sequence[int]) -> CohClass:
    """E1 + c*F + sum of Et over t in marks (the section normal form)."""
    _require_ints(n=n)
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
    _require_ints(n=n)
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

def q_invariance_check(model: ConicBundleModel, model_prime: ConicBundleModel,
                       group) -> bool:
    """Q computed from either adapted labeling is the same subset.

    The primed model must label the same fibers: each primed sphere class
    lies in one of the standard pairs (this is enforced by the model
    constructor, which also pins F and K).  ``fiber_action`` runs once
    per element and model, and each Q is kept as the set of its swap
    masks, the primed masks moved to the labels of ``model``.  That is
    exact: a base-trivial element swaps the same fibers whichever
    component a model chooses, and the action is faithful, so the mask
    sets agree exactly when the two subsets of the group do.
    """
    if model.n_blowups != model_prime.n_blowups:
        raise LatticeError("models live on different lattices")
    labels = tuple(model.labels())
    moved = [1 << (model.components[e.coords][0] - 2)
             for e in model_prime.sphere_classes]
    q, q_prime = set(), set()
    for g in group:
        a, b = fiber_action(g, model), fiber_action(g, model_prime)
        if a.pi == labels:
            q.add(a.mask)
        if b.pi == labels:
            q_prime.add(sum([bit for t, bit in enumerate(moved) if b.mask >> t & 1]))
    return q == q_prime
