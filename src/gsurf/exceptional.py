"""Exceptional classes, Cremona reflections, and degree reduction.

An exceptional class satisfies e.e = -1 and K.e = -1.  In the form
e = a*H - sum_s bs*Es the two equations read

    sum bs   = 3a - 1,
    sum bs^2 = a^2 + 1.

Cauchy-Schwarz gives (3a-1)^2 <= N*(a^2+1) for any integer solution, which
bounds the degree a whenever N <= 8; the solution set is then finite.  For
N >= 9 the caller must supply a degree cap and the result is flagged partial.
The window and the plan behind the enumeration hold for any family
x.x = s, K.x = k; the roots (s = -2, k = 0) have a closed form instead,
``weyl.all_roots``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import comb, isqrt
from typing import NamedTuple, Optional, Tuple

from .errors import LatticeError, LimitExceeded, _Frozen
from .lattice import (
    CohClass,
    Isometry,
    SymplecticClass,
    canonical_class,
    pairing,
    permutation_isometry,
    reflection,
)


def is_exceptional(e: CohClass) -> bool:
    return e.square() == -1 and pairing(canonical_class(e.n), e) == -1


def h_ijk(n: int, i: int, j: int, k: int) -> CohClass:
    """The (-2)-class H - Ei - Ej - Ek."""
    if not (1 <= i < j < k <= n):
        raise LatticeError(f"need 1 <= i < j < k <= {n}, got ({i},{j},{k})")
    coords = [0] * (n + 1)
    coords[0] = 1
    coords[i] = coords[j] = coords[k] = -1
    return CohClass(tuple(coords))


class ExceptionalSet(_Frozen):
    """Enumeration result; ``complete`` is False for degree-capped N >= 9."""

    __slots__ = _fields = ("n", "classes", "complete", "max_degree")

    def __iter__(self):
        return iter(self.classes)

    def __len__(self):
        return len(self.classes)


def _degree_bounds(n: int, square: int, k_degree: int) -> Tuple[int, int]:
    """Closed interval of degrees a class of this square and K-degree can
    have, for 1 <= N <= 8; empty (lo > hi) when there is none.

    A class x = a*H - sum_s bs*Es with x.x = square and K.x = k_degree has
    sum bs = 3a + k_degree and sum bs^2 = a^2 - square.  Cauchy-Schwarz,
    (sum bs)^2 <= N * sum bs^2, then reads

        (9 - N)*a^2 + 6*k*a + k^2 + N*s <= 0      (k = k_degree, s = square).

    With q = 9 - N > 0 the integer solutions are the a between the roots
    (-3k -+ sqrt(D))/q, D = 9k^2 - q*(k^2 + N*s), and none when D < 0.
    For an integer p and q > 0, floor((p + sqrt(D))/q) equals
    (p + isqrt(D)) // q, so with r = isqrt(D) both ends are exact:
    lo = ceil((-3k - sqrt(D))/q) = -((3k + r) // q) and
    hi = (r - 3k) // q.  No degree is assumed feasible: for F.F = 0,
    K.F = -2 the lower root is 2/(3 + sqrt(N)), in (0, 1), so the window
    starts at 1, not 0.
    """
    q = 9 - n
    disc = 9 * k_degree * k_degree - q * (k_degree * k_degree + n * square)
    if disc < 0:
        return 1, 0
    r = isqrt(disc)
    return -((3 * k_degree + r) // q), (r - 3 * k_degree) // q


def _multisets(n: int, total: int, squares: int):
    """Non-increasing integer n-vectors with sum ``total`` and square sum
    ``squares``.

    Cauchy-Schwarz prunes the remaining tail at every position, and every
    entry has |b| <= isqrt(squares left), so no square sum goes negative.
    """
    found = []

    def rec(pos, prev, s, q, prefix):
        rem = n - pos - 1
        hi = min(prev, isqrt(q))
        for b in range(hi, -isqrt(q) - 1, -1):
            s2, q2 = s - b, q - b * b
            if rem == 0:
                if s2 == 0 and q2 == 0:
                    found.append(tuple(prefix + [b]))
                continue
            if s2 * s2 > rem * q2:
                continue
            if s2 > rem * b:  # remaining entries are <= b
                continue
            prefix.append(b)
            rec(pos + 1, b, s2, q2, prefix)
            prefix.pop()

    rec(0, isqrt(squares), total, squares, [])
    return found


def _plan(n: int, square: int, k_degree: int, lo: int, hi: int):
    """(degree, b-multiset) for each class family with x.x = ``square``,
    K.x = ``k_degree`` and lo <= degree <= hi, lazily, degree by degree."""
    for a in range(lo, hi + 1):
        for multiset in _multisets(n, 3 * a + k_degree, a * a - square):
            yield a, multiset


def _distinct_permutations(items):
    """Each distinct ordering of a multiset once, in lexicographic order.

    Knuth, TAOCP 4A, Section 7.2.1.2, Algorithm L: step to the next
    permutation by one swap and one suffix reversal.  Repeated entries
    never produce a repeated ordering, so the cost follows the number of
    distinct orderings, not len(items)!.
    """
    a = sorted(items)
    n = len(a)
    while True:
        yield tuple(a)
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = n - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1:] = a[:j:-1]


def _arrangements(multiset) -> int:
    """Number of distinct orderings: len! over the product of run factorials."""
    count, placed = 1, 0
    for _, run in groupby(multiset):
        k = sum(1 for _ in run)
        placed += k
        count *= comb(placed, k)
    return count


def _expand(plan) -> tuple:
    """Every class of a plan, each distinct ordering of a multiset once,
    sorted by coordinates."""
    classes = [CohClass((a,) + perm) for a, multiset in plan
               for perm in _distinct_permutations([-b for b in multiset])]
    classes.sort(key=lambda e: e.coords)
    return tuple(classes)


DEFAULT_LIMIT = 1_000_000


@lru_cache(maxsize=None)
def enumerate_exceptional(n: int, max_degree: Optional[int] = None,
                          limit: int = DEFAULT_LIMIT) -> ExceptionalSet:
    """All classes with e.e = -1, K.e = -1 up to the degree bound.

    Complete for N <= 8; for N >= 9 ``max_degree`` is required and the
    result is flagged partial.  Results are cached and immutable.  Raises
    LimitExceeded, before any class is built, when there are more than
    ``limit`` classes.

    Every degree in the window is feasible: for N <= 8 it is the
    Cauchy-Schwarz interval, and for N >= 9, (3a - 1)^2 <= N(a^2 + 1)
    holds for all a >= -1 (N = 9 needs a >= -4/3; for N >= 10 the
    quadratic's discriminant 4N(10 - N) is <= 0).
    """
    if n < 1:
        raise LatticeError("need at least one blowup")
    if n <= 8:
        lo, hi = _degree_bounds(n, -1, -1)
        complete = max_degree is None or max_degree >= hi
        hi = hi if complete else max_degree
    elif max_degree is None:
        raise LatticeError(f"max_degree is required for N = {n} >= 9")
    else:
        lo, hi, complete = -1, max_degree, False
    # Each multiset stands for as many classes as it has distinct
    # orderings, so the count is known before anything is expanded.
    plan = []
    count = 0
    for a, multiset in _plan(n, -1, -1, lo, hi):
        count += _arrangements(multiset)
        if count > limit:
            raise LimitExceeded(
                f"exceptional classes for N = {n} up to degree {hi}"
                f" exceed the limit of {limit} (--limit)")
        plan.append((a, multiset))
    return ExceptionalSet(n, _expand(plan), complete, hi)


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


class ReductionTrace(NamedTuple):
    """Steps of the degree-descent on an exceptional class.

    Each step records (indices (i,j,k), class before, class after); the
    degree strictly decreases along the steps and the final class is E_l.
    """

    start: CohClass
    steps: tuple
    final: CohClass
    final_index: int

    def degrees(self) -> tuple:
        return (self.start.degree,) + tuple(after.degree for _, _, after in self.steps)


def _largest_three(bs) -> Tuple[int, int, int]:
    """Indices (1-based, i<j<k) of the three largest b-coefficients.

    Ties break toward the smallest index, which makes traces reproducible.
    """
    order = sorted(range(len(bs)), key=lambda t: (-bs[t], t))
    return tuple(sorted(t + 1 for t in order[:3]))


def reduce_exceptional(e: CohClass) -> ReductionTrace:
    """Apply Cremona reflections on the three largest bs until degree 0."""
    if e.n < 3:
        raise LatticeError("reduction needs at least three blowups")
    if not is_exceptional(e):
        raise LatticeError(f"{e} is not exceptional")
    steps = []
    cur = e
    while cur.degree > 0:
        ijk = _largest_three(cur.b_vector())
        nxt = cremona_reflect(cur, ijk)
        if nxt.degree >= cur.degree:
            raise LatticeError(f"degree did not drop at {cur}")
        steps.append((ijk, cur, nxt))
        cur = nxt
    if cur.degree != 0:
        raise LatticeError(f"descent stalled at {cur}")
    bs = cur.b_vector()
    nonzero = [t + 1 for t, b in enumerate(bs) if b != 0]
    if len(nonzero) != 1 or bs[nonzero[0] - 1] != -1:
        raise LatticeError(f"descent did not end at a basis class: {cur}")
    return ReductionTrace(e, tuple(steps), cur, nonzero[0])


def reduce_symplectic(w: SymplecticClass, max_iters: int = 10_000):
    """Sort areas and apply Cremona steps until the class is in reduced form.

    Returns (reduced class, isometry); the isometry maps the input to the
    output and fixes the canonical class.  Descent on a class of positive
    square is expected to terminate; the cap makes a stall loud.
    """
    if w.n < 3:
        raise LatticeError("reduction needs at least three blowups")
    if w.square() <= 0:
        raise LatticeError("positive square required")
    n = w.n
    iso = Isometry.identity(n)
    cur = w
    for _ in range(max_iters):
        lams = cur.lambdas
        order = sorted(range(n), key=lambda t: (-lams[t], t))
        if order != list(range(n)):
            perm = permutation_isometry(n, {src + 1: dst + 1
                                            for dst, src in enumerate(order)})
            cur = perm.apply(cur)
            iso = perm @ iso
        if cur.nu - sum(cur.lambdas[:3]) < 0:
            step = reflection(h_ijk(n, 1, 2, 3))
            cur = cremona_reflect(cur, (1, 2, 3))
            iso = step @ iso
        else:
            return cur, iso
    raise LimitExceeded(f"no reduced form after {max_iters} iterations")
