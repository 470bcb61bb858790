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

Both descents reflect in H - Ei - Ej - Ek on the three largest b while
the degree falls, keeping the word of (i, j, k).  Ties break as each
result was defined, toward the smallest index for ``reduce_exceptional``,
stably from the last step's order for ``reduce_symplectic``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import comb, isqrt, lcm
from typing import NamedTuple, Optional, Tuple

from .errors import LatticeError, LimitExceeded, _Frozen
from .lattice import CohClass, Isometry, SymplecticClass


def is_exceptional(e: CohClass) -> bool:
    return e.square() == -1 and 2 * e.coords[0] + sum(e.coords) == 1


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
    if max_degree is not None and max_degree < 0:
        raise LatticeError(f"max_degree must be at least 0, got {max_degree}")
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


class ReductionTrace(NamedTuple):
    """Steps ((i, j, k), class before, class after) of a descent to E_l."""

    start: CohClass
    steps: tuple
    final: CohClass
    final_index: int

    def degrees(self) -> tuple:
        return (self.start.degree,) + tuple(after.degree for _, _, after in self.steps)


def _reflect(c: list, i: int, j: int, k: int) -> int:
    """Reflect c in H - Ei - Ej - Ek in place; return their pairing."""
    p = c[0] + c[i] + c[j] + c[k]
    c[0] += p
    c[i] -= p
    c[j] -= p
    c[k] -= p
    return p


def _unwind(c: list, word) -> list:
    """Undo the word's reflections on c in place, last first."""
    for ijk in reversed(word):
        _reflect(c, *ijk)
    return c


def _stall(e: CohClass, at: CohClass, word) -> LatticeError:
    """Refusal of e stalled at ``at``, naming the E_l or H - Ei - Ej that
    pairs most negatively with ``at``, unwound, if one pairs < 0."""
    c = at.coords
    i, j, *_, l = sorted(range(1, len(c)), key=c.__getitem__)
    w = [0] * len(c)
    m = c[0] + c[i] + c[j]
    if m < -c[l]:
        w[0], w[i], w[j] = 1, -1, -1
    else:
        m, w[l] = -c[l], 1
    if m >= 0:
        return LatticeError(f"degree did not drop at {at}")
    return LatticeError(f"{e} is not exceptional: it pairs to {m} with the"
                        f" exceptional class {CohClass(_unwind(w, word))}")


def reduce_exceptional(e: CohClass) -> ReductionTrace:
    """Apply Cremona reflections on the three largest bs until degree 0."""
    if e.n < 3:
        raise LatticeError("reduction needs at least three blowups")
    if not is_exceptional(e):
        raise LatticeError(f"{e} is not exceptional")
    c = list(e.coords)
    if c[0] < 0:
        raise LatticeError(f"descent stalled at {e}")
    index = range(1, e.n + 1)
    steps, cur = [], e
    while c[0] > 0:
        ijk = tuple(sorted(sorted(index, key=c.__getitem__)[:3]))
        if _reflect(c, *ijk) >= 0:
            raise _stall(e, cur, [s[0] for s in steps])
        nxt = CohClass._trusted(tuple(c))
        steps.append((ijk, cur, nxt))
        cur = nxt
    # From a >= 1 the integer bi + bj + bk <= sqrt(3(a^2 + 1)) is <= 2a, so
    # the degree stops at 0, where sum bs = -1, sum bs^2 = 1 leave E_l.
    return ReductionTrace(e, tuple(steps), cur, c.index(1))


def reduce_symplectic(w: SymplecticClass, max_iters: int = 10_000):
    """Sort areas and apply Cremona steps until the class is in reduced form.

    Returns (reduced class, isometry); the isometry maps the input to the
    output and fixes the canonical class.  Descent on a class of positive
    square is expected to terminate; the cap makes a stall loud.
    """
    n = w.n
    if n < 3:
        raise LatticeError("reduction needs at least three blowups")
    if w.square() <= 0:
        raise LatticeError("positive square required")
    scale = lcm(*(x.denominator for x in w.coords))
    c = [x.numerator * (scale // x.denominator) for x in w.raw()]
    pos, word = list(range(1, n + 1)), []
    for _ in range(max_iters):
        pos.sort(key=c.__getitem__)  # stable: ties keep the last order
        if c[0] + c[pos[0]] + c[pos[1]] + c[pos[2]] >= 0:
            break
        word.append(pos[:3])
        _reflect(c, *pos[:3])
    else:
        raise LimitExceeded(f"no reduced form after {max_iters} iterations")
    # Column t of the inverse is E_rows[t] unwound
    rows = [0] + pos
    inv = [_unwind([int(r == t) for t in range(n + 1)], word) for r in rows]
    iso = Isometry._trusted(tuple(zip(*inv))).inverse()
    return iso.apply(w), iso
