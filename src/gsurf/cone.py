"""Equivariant symplectic-cone arithmetic at desk scale.

Cone membership for a rational class is tested by positivity of the square
and positivity of the area of every exceptional class; the test is exact
for N <= 8 (complete enumeration) and necessary-only for N >= 9, where the
enumeration is degree-capped.  The rank-2 slice spanned by the canonical
class and a fiber class is parametrized by the gap coordinate delta in
[omega] = -K + delta*F after scaling the fiber area to 2.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence, Tuple

from . import exceptional
from .errors import InvariantViolation, LatticeError, _Frozen
from .lattice import (
    CohClass,
    SymplecticClass,
    fiber_class,
    pairing,
    rational_to_json,
)

FULL = "full"
PARTIAL_POSITIVE = "partial-positive"
OUTSIDE = "outside"

DEFAULT_PARTIAL_DEGREE = 5


def is_in_cone(w: SymplecticClass,
               limit: int = exceptional.DEFAULT_LIMIT) -> str:
    """Positivity of the square and of every exceptional area.

    Returns ``full`` (N <= 8, all checks pass), ``partial-positive``
    (N >= 9, checks up to degree ``DEFAULT_PARTIAL_DEGREE`` pass, necessary
    conditions only), or ``outside``.  ``limit`` caps the exceptional
    enumeration.
    """
    if w.square() <= 0:
        return OUTSIDE
    n = w.n
    # Positional, as every other caller passes it: lru_cache keys a keyword
    # call apart from the positional one and would enumerate twice, and the
    # default limit is left out for the same reason.  Called through the
    # module so that a wrapper installed there sees the call.
    args = (n,) if n <= 8 else (n, DEFAULT_PARTIAL_DEGREE)
    if limit != exceptional.DEFAULT_LIMIT:
        args = (n, DEFAULT_PARTIAL_DEGREE if n > 8 else None, limit)
    exc = exceptional.enumerate_exceptional(*args)
    # Clear denominators once: with L > 0 the lcm of the denominators, the
    # area of e is positive exactly when (L*w).e is, and (L*w).e is an
    # integer dot product with e's raw coordinates.
    scale = lcm(*(c.denominator for c in w.coords))
    scaled = [c.numerator * (scale // c.denominator) for c in w.coords]
    for e in exc:
        if sum(map(mul, scaled, e.coords)) <= 0:
            return OUTSIDE
    return FULL if exc.complete else PARTIAL_POSITIVE


def span2_coefficients(w: SymplecticClass, u: CohClass, v: CohClass):
    """Exact (x, y) with w = x*u + y*v, or None if w is outside the span."""
    raw = w.raw()
    gm = [[u.square(), pairing(u, v)], [pairing(u, v), v.square()]]
    rhs = [pairing(w, u), pairing(w, v)]
    det = gm[0][0] * gm[1][1] - gm[0][1] * gm[1][0]
    if det == 0:
        raise LatticeError("degenerate span basis")
    x = Fraction(rhs[0] * gm[1][1] - rhs[1] * gm[0][1], det)
    y = Fraction(gm[0][0] * rhs[1] - gm[1][0] * rhs[0], det)
    if all(Fraction(c) == x * a + y * b
           for c, a, b in zip(raw, u.coords, v.coords)):
        return x, y
    return None


def fiber_pairs(n: int) -> Tuple[int, ...]:
    """Admissible a with a second fiber class F' = -a*K - F.

    F' must satisfy K.F' = -2, F'.F' = 0 and F.F' = 2a >= 0.  With
    K.K = 9 - N, K.F = -2 and F.F = 0, K.F' = -a(9 - N) + 2, so the first
    equation forces a(9 - N) = 4; then F'.F' = a^2(9 - N) - 4a = 0 and
    F.F' = 2a hold.  So a = 4/(9 - N) when 9 - N is a positive divisor of
    4: N = 5, 7, 8 with a = 1, 2, 4.
    """
    if n < 2:
        raise LatticeError("need at least two blowups")
    ksq = 9 - n
    return (4 // ksq,) if ksq > 0 and 4 % ksq == 0 else ()


def blowdown_obstruction(n: int, a_min: int) -> Tuple[Tuple[int, int], ...]:
    """Pairs (a, m) with m = -a^2 K^2 / (2a - 1) a positive integer.

    Here a_min <= a <= -1.  Such a pair would allow an invariant union of m
    disjoint (-1)-spheres in the class a*K + b*F.

    Write d = 1 - 2a, an odd integer >= 3, so that m = a^2 K^2 / d.  Any
    common divisor of a and 2a - 1 divides 2a - (2a - 1) = 1, so
    gcd(a^2, d) = 1 and d divides a^2 K^2 exactly when it divides
    K^2 = 9 - N; and m > 0 needs K^2 > 0.  The pairs are therefore read off
    the odd divisors d >= 3 of K^2 with a = (1 - d)/2 >= a_min, so the cost
    does not grow with |a_min|.  They come in ascending a, i.e. descending
    d.  In the bundle range N >= 5 only N = 6, a = -1 survives; below it
    N = 2, 3, 4 give one pair each.
    """
    if a_min > -1:
        raise LatticeError("a_min must be at most -1")
    ksq = 9 - n
    out = []
    for d in range(min(ksq, 1 - 2 * a_min), 2, -1):
        if d % 2 and ksq % d == 0:
            a = (1 - d) // 2
            out.append((a, a * a * ksq // d))
    return tuple(out)


def delta(w: SymplecticClass, fiber: CohClass, k0: CohClass) -> Fraction:
    """Gap coordinate: scale w so w(F) = 2 and write it as -K0 + delta*F."""
    area = w.area(fiber)
    if area <= 0:
        raise LatticeError("fiber area must be positive")
    if span2_coefficients(w, k0, fiber) is None:
        raise LatticeError("class is outside the rank-2 span")
    scaled = w.scale(Fraction(2, area))
    x2, y2 = span2_coefficients(scaled, k0, fiber)
    if x2 != -1:  # pragma: no cover - forced by (-K0).F = 2
        raise InvariantViolation("fiber normalization failed")
    return Fraction(y2)


class FiberReport(NamedTuple):
    """Fiber-class candidates of a rank-2 invariant lattice.

    ``unique_expected`` records when a single fiber class is forced: nine
    or more blowups, or a declared nontrivial lattice-trivial core.  The
    numeric candidates can still come in a pair summing to -aK; with a
    declared core the bundle fiber is the preferred one and its partner is
    listed as excluded.  Which of a symmetric pair is realized cannot be
    decided from lattice data alone.
    """

    rank: int
    candidates: tuple
    unique_expected: bool
    effective: tuple
    excluded_by_core: tuple

    @property
    def consistent(self) -> bool:
        return not self.unique_expected or len(self.effective) == 1


def fiber_report(group_or_gens, g0_order: int = 1,
                 preferred: Optional[CohClass] = None) -> FiberReport:
    """Apply the core-uniqueness rule to the dichotomy's fiber candidates."""
    from .weyl import minimality_rank_dichotomy

    if type(g0_order) is not int:
        raise LatticeError("the declared core order must be an int")
    if g0_order < 1:
        raise LatticeError("core order must be at least 1")
    dich = minimality_rank_dichotomy(group_or_gens)
    cands = dich.fiber_candidates
    n = cands[0].n if cands else None
    unique = g0_order > 1 or (n is not None and n >= 9)
    if not unique or len(cands) <= 1:
        return FiberReport(dich.rank, cands, unique, cands, ())
    if preferred is None:
        default = fiber_class(n)
        preferred = default if default in cands else cands[0]
    if preferred not in cands:
        raise LatticeError("preferred fiber class is not a candidate")
    rest = tuple(c for c in cands if c != preferred)
    return FiberReport(dich.rank, cands, unique, (preferred,), rest)


def check_fiber(k0: CohClass, fiber: CohClass) -> None:
    """Refuse a fiber class unless F.F = 0 and K0.F = -2."""
    if pairing(k0, fiber) != -2 or fiber.square() != 0:
        raise LatticeError("fiber class must satisfy F.F = 0, K.F = -2")


class ConeSlice(_Frozen):
    """Membership samples of -K0 + delta*F along a grid of gap values.

    Membership is monotone nondecreasing in delta; the observed threshold
    is reported as a bracketing pair (largest non-member, smallest member),
    never as an exact infimum.
    """

    __slots__ = _fields = ("k0", "fiber", "samples", "last_outside",
                           "first_member")

    def __init__(self, k0: CohClass, fiber: CohClass, samples: tuple,
                 last_outside: Optional[Fraction],
                 first_member: Optional[Fraction]):
        check_fiber(k0, fiber)
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "fiber", fiber)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "last_outside", last_outside)
        object.__setattr__(self, "first_member", first_member)

    def to_json(self):
        return {
            "samples": [[rational_to_json(d), member] for d, member in self.samples],
            "bracket": [None if self.last_outside is None
                        else rational_to_json(self.last_outside),
                        None if self.first_member is None
                        else rational_to_json(self.first_member)],
        }


def slice_point(k0: CohClass, fiber: CohClass, d) -> SymplecticClass:
    """The class -K0 + delta*F as a symplectic candidate."""
    d = Fraction(d)
    raw = tuple(-k + d * f for k, f in zip(k0.coords, fiber.coords))
    return SymplecticClass.from_raw(raw)


def slice_scan(n: int, fiber: CohClass, k0: CohClass, delta_grid: Sequence,
               limit: int = exceptional.DEFAULT_LIMIT) -> ConeSlice:
    """Evaluate cone membership on a delta grid and assert monotonicity.

    A monotonicity violation would contradict F.e >= 0 over the exceptional
    classes and is reported as an internal error.
    """
    if fiber.n != n or k0.n != n:
        raise LatticeError("dimension mismatch")
    check_fiber(k0, fiber)
    grid = sorted(Fraction(d) for d in delta_grid)
    if len(set(grid)) != len(grid):
        raise LatticeError("duplicate grid values")
    flags = [is_in_cone(slice_point(k0, fiber, d), limit) != OUTSIDE
             for d in grid]
    for (d1, f1), (d2, f2) in zip(zip(grid, flags), zip(grid[1:], flags[1:])):
        if f1 and not f2:
            raise InvariantViolation(
                f"membership dropped between delta = {d1} and {d2}")
    last_out = None
    first_in = None
    for d, flag in zip(grid, flags):
        if flag and first_in is None:
            first_in = d
        if not flag:
            last_out = d
    return ConeSlice(k0, fiber, tuple(zip(grid, flags)), last_out, first_in)
