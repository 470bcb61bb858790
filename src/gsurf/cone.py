"""Equivariant symplectic-cone arithmetic at desk scale.

A rational class w is in the cone when w.w > 0, w lies in the forward
half of the positive cone (nu = w(H) > 0, H being the class of a
symplectic sphere), and every exceptional class has positive area (Li
and Liu 2001).  For N >= 2 the areas of E1, E2 and H - E1 - E2 already
force nu > 0, so the degree test decides only at N = 1.  For
3 <= N <= 9 membership is decided by Cremona descent: sort the areas,
reflect in H - E1 - E2 - E3 while nu < lam1 + lam2 + lam3, and stop at a
reduced form or at an E_l or H - Ei - Ej of area <= 0.  A class in
reduced form with positive square and positive areas is in the cone (Li
and Li, *Symplectic genus, minimal genus and diffeomorphisms*, 2002;
Karshon and Kessler 2017), and Cremona reflections permute the
exceptional classes.  For N <= 8 the verdict is that of the area scan
over the enumeration.  At N = 9 an outside verdict rests on its witness,
a Weyl image of E_l or H - Ei - Ej and so exceptional whatever its
degree, so a witness above the enumeration's degree cap answers outside
where the capped scan may not.  From N = 10 on the capped numerical set
holds classes that are not exceptional (ROADMAP item 12), which the
descent does not see, so N <= 2 and N >= 10 keep the scan: positivity of
the area of every enumerated class, necessary-only for N >= 9.  The
rank-2 slice spanned by the canonical class and a fiber class is
parametrized by the gap coordinate delta in [omega] = -K + delta*F after
scaling the fiber area to 2.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence, Tuple

from . import exceptional
from .errors import InvariantViolation, LatticeError, _Frozen, _require_ints
from .lattice import (
    CohClass,
    SymplecticClass,
    fiber_class,
    pairing,
    rational_to_json,
    _norm_rat,
)

FULL = "full"
PARTIAL_POSITIVE = "partial-positive"
OUTSIDE = "outside"

DEFAULT_PARTIAL_DEGREE = 5


def is_in_cone(w: SymplecticClass,
               limit: int = exceptional.DEFAULT_LIMIT) -> str:
    """Positivity of the degree nu, of the square and of every exceptional
    area.

    Returns ``full`` (N <= 8, all checks pass), ``partial-positive``
    (N >= 9, checks up to degree ``DEFAULT_PARTIAL_DEGREE`` pass), or
    ``outside``.  ``limit`` caps the exceptional enumeration, which is
    made for every N and sets ``full`` against ``partial-positive``.

    For 3 <= N <= 9 the answer comes from ``exceptional._descend`` (see
    the module docstring).  A reduced form is inside.  An E_l or
    H - Ei - Ej of area <= 0, unwound through the word, is an exceptional
    class of area <= 0 with the input, so outside, whatever its degree:
    at N = 9 it can lie above the enumeration's cap.  The descent
    reflects at most ``len(exc)`` times; the capped scan decides a class
    it leaves open.

    The bound is never reached for N <= 8.  Let D(c) be the set of roots
    b (b.b = -2, K.b = 0) of degree > 0 with c.b < 0, and s the reflection
    in a = H - Ei - Ej - Ek on the three largest areas, c.a < 0.  A root
    g with deg(s g) > 0 and c.g < 0 is in D(c) - {a}: deg(s g) =
    deg g + g.a, g.a is in {-1, 0, 1} for g != +-a as the pairing is
    negative definite on K-perp, and c.(-a) > 0, so a g of degree <= 0
    would be Ep - Eq with p among i, j, k and q not, of area
    lam_p - lam_q >= 0.  So |D| falls by one per reflection, and a
    descent takes at most as many steps as there are roots of positive
    degree: 1, 4, 10, 21, 42, 92 at N = 3..8, against 6, 10, 16, 27, 56,
    240 exceptional classes.  At N = 9 there is no such bound (the Weyl
    group is affine E8): the classes (3A; A + B, A - B, A x 6, A - 1)
    with A = B^2 + 1 have w.w = 1, and their descent takes about 4B
    steps to reach an exceptional class of degree 3B^2 and area 0.
    """
    # Clear denominators once: with L > 0 the lcm of the denominators, the
    # signs of nu, of the square and of the area of e are those of L*w,
    # integers.
    scale = lcm(*(c.denominator for c in w.coords))
    scaled = [c.numerator * (scale // c.denominator) for c in w.coords]
    if scaled[0] <= 0 or scaled[0] ** 2 <= sum(x * x for x in scaled[1:]):
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
    verdict = FULL if exc.complete else PARTIAL_POSITIVE
    if 3 <= n <= 9:
        found = exceptional._descend([scaled[0]] + [-x for x in scaled[1:]],
                                     len(exc))
        if found is not None:
            return verdict if found[0] else OUTSIDE
    # The area of e is (L*w).e, an integer dot product with e's raw
    # coordinates.
    for e in exc:
        if sum(map(mul, scaled, e.coords)) <= 0:
            return OUTSIDE
    return verdict


def fiber_pairs(n: int) -> Tuple[int, ...]:
    """Admissible a with a second fiber class F' = -a*K - F.

    F' must satisfy K.F' = -2, F'.F' = 0 and F.F' = 2a >= 0.  With
    K.K = 9 - N, K.F = -2 and F.F = 0, K.F' = -a(9 - N) + 2, so the first
    equation forces a(9 - N) = 4; then F'.F' = a^2(9 - N) - 4a = 0 and
    F.F' = 2a hold.  So a = 4/(9 - N) when 9 - N is a positive divisor of
    4: N = 5, 7, 8 with a = 1, 2, 4.
    """
    _require_ints(n=n)
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
    _require_ints(n=n, a_min=a_min)
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
    """Gap coordinate: scale w so w(F) = 2 and write it as -K0 + delta*F.

    In closed form, as F.F = 0 and K0.F = -2 (``check_fiber``): w = x*K0 +
    y*F has w.F = -2x and w.K0 = x*K0^2 - 2y, and (2/w.F)*w = -K0 +
    delta*F with delta = 2y/w.F = -K0^2/2 - (w.K0)/(w.F).
    """
    check_fiber(k0, fiber)
    area = w.area(fiber)
    if area <= 0:
        raise LatticeError("fiber area must be positive")
    x = Fraction(-area, 2)
    y = (x * k0.square() - pairing(w, k0)) / 2
    if any(c != x * a + y * b
           for c, a, b in zip(w.raw(), k0.coords, fiber.coords)):
        raise LatticeError("class is outside the rank-2 span")
    return 2 * y / area


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
        super().__init__(k0, fiber, samples, last_outside, first_member)

    def to_json(self):
        return {
            "samples": [[rational_to_json(d), member] for d, member in self.samples],
            "bracket": [None if self.last_outside is None
                        else rational_to_json(self.last_outside),
                        None if self.first_member is None
                        else rational_to_json(self.first_member)],
        }


def slice_point(k0: CohClass, fiber: CohClass, d) -> SymplecticClass:
    """The class -K0 + delta*F as a symplectic candidate.  delta is an int
    or a Fraction; a float or bool is refused, as for any coordinate."""
    d = Fraction(_norm_rat(d))
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
    grid = sorted(Fraction(_norm_rat(d)) for d in delta_grid)
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
