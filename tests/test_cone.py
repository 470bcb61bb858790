import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsurf import exceptional
from gsurf.cone import (
    FULL,
    OUTSIDE,
    PARTIAL_POSITIVE,
    ConeSlice,
    _descend,
    blowdown_obstruction,
    delta,
    fiber_pairs,
    is_in_cone,
    slice_point,
    slice_scan,
    span2_coefficients,
)
from gsurf.errors import LatticeError, LimitExceeded
from gsurf.exceptional import enumerate_exceptional, reduce_exceptional
from gsurf.gconic import fiber_class
from gsurf.lattice import (CohClass, SymplecticClass, canonical_class,
                           is_reduced_class, pairing, unit)
from gsurf.weyl import all_roots

import oracles


@st.composite
def rational_classes(draw):
    """Classes near -K with small denominators; some with an area exactly 0.

    Each coordinate is -K's moved by at most 1/4.  Near -K (every
    exceptional area 1) the cone boundary is close, so every verdict comes
    up.  The zero area is forced on a drawn exceptional class by solving
    for its first nonzero coordinate.
    """
    n = draw(st.integers(3, 9))

    def coord(base):
        d = draw(st.integers(1, 6))
        return base + Fraction(draw(st.integers(-d, d)), 4 * d)

    coords = [coord(3)] + [coord(1) for _ in range(n)]
    if draw(st.booleans()):
        exc = enumerate_exceptional(n) if n <= 8 else enumerate_exceptional(n, 5)
        e = exc.classes[draw(st.integers(0, len(exc) - 1))].coords
        k = next(i for i, c in enumerate(e) if c)
        rest = sum(x * c for i, (x, c) in enumerate(zip(coords, e)) if i != k)
        coords[k] = -rest / e[k]
    return SymplecticClass(tuple(coords))


class TestMembership:
    def test_monotone_full(self):
        assert is_in_cone(SymplecticClass((3, 1, 1, 1))) == FULL

    def test_outside_negative_area(self):
        assert is_in_cone(SymplecticClass((1, 1, 1, 1))) == OUTSIDE

    def test_outside_nonpositive_square(self):
        assert is_in_cone(SymplecticClass((3, 2, 2, 1))) == OUTSIDE

    def test_partial_positive_for_many_blowups(self):
        w = SymplecticClass((4,) + (1,) * 9)
        assert is_in_cone(w) == PARTIAL_POSITIVE

    def test_shares_the_enumeration_cache(self):
        enumerate_exceptional.cache_clear()
        enumerate_exceptional(9, 5)
        misses = enumerate_exceptional.cache_info().misses
        w = SymplecticClass((4,) + (1,) * 9)
        assert is_in_cone(w) == PARTIAL_POSITIVE
        assert is_in_cone(w) == PARTIAL_POSITIVE
        assert enumerate_exceptional.cache_info().misses == misses

    def test_limit_reaches_the_enumeration(self):
        w = SymplecticClass((4,) + (1,) * 9)
        with pytest.raises(LimitExceeded, match="limit of 10 "):
            is_in_cone(w, limit=10)
        k0, f = canonical_class(9), fiber_class(9)
        with pytest.raises(LimitExceeded, match="limit of 10 "):
            slice_scan(9, f, k0, [1], limit=10)
        with pytest.raises(LimitExceeded, match="limit of 26 "):
            is_in_cone(SymplecticClass((3, 1, 1, 1, 1, 1, 1)), limit=26)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(rational_classes())
    @example(SymplecticClass((Fraction(7, 2), Fraction(3, 2), 1, 1)))  # full
    @example(SymplecticClass((Fraction(5, 2), Fraction(3, 2), 1, 1, 1)))  # area 0
    @example(SymplecticClass((Fraction(7, 2),) + (1,) * 9))  # partial
    def test_matches_fraction_areas(self, w):
        assert is_in_cone(w) == oracles.cone_verdict_by_fraction_areas(w)

    def test_enumerates_through_the_module(self, monkeypatch):
        calls = []
        original = exceptional.enumerate_exceptional

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(exceptional, "enumerate_exceptional", spy)
        assert is_in_cone(SymplecticClass((3,) + (1,) * 5)) == FULL
        assert calls == [(5,)]


def _fraction(rng, lo, hi):
    d = rng.randint(1, 6)
    return Fraction(rng.randint(lo * d, hi * d), d)


def _seeded_class(rng, n, kind):
    """A class with denominators up to 24, of kind 0 to 3.

    0: reduced (sorted positive areas, nu >= lam1 + lam2 + lam3, positive
    square); 1: outside through H - E1 - E2; 2: outside through an area
    <= 0; 3: near -K, each exceptional area near 1, where the boundary is
    close.  About one in four of kinds 0 to 2 has its areas tied in pairs.
    """
    if kind == 3:
        return SymplecticClass((3 + _fraction(rng, -1, 1) / 4,)
                               + tuple(1 + _fraction(rng, -1, 1) / 4
                                       for _ in range(n)))
    lam = sorted((_fraction(rng, 1, 5) for _ in range(n)), reverse=True)
    if rng.random() < 0.25:
        lam = sorted(lam[: (n + 1) // 2] * 2, reverse=True)[:n]
    nu = sum(lam[:3]) + _fraction(rng, 0, 2)
    nu = max(nu, Fraction(math.isqrt(math.ceil(sum(x * x for x in lam))) + 1))
    if kind == 1 and n >= 2:
        nu = lam[0] + lam[1] - _fraction(rng, 0, 1)
    elif kind == 2:
        lam[rng.randrange(n)] = -_fraction(rng, 0, 2)
    return SymplecticClass((nu,) + tuple(lam))


def _scrambled(rng, w):
    """w moved by a random Weyl word: a few Cremona reflections on random
    triples, then a shuffle of the areas.  The cone is invariant."""
    c = list(w.raw())
    if w.n >= 3:
        for _ in range(rng.randint(1, 6)):
            exceptional._reflect(c, *rng.sample(range(1, w.n + 1), 3))
    rest = c[1:]
    rng.shuffle(rest)
    return SymplecticClass.from_raw([c[0]] + rest)


def _assert_scan_verdict(w):
    want = oracles.cone_verdict_by_scan(w)
    assert is_in_cone(w) == want, w
    assert oracles.cone_verdict_by_fraction_areas(w) == want, w
    return want


def _slice_threshold(n):
    """delta* = max((N - 9)/4, max over e with F.e > 0 of -1/F.e), N <= 8:
    -K + delta*F has square (9 - N) + 4 delta and areas 1 + delta F.e."""
    return max([Fraction(n - 9, 4)]
               + [Fraction(-1, e.coords[0] + e.coords[1])
                  for e in enumerate_exceptional(n)
                  if e.coords[0] + e.coords[1] > 0])


def _raw_integers(w):
    scale = math.lcm(*(c.denominator for c in w.raw()))
    return [int(c * scale) for c in w.raw()]


class TestDescentMatchesTheScan:
    """``is_in_cone`` decides N = 3..9 by descent and the rest by scan;
    both oracles scan every enumerated class."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_seeded_and_scrambled(self, n):
        rng = random.Random(3200 + n)
        seen = set()
        for i in range(60 if n <= 9 else 4 if n <= 11 else 2):
            w = _seeded_class(rng, n, i % 4)
            if n >= 10:
                # Up to 209,760 classes, each paired in Fractions by the
                # second oracle; integers keep it to a second, and scaling
                # changes no verdict.
                w = SymplecticClass.from_raw(_raw_integers(w))
            seen.add(_assert_scan_verdict(w))
            _assert_scan_verdict(_scrambled(rng, w))
        assert OUTSIDE in seen and len(seen) == 2
        if n >= 11:
            enumerate_exceptional.cache_clear()  # 48,796 or 209,760 classes

    @pytest.mark.parametrize("n", range(3, 10))
    def test_tied_and_fraction_areas(self, n):
        for lam in [(1,) * n, (2, 2) + (1,) * (n - 2),
                    (Fraction(3, 2),) * 3 + (Fraction(1, 2),) * (n - 3),
                    (Fraction(5, 4),) * (n - 1) + (0,)]:
            top = sum(sorted(lam, reverse=True)[:3])
            for d in (-1, Fraction(-1, 6), 0, Fraction(1, 6), 1):
                w = SymplecticClass((top + d,) + lam)
                _assert_scan_verdict(w)
                _assert_scan_verdict(w.scale(Fraction(7, 3)))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_slice_points_across_the_threshold(self, n):
        k0, f = canonical_class(n), fiber_class(n)
        star = _slice_threshold(n)
        for t in (-1, Fraction(-1, 10), Fraction(-1, 1000), 0,
                  Fraction(1, 1000), Fraction(1, 10), 1):
            w = slice_point(k0, f, star + t)
            assert (_assert_scan_verdict(w) != OUTSIDE) == (t > 0), (n, t)


# At N = 3..8, the number of roots of positive degree and of exceptional
# classes; the first bounds a descent's reflections, and stays below the
# second, the budget.
POSITIVE_DEGREE_ROOTS = {3: 1, 4: 4, 5: 10, 6: 21, 7: 42, 8: 92}


class TestDescentSteps:
    def test_roots_of_positive_degree_fit_the_budget(self):
        for n, count in POSITIVE_DEGREE_ROOTS.items():
            assert sum(1 for r in all_roots(n) if r.degree > 0) == count
            assert count < len(enumerate_exceptional(n))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_steps_within_the_positive_degree_roots(self, n):
        rng = random.Random(3300 + n)
        for i in range(150):
            w = _scrambled(rng, _seeded_class(rng, n, i % 4))
            if w.square() > 0:
                c = _raw_integers(w)
                assert _descend(c, POSITIVE_DEGREE_ROOTS[n]) is not None, w

    def test_spent_budget_leaves_the_class_open(self):
        c = [5, -2, -2, -2, -1]  # (5; 2, 2, 2, 1) needs one reflection
        assert _descend(list(c), 0) is None
        assert _descend(list(c), 1) == (True, [4, -1, -1, -1, -1])

    @pytest.mark.parametrize("b", [10, 10**3, 10**6, 10**9])
    def test_long_descent_at_nine_blowups(self, monkeypatch, b):
        # (3A; A + B, A - B, A x 6, A - 1) with A = B^2 + 1 has w.w = 1 and
        # an exceptional class of degree 3B^2 and area 0, reached after
        # about 4B reflections; below the budget (B = 10) its degree is
        # above the cap, and either way the capped scan decides.
        a = b * b + 1
        w = SymplecticClass((3 * a, a + b, a - b) + (a,) * 6 + (a - 1,))
        assert w.square() == 1
        budget = len(enumerate_exceptional(9, 5))
        calls = []
        original = exceptional._reflect

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(exceptional, "_reflect", counted)
        assert is_in_cone(w) == PARTIAL_POSITIVE
        assert oracles.cone_verdict_by_scan(w) == PARTIAL_POSITIVE
        if b == 10:
            # 38 reflections, then as many to unwind the witness
            assert len(calls) == 76
            inside, v = _descend(_raw_integers(w), budget)
            assert not inside and v[0] == 3 * b * b
            assert pairing(w, CohClass(tuple(v))) == 0
        else:
            assert len(calls) == budget


class TestDescentCertificates:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_witnesses_and_reduced_forms(self, n):
        rng = random.Random(3400 + n)
        seen = set()
        for i in range(100):
            w = _scrambled(rng, _seeded_class(rng, n, i % 4))
            if w.square() <= 0:
                continue
            inside, v = _descend(_raw_integers(w), 10**4)
            seen.add(inside)
            if inside:
                lam = sorted((-x for x in v[1:]), reverse=True)
                assert is_reduced_class(SymplecticClass((v[0], *lam))), w
            else:
                e = CohClass(tuple(v))
                trace = reduce_exceptional(e)
                assert trace.final == unit(n, trace.final_index)
                assert pairing(w, e) <= 0
        assert seen == {False, True}


@pytest.mark.parametrize("n,want", [
    (2, ()), (3, ()), (4, ()), (5, (1,)), (6, ()), (7, (2,)), (8, (4,)),
    (9, ()), (10, ()),
])
def test_fiber_pairs(n, want):
    assert fiber_pairs(n) == want


def test_fiber_pairs_matches_scan():
    for n in range(2, 41):
        assert fiber_pairs(n) == oracles.fiber_pairs_scan(n), n


def test_fiber_pairs_invariants():
    for n in (5, 7, 8):
        (a,) = fiber_pairs(n)
        assert a * (9 - n) == 4
        k, f = canonical_class(n), fiber_class(n)
        fp = -a * k - f
        assert pairing(f, fp) == 2 * a


class TestBlowdown:
    def test_divisibility_exclusion(self):
        assert blowdown_obstruction(5, -50) == ()
        assert blowdown_obstruction(7, -50) == ()
        assert blowdown_obstruction(8, -50) == ()

    def test_six_blowups_single_pair(self):
        assert blowdown_obstruction(6, -50) == ((-1, 1),)

    def test_nonpositive_square_excluded(self):
        assert blowdown_obstruction(9, -50) == ()
        assert blowdown_obstruction(12, -50) == ()

    @pytest.mark.parametrize("a_min", [-1, -2, -7, -10**4])
    def test_matches_the_scan(self, a_min):
        for n in range(1, 40):
            assert blowdown_obstruction(n, a_min) == \
                oracles.blowdown_obstruction_scan(n, a_min)

    def test_cost_independent_of_a_min(self):
        expected = {2: ((-3, 9),), 3: ((-1, 2),), 4: ((-2, 4),), 6: ((-1, 1),)}
        for n in range(2, 11):
            got = blowdown_obstruction(n, -10**8)
            assert got == expected.get(n, ())
            assert got == oracles.blowdown_obstruction_scan(n, -10)

    def test_ascending_a_with_several_divisors(self):
        # K^2 <= 8 on every surface, so it has at most one odd divisor >= 3;
        # K^2 = 45 (N = -36) has five, which pins the order of the pairs.
        got = blowdown_obstruction(-36, -30)
        assert [a for a, _ in got] == [-22, -7, -4, -2, -1]
        assert got == oracles.blowdown_obstruction_scan(-36, -30)

    def test_coprimality_fact(self):
        for a in range(-200, 0):
            assert math.gcd(a * a, 2 * a - 1) == 1

    def test_bad_range(self):
        with pytest.raises(LatticeError):
            blowdown_obstruction(6, 0)


class TestDelta:
    def test_examples(self):
        n = 5
        k0, f = canonical_class(n), fiber_class(n)
        assert delta(slice_point(k0, f, 0), f, k0) == 0
        assert delta(slice_point(k0, f, 1), f, k0) == 1
        doubled = slice_point(k0, f, 3).scale(2)  # -2K + 6F
        assert delta(doubled, f, k0) == 3

    def test_fiber_area_must_be_positive(self):
        n = 5
        k0, f = canonical_class(n), fiber_class(n)
        w = SymplecticClass.from_raw(tuple(-c for c in f.coords))
        with pytest.raises(LatticeError):
            delta(w, f, k0)

    def test_outside_span(self):
        n = 5
        k0, f = canonical_class(n), fiber_class(n)
        with pytest.raises(LatticeError):
            delta(SymplecticClass((3, 2, 1, 1, 1, 1)), f, k0)

    def test_span2_solver(self):
        n = 5
        k0, f = canonical_class(n), fiber_class(n)
        raw = tuple(-2 * kc + 3 * fc for kc, fc in zip(k0.coords, f.coords))
        x, y = span2_coefficients(SymplecticClass.from_raw(raw), k0, f)
        assert (x, y) == (-2, 3)


class TestFiberReport:
    def _rank2_group(self, n):
        from gsurf.gconic import full_swap, matrix_from_fiber_action
        cyc = matrix_from_fiber_action((3, 4, 2) + tuple(range(5, n + 1)),
                                       (1,) * (n - 1), n)
        return [full_swap(n), cyc]

    def test_trivial_core_reports_both(self):
        from gsurf.cone import fiber_report
        rep = fiber_report(self._rank2_group(5), 1)
        assert rep.rank == 2
        assert len(rep.candidates) == 2
        assert rep.effective == rep.candidates
        assert not rep.unique_expected
        assert rep.consistent

    def test_core_selects_the_bundle_fiber(self):
        from gsurf.cone import fiber_report
        rep = fiber_report(self._rank2_group(5), 3)
        assert rep.unique_expected
        assert rep.effective == (fiber_class(5),)
        assert len(rep.excluded_by_core) == 1
        assert rep.consistent

    @pytest.mark.parametrize("g0", [2.5, 1.0, True, "3"])
    def test_core_order_must_be_an_int(self, g0):
        from gsurf.cone import fiber_report
        from gsurf.selftest import klein_four_group
        group = klein_four_group(5, [(2, 3), (4, 5), ()])
        with pytest.raises(LatticeError,
                           match="^the declared core order must be an int$"):
            fiber_report(group, g0)
        with pytest.raises(LatticeError,
                           match="^core order must be at least 1$"):
            fiber_report(group, 0)

    def test_many_blowups_unique_numeric(self):
        from gsurf.cone import fiber_report
        rep = fiber_report(self._rank2_group(9), 1)
        assert rep.unique_expected
        assert rep.candidates == (fiber_class(9),)
        assert rep.consistent


class TestSliceScan:
    def test_standard_grid_members(self):
        n = 5
        sl = slice_scan(n, fiber_class(n), canonical_class(n),
                        [0, Fraction(1, 2), 1, 2])
        assert all(member for _, member in sl.samples)
        assert sl.first_member == 0
        assert sl.last_outside is None

    def test_negative_gap_leaves_cone(self):
        n = 5
        grid = [Fraction(-3, 2), -1, Fraction(-1, 2), 0, 1]
        sl = slice_scan(n, fiber_class(n), canonical_class(n), grid)
        flags = dict(sl.samples)
        assert not flags[Fraction(-3, 2)]
        assert not flags[-1]            # square hits zero at the endpoint
        assert flags[Fraction(-1, 2)]
        assert sl.last_outside == -1
        assert sl.first_member == Fraction(-1, 2)

    def test_monotone_class_at_zero(self):
        sl = slice_scan(3, fiber_class(3), canonical_class(3), [0])
        assert sl.samples[0][1]

    def test_duplicate_grid_rejected(self):
        with pytest.raises(LatticeError):
            slice_scan(5, fiber_class(5), canonical_class(5), [0, Fraction(0)])

    def test_bad_fiber_rejected(self):
        n = 5
        with pytest.raises(LatticeError):
            ConeSlice(canonical_class(n), canonical_class(n), (), None, None)

    def test_bad_fiber_rejected_before_the_scan(self):
        # With F = E1 the scan itself would break monotonicity and raise an
        # InvariantViolation; the fiber is refused first, as bad input.
        n = 5
        e1 = CohClass((0, 1, 0, 0, 0, 0))
        with pytest.raises(LatticeError, match="^fiber class must satisfy"
                                               " F.F = 0, K.F = -2$"):
            slice_scan(n, e1, canonical_class(n), [0, 1])
