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
    blowdown_obstruction,
    canonical_sign,
    delta,
    fiber_pairs,
    is_in_cone,
    slice_point,
    slice_scan,
    span2_coefficients,
)
from gsurf.errors import LatticeError, LimitExceeded
from gsurf.exceptional import enumerate_exceptional
from gsurf.gconic import fiber_class
from gsurf.lattice import SymplecticClass, canonical_class, pairing

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


class TestCanonicalSign:
    def test_examples(self):
        n = 5
        k0, f = canonical_class(n), fiber_class(n)
        plus = SymplecticClass.from_raw(
            tuple(-k + 2 * c for k, c in zip(k0.coords, f.coords)))
        assert canonical_sign(plus, k0) == 1
        assert canonical_sign(-plus, k0) == -1
        monotone = SymplecticClass.from_raw(tuple(-k for k in k0.coords))
        assert canonical_sign(monotone, k0) == 1

    def test_signs_are_opposite(self):
        rng = random.Random(4)
        n = 7
        k0, f = canonical_class(n), fiber_class(n)
        for _ in range(30):
            a = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
            b = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
            raw = tuple(a * kc + b * fc for kc, fc in zip(k0.coords, f.coords))
            w = SymplecticClass.from_raw(raw)
            if w.square() <= 0:
                continue
            assert canonical_sign(w, k0) == -canonical_sign(-w, k0)

    def test_outside_span_rejected(self):
        n = 5
        with pytest.raises(LatticeError):
            canonical_sign(SymplecticClass((3, 2, 1, 1, 1, 1)),
                           canonical_class(n))

    def test_span2_solver(self):
        n = 5
        k0, f = canonical_class(n), fiber_class(n)
        raw = tuple(-2 * kc + 3 * fc for kc, fc in zip(k0.coords, f.coords))
        x, y = span2_coefficients(SymplecticClass.from_raw(raw), k0, f)
        assert (x, y) == (-2, 3)


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
