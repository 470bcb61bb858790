import itertools
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsurf import exceptional
from gsurf.errors import LatticeError, LimitExceeded
from gsurf.exceptional import (
    _arrangements,
    _degree_bounds,
    _distinct_permutations,
    enumerate_exceptional,
    is_exceptional,
    reduce_exceptional,
)
from gsurf.lattice import (
    CohClass,
    Isometry,
    SymplecticClass,
    canonical_class,
    pairing,
    unit,
)
from gsurf.weyl import reflection

import oracles
from oracles import cremona_reflect, h_ijk

FROZEN_COUNTS = {2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}


def h_ij(n, i, j):
    """The exceptional class H - Ei - Ej."""
    return unit(n, 0) - unit(n, i) - unit(n, j)


@pytest.mark.parametrize("n", range(2, 9))
def test_counts_match_oracle(n):
    got = {c.coords for c in enumerate_exceptional(n)}
    want = set(oracles.exc_classes_oracle(n))
    assert got == want
    assert len(got) == FROZEN_COUNTS[n]


def test_small_sets_explicit():
    two = {c.coords for c in enumerate_exceptional(2)}
    assert two == {(0, 1, 0), (0, 0, 1), (1, -1, -1)}
    three = {c.coords for c in enumerate_exceptional(3)}
    assert three == {(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                     (1, -1, -1, 0), (1, -1, 0, -1), (1, 0, -1, -1)}


def test_defining_equations():
    for n in range(2, 9):
        k = canonical_class(n)
        for e in enumerate_exceptional(n):
            assert e.square() == -1
            assert pairing(k, e) == -1


@pytest.mark.parametrize("args", [(n,) for n in range(2, 9)] + [(9, 5), (10, 3)],
                         ids=lambda args: ",".join(map(str, args)))
def test_enumeration_matches_permutation_sets(args):
    got = tuple(c.coords for c in enumerate_exceptional(*args))
    assert got == oracles.exc_coords_by_permutation_sets(*args)


def test_eleven_blowups_degree_four():
    classes = enumerate_exceptional(11, 4)
    assert len(classes) == 13178
    assert len(classes) == oracles.exc_count_by_multinomials(11, 4)
    assert len(set(classes)) == len(classes)


@pytest.mark.parametrize("n", range(1, 9))
def test_degree_bounds_match_the_scan(n):
    """The grid holds the exceptional (-1, -1), root (-2, 0) and fiber
    (0, -2) families, and families with no class (an empty window)."""
    for square in range(-4, 5):
        for k_degree in range(-4, 5):
            lo, hi = _degree_bounds(n, square, k_degree)
            want = oracles.feasible_degrees(n, square, k_degree)
            assert list(range(lo, hi + 1)) == want, (square, k_degree)


def test_fiber_classes_start_at_degree_one():
    """F.F = 0, K.F = -2 has no class of degree 0: no window may assume one."""
    for n in range(1, 9):
        assert _degree_bounds(n, 0, -2)[0] == 1
        got = {c.coords for c in oracles.lattice_classes(n, 0, -2)}
        want = {v for a in range(-3, 13)    # contains every window, [1, 11]
                for v in oracles._solve(n, 3 * a - 2, a * a, a)}
        assert got == want


@pytest.mark.parametrize("n", range(1, 9))
def test_lattice_classes_are_the_exceptional_enumeration(n):
    assert oracles.lattice_classes(n, -1, -1) == enumerate_exceptional(n).classes


@pytest.mark.parametrize("n", [0, 9, 12])
def test_lattice_classes_need_a_finite_window(n):
    with pytest.raises(LatticeError, match="1 <= N <= 8"):
        oracles.lattice_classes(n, -1, -1)


@pytest.mark.parametrize("items", [(), (0,), (1, 1, 1), (2, 1, 1, 0),
                                   (-1, 0, 0, 1, 1), (3, 1, 4, 1, 5, 9, 2, 6)])
def test_distinct_permutations_in_lexicographic_order(items):
    got = list(_distinct_permutations(items))
    assert got == sorted(set(itertools.permutations(items)))
    assert _arrangements(sorted(items, reverse=True)) == len(got)


def test_limit_just_above_the_count_returns_everything():
    assert len(enumerate_exceptional(11, 4, 13_179)) == 13_178
    assert len(enumerate_exceptional(11, 4, 13_178)) == 13_178


def test_limit_is_checked_before_any_class_is_built(monkeypatch):
    def refuse(coords):
        raise AssertionError("a class was built")
    monkeypatch.setattr("gsurf.exceptional.CohClass", refuse)
    with pytest.raises(LimitExceeded, match="--limit"):
        enumerate_exceptional(11, 4, 13_177)
    # about 5.7e15 classes, stopped by the default limit
    with pytest.raises(LimitExceeded, match="--limit"):
        enumerate_exceptional(20, 12)


def test_large_n_needs_degree_cap():
    with pytest.raises(LatticeError):
        enumerate_exceptional(9)
    capped = enumerate_exceptional(9, max_degree=2)
    assert not capped.complete
    assert all(e.degree <= 2 for e in capped)
    # degree cap below the full range also flags incompleteness for small n
    assert not enumerate_exceptional(8, max_degree=3).complete


def test_positive_degree_coefficient_shape():
    """b >= 0 and b_i <= a < b_i + b_j + b_k for the three largest."""
    for n in range(3, 9):
        for e in enumerate_exceptional(n):
            a = e.degree
            if a <= 0:
                continue
            bs = sorted(oracles.b_vector(e), reverse=True)
            assert all(b >= 0 for b in bs)
            assert bs[0] <= a < bs[0] + bs[1] + bs[2]


def test_fiber_pairs_nonnegative():
    """F.e >= 0 for F = H - E1 over the whole enumeration."""
    for n in range(2, 9):
        coords = [0] * (n + 1)
        coords[0], coords[1] = 1, -1
        f = CohClass(tuple(coords))
        assert all(pairing(f, e) >= 0 for e in enumerate_exceptional(n))


class TestCremona:
    def test_basic_images(self):
        e1 = CohClass((0, 1, 0, 0))
        assert cremona_reflect(e1, (1, 2, 3)) == CohClass((1, 0, -1, -1))
        k = canonical_class(6)
        assert cremona_reflect(k, (2, 4, 6)) == k

    def test_involutive_on_random_classes(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(3, 8)
            x = CohClass(tuple(rng.randint(-4, 4) for _ in range(n + 1)))
            ijk = tuple(sorted(rng.sample(range(1, n + 1), 3)))
            assert cremona_reflect(cremona_reflect(x, ijk), ijk) == x

    def test_matrix_form_is_isometry(self):
        iso = reflection(h_ijk(5, 1, 2, 3))
        assert (iso @ iso).is_identity()
        assert iso.fixes(canonical_class(5))

    def test_permutes_enumeration(self):
        for n in (4, 6):
            classes = set(enumerate_exceptional(n))
            image = {cremona_reflect(e, (1, 3, 4)) for e in classes}
            assert image == classes

    def test_index_validation(self):
        with pytest.raises(LatticeError):
            h_ijk(5, 3, 3, 4)
        with pytest.raises(LatticeError):
            h_ijk(5, 0, 1, 2)


class TestReduceExceptional:
    def test_one_step(self):
        trace = reduce_exceptional(h_ij(3, 1, 2))
        assert trace.final_index == 3
        assert len(trace.steps) == 1
        assert trace.steps[0][0] == (1, 2, 3)

    def test_degree_zero_identity_trace(self):
        e5 = CohClass((0, 0, 0, 0, 0, 1))
        trace = reduce_exceptional(e5)
        assert trace.steps == ()
        assert trace.final_index == 5

    def test_high_degree_class(self):
        e = CohClass((6, -3, -2, -2, -2, -2, -2, -2, -2))
        assert is_exceptional(e)
        trace = reduce_exceptional(e)
        degs = trace.degrees()
        assert all(d2 < d1 for d1, d2 in zip(degs, degs[1:]))
        assert len(trace.steps) <= e.degree
        assert trace.final.coords.count(1) == 1

    def test_rejects_non_exceptional(self):
        with pytest.raises(LatticeError):
            reduce_exceptional(CohClass((1, 0, 0, 0)))

    def test_tie_breaking_smallest_indices(self):
        # all b equal: the first three indices must be chosen
        e = CohClass((2, -1, -1, -1, -1, -1))
        assert is_exceptional(e)
        trace = reduce_exceptional(e)
        assert trace.steps[0][0] == (1, 2, 3)

    def test_areas_non_increasing_for_reduced_form(self):
        w = SymplecticClass((4, 2, 1, 1, 1, 1))
        for e in enumerate_exceptional(5):
            trace = reduce_exceptional(e)
            for _, before, after in trace.steps:
                assert w.area(after) <= w.area(before)


def _word_image(x, seed, length):
    """x under a random word of Cremona reflections and transpositions."""
    rng = random.Random(seed)
    n = x.n
    for _ in range(length):
        if rng.random() < 0.5:
            x = cremona_reflect(x, tuple(sorted(rng.sample(range(1, n + 1), 3))))
        else:
            i, j = rng.sample(range(1, n + 1), 2)
            c = list(x.coords)
            c[i], c[j] = c[j], c[i]
            x = CohClass(tuple(c))
    return x


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.integers(3, 12), st.integers(0, 2 ** 32), st.integers(0, 8))
def test_reflection_in_a_word_image_is_an_involutive_isometry(n, seed, length):
    start = h_ijk(n, 1, 2, 3) if seed % 2 else unit(n, 1) - unit(n, 2)
    alpha = _word_image(start, seed, length)
    assert alpha.square() == -2
    s = reflection(alpha)
    assert isinstance(s, Isometry)
    assert (s @ s).is_identity()
    assert s.apply(alpha) == -alpha
    assert s.fixes(canonical_class(n))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.integers(3, 12), st.integers(1, 12), st.integers(0, 2 ** 32),
       st.integers(0, 8))
def test_descent_of_a_word_image_ends_at_a_basis_class(n, l, seed, length):
    e = _word_image(unit(n, min(l, n)), seed, length)
    assert is_exceptional(e)
    trace = reduce_exceptional(e)
    degrees = trace.degrees()
    assert all(d2 < d1 for d1, d2 in zip(degrees, degrees[1:]))
    assert degrees[-1] == 0
    assert trace.final == unit(n, trace.final_index)
    assert trace == oracles.reduce_exceptional_by_classes(e)


def _outcome(reduce, x, *args):
    """What a descent returns, or the type and message of its refusal."""
    try:
        return reduce(x, *args)
    except (LatticeError, LimitExceeded) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("args", [(n,) for n in range(3, 9)] + [(9, 5)],
                         ids=lambda args: ",".join(map(str, args)))
def test_traces_equal_the_class_arithmetic_oracle(args):
    for e in enumerate_exceptional(*args):
        assert reduce_exceptional(e) == oracles.reduce_exceptional_by_classes(e)


@pytest.mark.parametrize("x", [CohClass((0, 1, 0)), CohClass((1, -1, -1)),
                               CohClass((1, 0, 0, 0)), CohClass((0, 0, 0, 2)),
                               CohClass((2, -1, -1, -1, -1, -1, -1)),
                               CohClass((1, 1, 1, 1, 1)), canonical_class(8),
                               canonical_class(10),
                               CohClass((-7,) + (2,) * 12 + (-1, -1))],
                         ids=str)
def test_refusals_equal_the_oracle(x):
    got = _outcome(reduce_exceptional, x)
    assert got[0] is LatticeError
    assert got == _outcome(oracles.reduce_exceptional_by_classes, x)


WITNESS = re.compile(r"(\[[-0-9,]+\]) is not exceptional: it pairs to (-\d+)"
                     r" with the exceptional class (\[[-0-9,]+\])")


def _checked_witness(e, message):
    """The witness a refusal of e names, checked: exceptional, descending
    to a basis class, and pairing negatively with e as stated."""
    start, m, w = WITNESS.fullmatch(message).groups()
    assert json.loads(start) == list(e.coords)
    w = CohClass(tuple(json.loads(w)))
    assert is_exceptional(w) and w != e
    assert oracles.reduce_exceptional_by_classes(w).final.degree == 0
    assert pairing(e, w) == int(m) < 0
    return w


def test_a_stalled_class_names_its_witness():
    e = CohClass((3,) + (-1,) * 9 + (1,))
    with pytest.raises(LatticeError) as stop:
        reduce_exceptional(e)
    assert _checked_witness(e, str(stop.value)) == unit(10, 10)


@pytest.mark.parametrize("n, max_degree", [(10, 5), (11, 4), (12, 3)])
def test_every_stall_names_a_witness_and_nothing_else_changes(
        monkeypatch, n, max_degree):
    """The numerical classes at N >= 10 hold some that stall, at the
    start or after steps; each names a witness mapped back through the
    word, where the oracle says the degree did not drop.  At every stall
    H - Ei - Ej, on the two largest b, pairs no lower than E_l, on the
    smallest: c0 + ci + cj >= -cl, so E_l is the only witness."""
    stalled_at = []

    def spy(e, at, word):
        c = at.coords
        i, j, *_, l = sorted(range(1, len(c)), key=c.__getitem__)
        assert c[0] + c[i] + c[j] >= -c[l], at
        stalled_at.append(at)
        return original(e, at, word)

    original = exceptional._stall
    monkeypatch.setattr(exceptional, "_stall", spy)
    stalls, want_stalled_at = set(), []
    for e in enumerate_exceptional(n, max_degree):
        want = _outcome(oracles.reduce_exceptional_by_classes, e)
        got = _outcome(reduce_exceptional, e)
        if want[0] is LatticeError:
            head, _, stalled = want[1].partition(" at ")
            assert head == "degree did not drop"
            _checked_witness(e, got[1])
            stalls.add(stalled == str(e))
            want_stalled_at.append(stalled)
        else:
            assert got == want
    # at N = 12 up to degree 3 every stall comes before any step
    assert stalls == ({True} if n == 12 else {True, False})
    assert [str(at) for at in stalled_at] == want_stalled_at


@pytest.mark.parametrize("n", [6, 9])
def test_a_negative_degree_cap_is_refused(n):
    with pytest.raises(LatticeError, match="max_degree must be at least 0"):
        enumerate_exceptional(n, -5)


@pytest.mark.parametrize("args, name, got", [
    ((3.0,), "n", "float"), ((True,), "n", "bool"),
    ((9, 2.0), "max_degree", "float"), ((9, True), "max_degree", "bool"),
    ((1, None, 10.0), "limit", "float"), ((1, None, True), "limit", "bool")])
def test_non_int_arguments_are_refused(args, name, got):
    # The equal int call is cached first: the cache keys by type as well,
    # so a cached 3 does not answer for 3.0, nor a cached 1 for True.
    enumerate_exceptional(*(a if a is None else int(a) for a in args))
    with pytest.raises(LatticeError, match=f"^{name} must be an int, got {got}$"):
        enumerate_exceptional(*args)


class TestReducedByAreas:
    """Cross-check of the two reducedness routes on in-cone classes.

    Area-minimality implies the coefficient inequalities but not the other
    way around; the counterexample below pins the strictness.
    """

    def test_area_reduced_implies_coefficient_reduced(self):
        from gsurf.cone import FULL, is_in_cone
        from gsurf.lattice import is_reduced_class
        from fractions import Fraction
        rng = random.Random(17)
        checked = area_reduced = 0
        while checked < 200:
            n = rng.choice((3, 4, 5, 6))
            lams = [Fraction(rng.randint(4, 14), 4) for _ in range(n)]
            if rng.random() < 0.7:
                lams.sort(reverse=True)
            top = sorted(lams, reverse=True)
            nu = sum(top[:2]) + Fraction(rng.randint(0, 10), 3)
            w = SymplecticClass((nu, *lams))
            if is_in_cone(w) != FULL:
                continue
            checked += 1
            if oracles.is_reduced_by_minimal_areas(w):
                area_reduced += 1
                assert is_reduced_class(w), w
            if not is_reduced_class(w):
                assert not oracles.is_reduced_by_minimal_areas(w), w
        assert area_reduced > 10  # the sweep hits both outcomes

    def test_coefficient_reduced_is_strictly_weaker(self):
        from gsurf.cone import FULL, is_in_cone
        from gsurf.lattice import is_reduced_class
        from fractions import Fraction
        w = SymplecticClass((Fraction(26, 3), Fraction(13, 4), Fraction(11, 4),
                             Fraction(5, 2), Fraction(9, 4), Fraction(5, 4)))
        assert is_in_cone(w) == FULL
        assert is_reduced_class(w)
        # E2 is beaten by H - E1 - E2: 26/3 - 6 < 11/4
        assert not oracles.is_reduced_by_minimal_areas(w)

    def test_descent_normal_forms_pass_both(self):
        from gsurf.lattice import is_reduced_class
        for n in (3, 5):
            for b in (0, 1, 2):
                w = SymplecticClass((3 + b, 1 + b) + (1,) * (n - 1))
                assert is_reduced_class(w)
                assert oracles.is_reduced_by_minimal_areas(w)
        assert not oracles.is_reduced_by_minimal_areas(SymplecticClass((3, 1, 2, 1)))

    def test_needs_complete_enumeration(self):
        with pytest.raises(LatticeError):
            oracles.is_reduced_by_minimal_areas(SymplecticClass((4,) + (1,) * 9))


def test_positive_area_filter():
    w = SymplecticClass((3, 2, 1, 1))
    kept = [e for e in enumerate_exceptional(3) if w.area(e) > 0]
    # H - E1 - E2 and H - E1 - E3 both have zero area for this class
    assert h_ij(3, 1, 2) not in kept
    assert h_ij(3, 1, 3) not in kept
    assert len(kept) == 4
