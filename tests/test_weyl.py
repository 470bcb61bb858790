import hashlib
import itertools
import pickle
import random
import struct
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsurf.listing
import gsurf.weyl
from gsurf.errors import InvariantViolation, LatticeError, LimitExceeded
from gsurf.gconic import fiber_class, full_swap, matrix_from_fiber_action
from gsurf.lattice import CohClass, Isometry, canonical_class, pairing, unit
from gsurf.selftest import klein_four_group, parity_consistent_partitions
from gsurf.weyl import (
    _MAX_FINITE_ORDER,
    _basis_chain,
    _images,
    _orbits,
    _refuse_infinite_order,
    NEITHER,
    RANK1,
    RANK2,
    StabilizerChain,
    all_roots,
    fiber_class_candidates,
    generate_group,
    group_order_via_chain,
    integer_kernel,
    invariant_lattice,
    minimality_rank_dichotomy,
    reflection,
    root_system_type,
    simple_reflections,
    simple_roots,
    trace_sum_condition,
    weyl_group,
)

import oracles
from oracles import cremona_reflect, h_ijk

ROOT_COUNTS = {3: 8, 4: 20, 5: 40, 6: 72, 7: 126, 8: 240}
WEYL_ORDERS = {3: 12, 4: 120, 5: 1920}


def test_root_system_types():
    assert root_system_type(3) == "A2+A1"
    assert root_system_type(6) == "E6"
    with pytest.raises(LatticeError):
        root_system_type(9)


@pytest.mark.parametrize("n", range(3, 9))
def test_simple_roots_are_roots(n):
    k = canonical_class(n)
    roots = simple_roots(n)
    assert len(roots) == n
    for r in roots:
        assert r.square() == -2
        assert pairing(k, r) == 0


@pytest.mark.parametrize("n", range(3, 9))
def test_all_roots_counts(n):
    roots = all_roots(n)
    assert len(roots) == ROOT_COUNTS[n]
    assert [r.coords for r in roots] == sorted(oracles.root_classes_oracle(n))
    # the closed form builds trusted classes: each must pass validation and
    # equal the exceptional enumerator's route
    assert roots == tuple(CohClass(r.coords) for r in roots) == \
        oracles.lattice_classes(n, -2, 0)


def test_roots_closed_under_simple_reflections():
    for n in (3, 5):
        roots = set(all_roots(n))
        for s in simple_reflections(n):
            assert {s.apply(r) for r in roots} == roots


def test_simple_reflections_are_cached():
    assert simple_reflections(6) is simple_reflections(6)


def test_roots_are_the_orbit_of_simple_roots():
    for n in (3, 4, 5):
        refl = simple_reflections(n)
        orbit = set(simple_roots(n))
        frontier = list(orbit)
        while frontier:
            new = []
            for r in frontier:
                for s in refl:
                    img = s.apply(r)
                    if img not in orbit:
                        orbit.add(img)
                        new.append(img)
            frontier = new
        assert orbit == set(all_roots(n))


class TestReflection:
    def test_swap_reflection(self):
        s = reflection(CohClass((0, 1, -1, 0)))
        e1, e2 = CohClass((0, 1, 0, 0)), CohClass((0, 0, 1, 0))
        assert s.apply(e1) == e2 and s.apply(e2) == e1

    def test_equals_cremona(self):
        alpha = CohClass((1, -1, -1, -1, 0))
        cols = [cremona_reflect(unit(4, j), (1, 2, 3)).coords for j in range(5)]
        assert reflection(alpha) == Isometry(tuple(zip(*cols)))

    def test_involutive_and_negates(self):
        alpha = CohClass((1, -1, -1, -1))
        s = reflection(alpha)
        assert (s @ s).is_identity()
        assert s.apply(alpha) == -alpha

    def test_rejects_wrong_square(self):
        with pytest.raises(LatticeError):
            reflection(CohClass((0, 1, 0, 0)))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_pairing_route(self, n):
        basis = [CohClass(tuple(1 if t == j else 0 for t in range(n + 1)))
                 for j in range(n + 1)]
        for alpha in all_roots(n):
            cols = [(e + pairing(e, alpha) * alpha).coords for e in basis]
            assert reflection(alpha) == Isometry(tuple(zip(*cols)))


class TestClosure:
    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_weyl_orders(self, n):
        assert weyl_group(n).order == WEYL_ORDERS[n]

    def test_cross_check_pure_python(self):
        group = weyl_group(3)
        mats = [g.mat for g in group.generators]
        assert len(oracles.tuple_closure(mats)) == group.order

    def test_elements_are_isometries_fixing_k(self):
        group = weyl_group(3)
        k = canonical_class(3)
        elems = list(group)
        assert len(elems) == 12
        assert all(g.fixes(k) for g in elems)

    def test_trivial_group(self):
        assert generate_group([Isometry.identity(4)]).order == 1

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            generate_group(simple_reflections(4), limit=10)

    def test_deterministic_element_order(self):
        a = weyl_group(4).element_array()
        b = generate_group(list(reversed(simple_reflections(4)))).element_array()
        assert (a == b).all()

    def test_dimension_mismatch(self):
        with pytest.raises(LatticeError):
            generate_group([Isometry.identity(3), Isometry.identity(4)])


def _listed(gens, limit):
    return generate_group(gens, limit).element_array()


def _outcome(close, gens, limit):
    try:
        elements = close(gens, limit)
    except LatticeError as exc:
        return type(exc), str(exc)
    return elements.dtype, elements.shape, elements.tobytes()


def _assert_matches_bfs(gens):
    """Same element bytes and dtype as the BFS; same message at |G| - 1."""
    want = oracles.group_by_bfs(gens)
    group = generate_group(gens)
    got = group.element_array()
    assert (got.dtype, got.shape, got.tobytes()) == \
        (want.dtype, want.shape, want.tobytes())
    _assert_group_sum(group, want)
    order = want.shape[0]
    assert generate_group(gens, limit=order).element_array().tobytes() == \
        want.tobytes()
    with pytest.raises(LimitExceeded,
                       match=f"^group closure exceeded limit {order - 1}$"):
        generate_group(gens, limit=order - 1)
    with pytest.raises(LimitExceeded):
        oracles.group_by_bfs(gens, limit=order - 1)


def _times(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _assert_group_sum(group, listing):
    """R equals the listing's sum and is |G| times the invariant projector."""
    r = group.group_sum()
    assert r == tuple(map(tuple, listing.sum(axis=0, dtype=np.int64).tolist()))
    for g in group.generators:
        minus_one = [[v - (i == j) for j, v in enumerate(row)]
                     for i, row in enumerate(g.mat)]
        assert not any(map(any, _times(r, minus_one)))
    for v in invariant_lattice(group)[1]:
        assert _times(r, [[c] for c in v.coords]) == \
            [[group.order * c] for c in v.coords]


def _random_gens(rng, n, count):
    refl = simple_reflections(n)
    gens = []
    for _ in range(count):
        word = Isometry.identity(n)
        for _ in range(rng.randint(1, 8)):
            word = word @ rng.choice(refl)
        gens.append(word)
    return gens


def _affine_reflections(n):
    """Reflections in H - E1 - E2 - E3 and Ei - E(i+1): infinite for N >= 9."""
    first = CohClass((1, -1, -1, -1) + (0,) * (n - 3))
    return [reflection(first)] + [reflection(unit(n, i) - unit(n, i + 1))
                                  for i in range(1, n)]


def _conjugated(n, gens, power):
    """``gens`` conjugated by a power of the affine Coxeter element.

    The group stays finite while its entries grow with ``power``.
    """
    c = c_inv = Isometry.identity(n)
    for s in _affine_reflections(n):
        c, c_inv = c @ s, s @ c_inv
    w = w_inv = Isometry.identity(n)
    for _ in range(power):
        w, w_inv = w @ c, c_inv @ w_inv
    return [w @ g @ w_inv for g in gens]


def _transpositions(n, count):
    return [reflection(unit(n, i) - unit(n, i + 1)) for i in range(1, count + 1)]


class TestListing:
    """The chain listing against the breadth-first closure it replaced."""

    @pytest.mark.parametrize("n", (3, 4, 5, 6))
    def test_weyl_groups_both_orders(self, n):
        _assert_matches_bfs(list(simple_reflections(n)))
        _assert_matches_bfs(list(reversed(simple_reflections(n))))

    @pytest.mark.parametrize("rank", (3, 4, 5, 6))
    def test_parabolics_of_e7(self, rank):
        refl = simple_reflections(7)
        for nodes in itertools.combinations(range(7), rank):
            _assert_matches_bfs([refl[i] for i in nodes])

    @pytest.mark.parametrize("n", range(3, 9))
    def test_random_subgroups(self, n):
        rng = random.Random(700 + n)
        checked = 0
        while checked < 6:
            gens = _random_gens(rng, n, rng.randint(1, 3))
            if _outcome(oracles.group_by_bfs, gens, 3000)[0] is LimitExceeded:
                continue
            _assert_matches_bfs(gens)
            checked += 1

    @pytest.mark.parametrize("n", range(4, 10))
    def test_klein_groups(self, n):
        for sets in list(parity_consistent_partitions(n))[:4]:
            _assert_matches_bfs(klein_four_group(n, sets)[1:])

    def test_generators_moving_k(self):
        moved = reflection(CohClass((0, -1, -1, 0, 0)))
        _assert_matches_bfs([moved])
        _assert_matches_bfs([moved] + list(simple_reflections(4)[1:]))

    @pytest.mark.parametrize("n", (3, 6, 8))
    def test_minus_identity_and_trivial(self, n):
        minus = Isometry(tuple(tuple(-1 if i == j else 0 for j in range(n + 1))
                               for i in range(n + 1)))
        _assert_matches_bfs([minus])
        _assert_matches_bfs([Isometry.identity(n)])
        _assert_matches_bfs([Isometry.identity(n), minus])

    @pytest.mark.parametrize("n", (9, 10))
    @pytest.mark.parametrize("limit", (10 ** 3, 10 ** 5))
    def test_infinite_groups_end_in_the_same_message(self, n, limit):
        gens = _affine_reflections(n)
        want = _outcome(oracles.group_by_bfs, gens, limit)
        assert want == (LimitExceeded, f"group closure exceeded limit {limit}")
        assert _outcome(_listed, gens, limit) == want

    @pytest.mark.parametrize("n", (9, 10))
    def test_entry_range_message(self, n):
        # A finite group whose generators are in 16-bit range but whose
        # orbits are not.  (An infinite cyclic group, whose powers' entries
        # grow without bound, is refused before its orbits grow: see
        # TestInfiniteOrder.)
        gens = _conjugated(n, _transpositions(n, 3), {9: 760, 10: 33}[n])
        assert max(abs(v) for g in gens for row in g.mat for v in row) <= 32767
        with pytest.raises(LimitExceeded,
                           match="^matrix entries exceeded supported range$"):
            _basis_chain(gens, 10 ** 6)
        want = _outcome(oracles.group_by_bfs, gens, 10 ** 6)
        assert want == (LimitExceeded, "matrix entries exceeded supported range")
        assert _outcome(_listed, gens, 10 ** 6) == want

    @pytest.mark.parametrize("n,power", ((9, 26), (9, 39), (10, 20)))
    def test_entries_past_int8(self, n, power):
        gens = _conjugated(n, _transpositions(n, 3), power)
        _assert_matches_bfs(gens)
        assert generate_group(gens).element_array().dtype == np.int16

    def test_entries_past_int8_with_k_moving(self):
        moved = reflection(CohClass((0, -1, -1) + (0,) * 7))
        gens = _conjugated(9, [moved, _transpositions(9, 3)[2]], 12)
        _assert_matches_bfs(gens)
        assert generate_group(gens).element_array().dtype == np.int16

    @pytest.mark.parametrize("power", (35, 150))
    def test_generator_range_message(self, power):
        # entries past int16, and at power 150 past int64, are refused
        # before any array is made
        gens = _conjugated(10, _transpositions(10, 3), power)
        largest = max(abs(v) for g in gens for row in g.mat for v in row)
        assert largest > 32767 and (power < 150 or largest >= 2 ** 63)
        with pytest.raises(LimitExceeded,
                           match="^matrix entries exceeded supported range$"):
            generate_group(gens)

    def test_column_zero_range_message(self):
        # every generator entry and every orbit point is in 16-bit range;
        # only some element's image of H is not, and the traces, which
        # build no matrix, are refused with the same message
        gens = _conjugated(10, _transpositions(10, 3), 31)
        _basis_chain(gens, 10 ** 6)
        want = _outcome(oracles.group_by_bfs, gens, 10 ** 6)
        assert want == (LimitExceeded, "matrix entries exceeded supported range")
        assert _outcome(_listed, gens, 10 ** 6) == want
        with pytest.raises(LimitExceeded, match=f"^{want[1]}$"):
            generate_group(gens, 10 ** 6).trace_vector()

    def test_group_sum_range_message_without_listing(self, monkeypatch):
        # group_sum checks each transversal element's image of H only when
        # N times the largest point entry, plus 3, passes 3 * 32767: at
        # power 30 the check runs and passes, at power 31 it refuses.
        # Neither lists the group.
        gens = {p: _conjugated(10, _transpositions(10, 3), p) for p in (30, 31)}
        listing = generate_group(gens[30]).element_array()

        def refuse(*args):
            raise AssertionError("listed the elements")
        monkeypatch.setattr(gsurf.listing, "sorted_rows", refuse)
        group = generate_group(gens[30])
        assert 10 * group._listing[3] + 3 > 3 * 32767
        _assert_group_sum(group, listing)
        assert trace_sum_condition(group) == (168, False)
        with pytest.raises(LimitExceeded,
                           match="^matrix entries exceeded supported range$"):
            generate_group(gens[31]).group_sum()
        group = generate_group(_conjugated(9, _transpositions(9, 3), 39))
        assert trace_sum_condition(group) == (144, False)

    def test_e7_listing_pinned(self):
        # W(E7) is past the BFS oracle's reach, so its listing is pinned
        group = weyl_group(7)
        elements = group.element_array()
        assert (elements.dtype, elements.shape) == (np.int8, (2903040, 8, 8))
        assert hashlib.sha256(elements.tobytes()).hexdigest() == \
            "91e31f0cc8bafe952824263d5157b2955f653a7feec9c6bd8405894bff714df8"
        _assert_group_sum(group, elements)

    def test_order_without_listing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("listed the elements")
        monkeypatch.setattr(gsurf.listing, "sorted_rows", refuse)
        group = weyl_group(7)
        assert group.order == len(group) == 2903040
        assert invariant_lattice(group)[0] == 1
        assert minimality_rank_dichotomy(group).kind == RANK1
        assert trace_sum_condition(group) == (0, True)
        with pytest.raises(AssertionError, match="listed the elements"):
            group.element_array()

    def test_eight_blowups_refused_before_listing(self):
        with pytest.raises(LimitExceeded,
                           match="^group closure exceeded limit 10000000$"):
            generate_group(simple_reflections(8))


def _coxeter(reflections, n):
    c = Isometry.identity(n)
    for s in reflections:
        c = c @ s
    return c


def _order(g, cap):
    """The order of g if it is at most ``cap``, else None."""
    power = g
    for k in range(1, cap + 1):
        if power.is_identity():
            return k
        power = power @ g
    return None


def _psi(m):
    """Least d with an element of order m in GL(d, Z): the sum of phi(p^a)
    over m's prime powers, less 1 when m = 2 mod 4 (m >= 2)."""
    total, p, rest = 0, 2, m
    while rest > 1:
        if rest % p == 0:
            q = 1
            while rest % p == 0:
                rest, q = rest // p, q * p
            total += q - q // p
        p += 1
    return total - (m % 4 == 2)


class TestInfiniteOrder:
    """Once its orbits hold ``_CERTIFY_AT`` points, a group that may be
    infinite is tested for an element of infinite order."""

    @pytest.fixture
    def tested(self, monkeypatch):
        """Every group is tested from its first point on; the list holds
        one entry per test that passed."""
        calls = []

        def spy(mats, limit):
            _refuse_infinite_order(mats, limit)
            calls.append(len(mats))
        monkeypatch.setattr(gsurf.weyl, "_CERTIFY_AT", 1)
        monkeypatch.setattr(gsurf.weyl, "_refuse_infinite_order", spy)
        return calls

    def test_max_finite_order_table(self):
        assert _MAX_FINITE_ORDER[10:14] == (120, 120, 210, 210)
        psi = {m: _psi(m) for m in range(2, 3000)}
        assert len(_MAX_FINITE_ORDER) == 22
        for d in range(1, 22):
            assert _MAX_FINITE_ORDER[d] == \
                max(m for m, cost in psi.items() if cost <= d), d

    @pytest.mark.parametrize("n,order", ((6, 12), (7, 18), (8, 30)))
    def test_coxeter_numbers_are_never_refused(self, tested, n, order):
        # the Coxeter element of E_n has order the Coxeter number
        c = _coxeter(simple_reflections(n), n)
        assert _order(c, 100) == order <= _MAX_FINITE_ORDER[n + 1]
        _refuse_infinite_order([c.mat], None)
        # -I moves K, so the group it joins is tested, and kept
        assert generate_group([c, _minus(n)]).order == 2 * order
        assert tested == [2]

    def test_finite_k_moving_groups_are_kept(self, tested):
        moved = reflection(CohClass((0, -1, -1, 0, 0, 0, 0)))
        _assert_matches_bfs([moved] + list(simple_reflections(6)[1:]))
        assert generate_group([_minus(6)] + list(simple_reflections(6))) \
            .order == 103680
        assert len(tested) >= 2

    @pytest.mark.parametrize("n", (9, 10))
    def test_finite_groups_past_eight_blowups_are_kept(self, tested, n):
        for sets in list(parity_consistent_partitions(n))[:2]:
            _assert_matches_bfs(klein_four_group(n, sets)[1:])
        _assert_matches_bfs(_conjugated(n, _transpositions(n, 3), 20))
        assert len(tested) >= 3

    @pytest.mark.parametrize("n", (9, 10, 11))
    def test_affine_reflections_end_at_once(self, n):
        # The product of the affine reflections, a Coxeter element, has
        # infinite order.  Without the test the closure runs until an orbit
        # passes the limit: past 60 s and 1.2 GB at the default limit.
        coxeter = _coxeter(_affine_reflections(n), n)
        assert _order(coxeter, _MAX_FINITE_ORDER[n + 1]) is None
        t0 = time.monotonic()
        for limit in (10 ** 6, None):
            with pytest.raises(LimitExceeded,
                               match=f"^group closure exceeded limit {limit}$"):
                generate_group(_affine_reflections(n), limit)
        assert time.monotonic() - t0 < 1
        with pytest.raises(LimitExceeded, match="^group closure exceeded"):
            _refuse_infinite_order([coxeter.mat], 10 ** 6)

    def test_k_moving_generator_of_infinite_order(self, tested):
        # N = 5 with K moved: the test runs below N = 9 too
        moved = reflection(CohClass((0, -1, -1, 0, 0, 0)))
        shear = moved @ simple_reflections(5)[0]
        assert _order(shear, _MAX_FINITE_ORDER[6]) is None
        with pytest.raises(LimitExceeded,
                           match="^group closure exceeded limit 1000$"):
            generate_group([shear], 1000)
        assert tested == []


def _order_cases():
    """Groups for the chain order: random subgroups at N = 3..8, a group
    moving K, an int16 group, and two whose keys take two words."""
    rng = random.Random(2603)
    cases = []
    for n in range(3, 9):
        for i in range(3):
            gens = _random_gens(rng, n, rng.randint(1, 3))
            try:
                generate_group(gens, 3000)
            except LimitExceeded:
                continue
            cases.append((f"random-{n}-{i}", gens))
    cases += [("K-moving", [reflection(CohClass((0, -1, -1, 0, 0, 0))),
                            *_transpositions(5, 4)]),
              ("int16", _conjugated(9, _transpositions(9, 3), 26)),
              ("two-words-16", _transpositions(16, 3)),
              ("two-words-20", _transpositions(20, 1))]
    return [pytest.param(name, gens, id=name) for name, gens in cases]


@pytest.mark.parametrize("name,gens", _order_cases())
def test_chain_order_matches_column_packer(name, gens):
    # the element order read off the chain against a column-by-column
    # sort of the same elements, shuffled; and the traces read off the
    # chain against an int64 copy of the listing, before and after it
    group = generate_group(gens)
    traces = group.trace_vector()
    elements = group.element_array()
    assert elements.dtype == (np.int16 if name == "int16" else np.int8)
    if name.startswith("two-words"):
        # the ranks of rows 1..N alone take more values than one key
        # word holds (under 2^64 / 3)
        points = len(group._listing[1]) // (8 * (group.n + 1))
        assert points ** group.n > 2 ** 64 // 3
    flat = elements.astype(np.int16).reshape(len(elements), -1)
    shuffled = flat[np.random.default_rng(len(flat)).permutation(len(flat))]
    want = oracles.sort_rows_by_columns(shuffled)
    assert want.astype(elements.dtype).tobytes() == elements.tobytes()
    want = oracles.trace_vector_by_einsum(group)
    assert (traces.dtype, traces.tolist()) == (np.int64, want.tolist())
    again = group.trace_vector()
    assert (again.dtype, again.tolist()) == (np.int64, want.tolist())


class TestChain:
    """The order-only chain against the root-action chain and the BFS."""

    @pytest.mark.parametrize("n", (3, 4, 5, 6, 7, 8))
    def test_matches_closure(self, n):
        order = group_order_via_chain(simple_reflections(n))
        want = {3: 12, 4: 120, 5: 1920, 6: 51840, 7: 2903040,
                8: 696729600}[n]
        assert order == want
        assert oracles.root_chain(simple_reflections(n)).order() == want

    def test_subgroup_chain(self):
        gens = simple_reflections(5)[:2]
        assert group_order_via_chain(gens) == \
            oracles.group_by_bfs(list(gens)).shape[0]

    @pytest.mark.parametrize("n", (2, 9))
    def test_needs_a_root_system(self, n):
        gens = [reflection(unit(n, 1) - unit(n, 2))]
        with pytest.raises(LatticeError,
                           match=f"^root system defined for 3 <= N <= 8, got {n}$"):
            group_order_via_chain(gens)

    def test_generator_moving_k_rejected(self):
        minus = Isometry(tuple(tuple(-1 if i == j else 0 for j in range(5))
                               for i in range(5)))
        with pytest.raises(LatticeError,
                           match="^generators must fix the canonical class$"):
            group_order_via_chain([minus])

    def test_k_checked_before_the_orbits(self, monkeypatch):
        def no_orbits(mats, limit):
            raise AssertionError("orbits grown before the K check")

        monkeypatch.setattr(gsurf.weyl, "_orbits", no_orbits)
        moved = reflection(CohClass((0, -1, -1, 0, 0, 0)))
        with pytest.raises(LatticeError,
                           match="^generators must fix the canonical class$"):
            group_order_via_chain(list(simple_reflections(5)) + [moved])
        with pytest.raises(LatticeError, match="^dimension mismatch$"):
            group_order_via_chain([simple_reflections(5)[0],
                                   simple_reflections(6)[0]])

    def test_e7_parabolic_orders(self):
        # every nonempty set J of simple reflections: |W_J| in closed form
        refl = simple_reflections(7)
        subsets = [nodes for r in range(1, 8)
                   for nodes in itertools.combinations(range(7), r)]
        assert len(subsets) == 127
        for nodes in subsets:
            gens = [refl[i] for i in nodes]
            order = oracles.parabolic_order(nodes)
            assert group_order_via_chain(gens) == order, nodes
            assert oracles.root_chain(gens).order() == order, nodes
        assert oracles.parabolic_order(range(7)) == 2903040

    def test_chain_membership(self):
        chain = oracles.root_chain(simple_reflections(4))
        perms = oracles.apply_route([reflection(h_ijk(4, 2, 3, 4))],
                                    all_roots(4))
        assert chain._strip(0, chain._table(perms[0])) == chain._id

    @pytest.mark.parametrize("n", (3, 4, 5, 6, 7))
    def test_matches_closure_random_subgroups(self, n):
        rng = random.Random(100 + n)
        refl = simple_reflections(n)
        checked = 0
        while checked < 4:
            gens = []
            for _ in range(rng.randint(1, 3)):
                word = Isometry.identity(n)
                for _ in range(rng.randint(1, 6)):
                    word = word @ rng.choice(refl)
                gens.append(word)
            try:
                order = oracles.group_by_bfs(gens, limit=1000).shape[0]
            except LimitExceeded:
                continue
            assert group_order_via_chain(gens) == order
            assert oracles.root_chain(gens).order() == order
            checked += 1

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(3, 7), st.integers(0, 2 ** 32), st.integers(1, 3))
    def test_closure_order_equals_chain_order(self, n, seed, count):
        gens = _random_gens(random.Random(seed), n, count)
        order = oracles.root_chain(gens).order()
        assert group_order_via_chain(gens) == order
        if order <= 5000:
            assert generate_group(gens).order == order
        _assert_seeded_chain_is_full_chain(gens)

    def test_limit_stops_the_chain(self):
        perms = oracles.apply_route(simple_reflections(6), all_roots(6))
        chain = StabilizerChain(72, 51840)
        chain.add_all(perms)
        assert chain.order() == 51840
        chain = StabilizerChain(72, 1000)
        with pytest.raises(LimitExceeded,
                           match="^group closure exceeded limit 1000$"):
            chain.add_all(perms)
        assert chain.order() <= 51840

    def test_limit_stops_the_seeded_chain(self):
        # the same raise point as full sifting, with H a seed when K moves
        for gens, order in ((simple_reflections(6), 51840),
                            ([_minus(6)] + list(simple_reflections(6)), 103680)):
            _, seeds, pts, perms = _orbit_perms(gens)
            states = []
            for s in (seeds, None):
                chain = StabilizerChain(len(pts), 1000, seeds=s)
                with pytest.raises(LimitExceeded,
                                   match="^group closure exceeded limit 1000$"):
                    chain.add_all(perms)
                assert 1000 < chain.order() <= order
                states.append(_chain_bytes(chain))
            assert states[0] == states[1]
            chain = StabilizerChain(len(pts), order, seeds=seeds)
            chain.add_all(perms)
            assert chain.order() == order

    def test_e8_chain_shape(self):
        sizes = [240, 56, 27, 16, 10, 6, 2]
        chain = oracles.root_chain(simple_reflections(8))
        assert len(chain.base) == 7
        assert [len(t) for t in chain.transversals] == sizes
        chain = _basis_chain(simple_reflections(8), None)[0]
        assert [len(t) for t in chain.transversals] == sizes


def _orbit_perms(gens):
    """``_basis_chain``'s chain, seed count, points and permutations."""
    chain, points, orbit, moves_k, largest = _basis_chain(gens, None)
    seeds = gens[0].n + moves_k
    again, labels, perms, _, top = _orbits([g.mat for g in gens], None)
    assert (again, labels, top) == (points, orbit, largest)
    pts = list(struct.iter_unpack(f"<{gens[0].dim}q", points))
    assert largest == max(abs(v) for p in pts for v in p)
    return chain, seeds, pts, perms


def _minus(n):
    return Isometry(tuple(tuple(-1 if i == j else 0 for j in range(n + 1))
                          for i in range(n + 1)))


def _chain_bytes(chain):
    return pickle.dumps((chain.base, chain.assigned, chain.transversals))


def _assert_seeded_chain_is_full_chain(gens):
    chain, seeds, pts, perms = _orbit_perms(gens)
    full = StabilizerChain(len(pts))
    seeded = StabilizerChain(len(pts), seeds=seeds)
    full.add_all(perms)
    seeded.add_all(perms)
    assert _chain_bytes(seeded) == _chain_bytes(full)
    assert _chain_bytes(chain) == _chain_bytes(full)
    assert set(full.base) <= set(range(seeds))


class TestSeededChain:
    """Sifting on the seed images against sifting full permutations."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_weyl_groups(self, n):
        _assert_seeded_chain_is_full_chain(simple_reflections(n))

    def test_e7_rank4_parabolics(self):
        refl = simple_reflections(7)
        subsets = list(itertools.combinations(refl, 4))
        assert len(subsets) == 35
        for gens in subsets:
            _assert_seeded_chain_is_full_chain(list(gens))

    @pytest.mark.parametrize("n", range(4, 10))
    def test_klein_groups(self, n):
        for sets in list(parity_consistent_partitions(n))[:4]:
            _assert_seeded_chain_is_full_chain(klein_four_group(n, sets)[1:])

    def test_k_moving_groups(self):
        moved = reflection(CohClass((0, -1, -1, 0, 0, 0)))
        for gens in ([_minus(5)] + list(simple_reflections(5)),
                     [moved] + list(simple_reflections(5)[1:])):
            assert _orbit_perms(gens)[1] == 6
            _assert_seeded_chain_is_full_chain(gens)

    def test_one_blowup(self):
        # one seed on the identity; E1 and H when -I moves K
        assert _orbit_perms([Isometry.identity(1)])[1] == 1
        group = generate_group([Isometry.identity(1)])
        assert group.order == 1
        assert group.element_array().tolist() == [[[1, 0], [0, 1]]]
        assert _orbit_perms([_minus(1)])[1] == 2
        group = generate_group([_minus(1)])
        assert group.order == 2
        assert group.element_array().tolist() == \
            [[[-1, 0], [0, -1]], [[1, 0], [0, 1]]]
        _assert_seeded_chain_is_full_chain([_minus(1)])

    def test_one_seed_of_a_larger_action(self):
        # a 1-tuple of seed images would be an int: at least two are sifted
        # (4 points are held as byte tables, 300 as tuples)
        for degree in (4, 300):
            cycle = (*range(1, degree), 0)
            chain = StabilizerChain(degree, seeds=1)
            chain.add_all([cycle])
            assert (chain.order(), chain.base) == (degree, [0])
            square = (*range(2, degree), 0, 1)
            assert chain._strip(0, chain._table(square)) == chain._id


class TestPermutationRoutes:
    """Byte tables up to 256 points, tuples above: the same chain."""

    def test_dihedral_action_on_300_points(self):
        # rotation and reflection of a 300-gon: faithful on points 0 and 1
        rotation = (*range(1, 300), 0)
        flip = tuple(-i % 300 for i in range(300))
        chain = StabilizerChain(300, seeds=2)
        chain.add_all([rotation, flip])
        assert type(chain._id) is tuple
        assert chain.order() == 600
        assert chain.base == [0, 1]
        assert [len(t) for t in chain.transversals] == [300, 2]
        mirror = tuple((5 - i) % 300 for i in range(300))
        assert chain._strip(0, chain._table(mirror)) == chain._id
        # 256 points, the most a byte table holds, leave no padding
        edge = StabilizerChain(256, seeds=2)
        edge.add_all([(*range(1, 256), 0), tuple(-i % 256 for i in range(256))])
        assert type(edge._id) is bytes
        assert (edge.order(), edge.base) == (512, [0, 1])
        assert type(StabilizerChain(257)._id) is tuple

    def test_tables_and_tuples_build_the_same_chain(self):
        # W(E8) on its 240 roots, and on 300 points fixing the last 60
        perms = oracles.apply_route(simple_reflections(8), all_roots(8))
        chains = [StabilizerChain(240), StabilizerChain(300)]
        chains[0].add_all(perms)
        chains[1].add_all([p + tuple(range(240, 300)) for p in perms])
        assert [type(c._id) for c in chains] == [bytes, tuple]

        def read_back(chain):
            return (chain.base, [_images(t, 240) for t in chain.transversals],
                    [[g[:240] for g in map(tuple, level)]
                     for level in chain.assigned])

        assert read_back(chains[0]) == read_back(chains[1])
        assert chains[0].order() == 696729600

    def test_minus_identity_with_e7(self):
        # 1,264 points, above the byte tables' 256: the tuple route.  The
        # values are those the chain gave before byte tables existed.
        gens = [_minus(7)] + list(simple_reflections(7))
        chain, points, orbit, moves_k, _ = _basis_chain(gens, None)
        assert type(chain._id) is tuple and moves_k
        assert chain.order() == 5806080
        assert chain.base == [0, 1, 2, 3, 4, 5]
        assert [len(t) for t in chain.transversals] == [112, 27, 16, 10, 6, 2]
        group = generate_group(gens)
        assert group.order == 5806080
        # -I is in the group, so the elements cancel in pairs
        assert group.group_sum() == ((0,) * 8,) * 8
        # E1..E7 share one orbit, +-the 56 exceptional classes (square -1),
        # labelled 0; H's orbit, the other 1,152 points, is labelled 7
        pts = list(struct.iter_unpack("<8q", points))
        assert len(pts) == 1264
        squares = [p[0] ** 2 - sum(v * v for v in p[1:]) for p in pts]
        assert orbit == [0 if sq == -1 else 7 for sq in squares]
        assert orbit.count(0) == 112 and squares.count(1) == 1152


def test_orbit_growth_is_linear_in_the_points(monkeypatch):
    # The affine E8 reflections generate an infinite group.  With the
    # infinite-order test off, their orbits grow layer by layer until one
    # passes the limit.  Each new point is labelled from a dict of first
    # positions: a list search per point would make a layer quadratic in
    # its size.  Four times the points should take about four times as
    # long; the bound is on that ratio of best-of-3 times, taken in turn,
    # not on a wall time, so a loaded machine does not fail it.  A list
    # search read about 8, linear labelling 3 to 4.6 (2-vCPU VM).
    monkeypatch.setattr(gsurf.weyl, "_refuse_infinite_order",
                        lambda mats, limit: None)
    mats = [g.mat for g in _affine_reflections(9)]
    best = {16000: float("inf"), 64000: float("inf")}
    for _ in range(3):
        for limit in best:
            t0 = time.perf_counter()
            with pytest.raises(LimitExceeded,
                               match=f"^group closure exceeded limit {limit}$"):
                _orbits(mats, limit)
            best[limit] = min(best[limit], time.perf_counter() - t0)
    assert best[64000] / best[16000] < 6


class TestPermAction:
    """The orbit permutations the library chains, against per-point apply."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_apply_route(self, n):
        refl = simple_reflections(n)
        gens = list(refl) + [refl[0] @ refl[-1] @ refl[1]]
        pts, _, perms, moves_k, _ = _orbits([g.mat for g in gens], None)
        points = [CohClass(p) for p in struct.iter_unpack(f"<{n + 1}q", pts)]
        assert not moves_k
        assert points[:n] == [unit(n, j) for j in range(1, n + 1)]
        assert len(points) == {3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}[n]
        assert perms == oracles.apply_route(gens, points)

    @pytest.mark.parametrize("e", (32767, -32767))
    def test_images_at_the_edge_of_range(self, e):
        # With t = (1, 1, 1, 1), s = (1, -1, 0, 0) and u = (0, 0, 1, -1),
        # pairwise orthogonal, a = e t u^T sends E2 to q = e t, c = 4 s u^T
        # sends E2 to p = 4 s and E3 to -p, and b = e s t^T sends q to
        # 4 e^2 s = (4 * 32767^2, -4 * 32767^2, 0, 0), the largest image
        # entries there are.  Every other image of a point is 0 or a
        # point.  As 4 * 32767^2 = 4 mod 2^16, that image agrees with p in
        # its low 16 bits: it must be refused, never taken for p.
        t, s, u = (1, 1, 1, 1), (1, -1, 0, 0), (0, 0, 1, -1)
        a = [[e * i * j for j in u] for i in t]
        b = [[e * i * j for j in t] for i in s]
        c = [[4 * i * j for j in u] for i in s]
        assert (4 * e * e) % 2 ** 16 == 4
        with pytest.raises(LimitExceeded,
                           match="^matrix entries exceeded supported range$"):
            _orbits([a, b, c], None)


def test_integer_kernel_primitive():
    # kernel of (2  4  6) over Z^3 is spanned by (2,-1,0) and (3,0,-1) saturated
    kern = integer_kernel([[2, 4, 6]], 3)
    assert len(kern) == 2
    for v in kern:
        assert sum(a * b for a, b in zip(v, (2, 4, 6))) == 0
        g = 0
        for c in v:
            g = __import__("math").gcd(g, c)
        assert g == 1


class TestInvariantLattice:
    def test_trivial_group_full_rank(self):
        rank, basis = invariant_lattice(generate_group([Isometry.identity(4)]))
        assert rank == 5 and len(basis) == 5

    def test_weyl_group_rank_one(self):
        for n in (3, 4, 5):
            rank, basis = invariant_lattice(weyl_group(n))
            assert rank == 1
            k = canonical_class(n)
            assert basis[0] in (k, -k)

    def test_conic_group_rank_two(self):
        n = 5
        cyc = matrix_from_fiber_action((3, 4, 2, 5), (1, 1, 1, 1), n)
        gens = [full_swap(n), cyc]
        rank, basis = invariant_lattice(gens)
        assert rank == 2
        assert _span2_equal(basis, (canonical_class(n), fiber_class(n)))

    def test_single_swap_rank(self):
        s = reflection(CohClass((0, 1, -1, 0, 0, 0)))
        rank, _ = invariant_lattice([s])
        assert rank == 5

    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_the_every_row_route(self, n):
        rng = random.Random(700 + n)
        moved = reflection(CohClass((0, -1, -1) + (0,) * (n - 2)))
        sets = [_random_gens(rng, n, count) for count in (1, 2, 3) * 4]
        sets += [[Isometry.identity(n)], [_minus(n)],
                 [_minus(n)] + list(simple_reflections(n)),
                 [moved] + list(simple_reflections(n)[1:]),
                 [Isometry.identity(n)] + _random_gens(rng, n, 2)]
        for gens in sets:
            want = oracles.invariant_lattice_all_rows(gens)
            assert invariant_lattice(gens) == want
            if n <= 6:
                assert invariant_lattice(generate_group(gens)) == want

    def test_computed_once_per_group(self, monkeypatch):
        calls = []
        real = gsurf.weyl.integer_kernel

        def counting(rows, dim):
            calls.append(dim)
            return real(rows, dim)

        monkeypatch.setattr(gsurf.weyl, "integer_kernel", counting)
        group = generate_group(simple_reflections(5))
        first = invariant_lattice(group)
        assert trace_sum_condition(group) == (0, True)
        assert invariant_lattice(group) is first
        assert minimality_rank_dichotomy(group).kind == RANK1
        assert calls == [6]
        assert invariant_lattice(list(group.generators)) == first
        assert invariant_lattice(iter(group.generators)) == first
        assert calls == [6, 6, 6]


def _span2_equal(basis_a, basis_b):
    """Two rank-2 integer lattices coincide iff each basis sits in the other."""
    def in_span(v, u1, u2):
        for i in range(len(v.coords)):
            for j in range(i + 1, len(v.coords)):
                det = u1.coords[i] * u2.coords[j] - u1.coords[j] * u2.coords[i]
                if det:
                    x = Fraction(v.coords[i] * u2.coords[j]
                                 - v.coords[j] * u2.coords[i], det)
                    y = Fraction(u1.coords[i] * v.coords[j]
                                 - u1.coords[j] * v.coords[i], det)
                    if x.denominator != 1 or y.denominator != 1:
                        return False
                    cand = int(x) * u1 + int(y) * u2
                    return cand == v
        return False

    a1, a2 = basis_a
    b1, b2 = basis_b
    return all(in_span(v, b1, b2) for v in (a1, a2)) and \
        all(in_span(v, a1, a2) for v in (b1, b2))


class TestTraceCondition:
    def test_full_weyl_group(self):
        s, holds = trace_sum_condition(weyl_group(4))
        assert (s, holds) == (0, True)

    def test_trivial_group(self):
        group = generate_group([Isometry.identity(4)])
        assert group.group_sum() == Isometry.identity(4).mat
        s, holds = trace_sum_condition(group)
        assert (s, holds) == (4, False)

    def test_rank_mismatch_is_an_internal_error(self, monkeypatch):
        group = weyl_group(4)
        rank, basis = invariant_lattice(group)
        monkeypatch.setattr(gsurf.weyl, "invariant_lattice",
                            lambda g: (rank + 1, basis))
        with pytest.raises(InvariantViolation, match="^trace sum disagrees"
                           " with fixed-lattice rank$"):
            trace_sum_condition(group)

    def test_two_element_group(self):
        s = reflection(CohClass((0, 1, -1, 0, 0)))
        group = generate_group([s])
        total, holds = trace_sum_condition(group)
        assert (total, holds) == (6, False)

    def test_requires_canonical_fixed(self):
        moved = reflection(CohClass((0, -1, -1, 0, 0)))  # K.alpha != 0
        group = generate_group([moved])
        with pytest.raises(LatticeError):
            trace_sum_condition(group)

    def test_names_the_generator_that_moves_k(self):
        fixed = reflection(CohClass((0, 1, -1, 0, 0)))
        moved = reflection(CohClass((0, -1, -1, 0, 0)))
        group = generate_group([fixed, moved, fixed])
        with pytest.raises(LatticeError) as info:
            trace_sum_condition(group)
        assert str(info.value) == \
            f"generator moves the canonical class:\n{moved}"

    def test_reads_the_chain_flag_not_the_generators(self, monkeypatch):
        def fail(self, c):
            raise AssertionError("Isometry.fixes called")

        group = weyl_group(4)
        monkeypatch.setattr(Isometry, "fixes", fail)
        assert trace_sum_condition(group) == (0, True)

    def test_character_identity_random(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.choice((3, 4, 5))
            refl = simple_reflections(n)
            word = Isometry.identity(n)
            for _ in range(rng.randint(1, 5)):
                word = word @ rng.choice(refl)
            group = generate_group([word])
            rank, _ = invariant_lattice(group)
            assert group.order * rank == int(group.trace_vector().sum())
            total, holds = trace_sum_condition(group)
            assert holds == (rank == 1)

    @pytest.mark.parametrize("name", ("E3", "E4", "E5", "E6", "K-moving", "int16"))
    def test_trace_vector_matches_einsum(self, name):
        if name == "K-moving":
            # with the transpositions, W(D5) on E1..E5; H is fixed
            gens = [reflection(CohClass((0, -1, -1, 0, 0, 0))),
                    *_transpositions(5, 4)]
        elif name == "int16":
            gens = _conjugated(9, _transpositions(9, 3), 26)
        else:
            gens = simple_reflections(int(name[1]))
        group = generate_group(gens)
        assert group.element_array().dtype == \
            (np.int16 if name == "int16" else np.int8)
        want = oracles.trace_vector_by_einsum(group)
        got = group.trace_vector()
        assert (got.dtype, got.tolist()) == (np.int64, want.tolist())
        _assert_group_sum(group, group.element_array())

    def test_trace_vector_makes_no_int64_copy(self):
        group = weyl_group(6)
        elements = group.element_array()
        tracemalloc.start()
        try:
            group.trace_vector()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an int64 copy of the listing would be 20 MB
        assert peak < elements.size * 8 // 10


class TestDichotomy:
    def test_weyl_rank1(self):
        for n in (3, 4):
            res = minimality_rank_dichotomy(weyl_group(n))
            assert res.kind == RANK1
            assert res.fiber_candidates == ()

    def test_conic_rank2_candidates(self):
        n = 5
        cyc = matrix_from_fiber_action((3, 4, 2, 5), (1, 1, 1, 1), n)
        res = minimality_rank_dichotomy([full_swap(n), cyc])
        assert res.kind == RANK2
        f = fiber_class(n)
        assert f in res.fiber_candidates
        assert len(res.fiber_candidates) == 2
        fp = -1 * canonical_class(n) - f
        assert fp in res.fiber_candidates

    def test_neither(self):
        s = reflection(CohClass((0, 1, -1, 0, 0, 0)))
        assert minimality_rank_dichotomy([s]).kind == NEITHER

    def test_requires_k_fixing(self):
        moved = reflection(CohClass((0, -1, -1, 0)))
        with pytest.raises(LatticeError):
            minimality_rank_dichotomy([moved])


@pytest.mark.parametrize("n,count", [(5, 2), (6, 1), (7, 2), (8, 2)])
def test_fiber_candidate_counts(n, count):
    basis = (canonical_class(n), fiber_class(n))
    cands = fiber_class_candidates(basis)
    assert len(cands) == count
    k = canonical_class(n)
    for f in cands:
        assert f.square() == 0
        assert pairing(k, f) == -2
        assert f.is_primitive()
