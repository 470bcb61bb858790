import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsurf.gconic
import gsurf.listing
from gsurf.errors import InvariantViolation, LatticeError, LimitExceeded
from gsurf.gconic import (
    CASE_CYCLIC_CORE,
    CASE_INVOLUTION,
    CASE_KLEIN,
    CASE_NON_MINIMAL,
    ConicBundleModel,
    FiberAction,
    GroupDecomposition,
    _is_minimal,
    _sigma_partition,
    decompose,
    fiber_action,
    fiber_class,
    full_swap,
    invariant_exceptional_n6,
    matrix_from_fiber_action,
    max_swap_closed_section,
    q_invariance_check,
    q_subgroup,
    section_class,
    section_classes,
    section_identity,
    section_identity_table,
    vertical_decompositions,
)
from gsurf.lattice import CohClass, Isometry, canonical_class, pairing
from gsurf.selftest import (
    _swap_relabels,
    klein_four_group,
    parity_consistent_partitions,
)
from gsurf.weyl import FiniteIsometryGroup, generate_group, reflection

import oracles


def units(n):
    return [CohClass(tuple(1 if t == i else 0 for t in range(n + 1)))
            for i in range(n + 1)]


def _decompose_outcome(group, model, m):
    try:
        return decompose(group, model, m)
    except (InvariantViolation, LatticeError) as exc:
        return type(exc), str(exc)


def _fiber_transpositions(n):
    labels = list(range(2, n + 1))
    for t in range(n - 2):
        pi = labels[:]
        pi[t], pi[t + 1] = pi[t + 1], pi[t]
        yield pi


def _weyl_d_generators(n):
    """W(D_(N-1)): the adjacent fiber transpositions, and (2 3) swapping
    both fibers."""
    gens = [matrix_from_fiber_action(pi, (1,) * (n - 1), n)
            for pi in _fiber_transpositions(n)]
    pi = next(_fiber_transpositions(n))
    return gens + [matrix_from_fiber_action(pi, (-1, -1) + (1,) * (n - 3), n)]


def _models(n):
    """The standard model, its fibers relabeled in reverse, and the other
    component of the first fiber chosen."""
    model = ConicBundleModel(n)
    return [model, ConicBundleModel(n, tuple(reversed(model.sphere_classes))),
            *_swap_relabels(model, [1])]


def _random_bundle_groups(count, max_order):
    rng = random.Random(18)
    while count:
        n = rng.randint(4, 9)
        gens = []
        for _ in range(rng.randint(1, 3)):
            pi = list(range(2, n + 1))
            if rng.random() < 0.7:
                rng.shuffle(pi)
            eps = [rng.choice((1, -1)) for _ in pi]
            eps[0] *= (-1) ** eps.count(-1)
            gens.append(matrix_from_fiber_action(pi, eps, n))
        try:
            group = generate_group(gens, limit=max_order)
        except LimitExceeded:
            continue
        count -= 1
        yield group


def _bundle_fixtures(family):
    """(group, model, declared core order) triples of one fixture family:
    C13's Klein groups at N = family, its full swaps with their declared cores,
    or the bundle groups beyond C13, each on every model of ``_models`` up
    to 200 elements and on the standard model above."""
    if isinstance(family, int):
        model = ConicBundleModel(family)
        for sets in parity_consistent_partitions(family):
            yield generate_group(klein_four_group(family, sets)[1:]), model, 1
        return
    if family == "full-swap-and-cores":
        groups = [(generate_group([full_swap(n)]), (1, 2, 3, 5))
                  for n in (5, 7, 9)]
    elif family == "weyl-d":
        groups = [(generate_group(_weyl_d_generators(n)), (1, 3) if n == 5
                   else (1,)) for n in (5, 6, 7)]
    elif family == "fiber-permutations":
        groups = [(generate_group([matrix_from_fiber_action(
            pi, (1,) * (n - 1), n) for pi in _fiber_transpositions(n)]), (1,))
            for n in range(4, 8)]
    elif family == "double-swaps":
        groups = [(generate_group([matrix_from_fiber_action(
            range(2, n + 1), [-1 if j in (t, t + 1) else 1
                              for j in range(2, n + 1)], n)
            for t in range(2, n)]), (1,)) for n in range(4, 10)]
    else:
        groups = [(g, (1,)) for g in _random_bundle_groups(40, 50_000)]
    for group, cores in groups:
        n = group.n
        for model in _models(n) if len(group) <= 200 else [ConicBundleModel(n)]:
            for m in cores:
                yield group, model, m


@functools.cache
def _partitions(n):
    return tuple(parity_consistent_partitions(n))


def _broken_list(listed, rng):
    """A group's listing with one non-identity element dropped, or with
    one non-identity element of a C13 Klein group at the same N appended,
    at random.  Either is not closed once the group has more than two
    elements."""
    n = listed[0].n
    if rng.random() < 0.5:
        identity = Isometry.identity(n).key()
        i = rng.choice([i for i, g in enumerate(listed) if g.key() != identity])
        return listed[:i] + listed[i + 1:]
    return listed + [rng.choice(klein_four_group(n, rng.choice(_partitions(n)))[1:])]


@pytest.fixture
def compose_calls(monkeypatch):
    """One entry per ``FiberAction.compose`` call made in the test."""
    calls = []
    compose = FiberAction.compose

    def counted(self, other):
        calls.append(None)
        return compose(self, other)
    monkeypatch.setattr(FiberAction, "compose", counted)
    return calls


class TestModel:
    def test_standard_model(self):
        m = ConicBundleModel(5)
        assert m.fiber.square() == 0
        assert pairing(canonical_class(5), m.fiber) == -2
        assert len(m.sphere_classes) == 4
        for e in m.sphere_classes:
            other = m.fiber - e
            assert e.square() == -1 and other.square() == -1

    def test_relabeled_model(self):
        m = ConicBundleModel(4)
        f = m.fiber
        spheres = (f - m.sphere_classes[0],) + m.sphere_classes[1:]
        m2 = ConicBundleModel(4, spheres)
        assert m2.sphere_classes[0] == CohClass((1, -1, -1, 0, 0))

    def test_rejects_bad_classes(self):
        with pytest.raises(LatticeError):
            ConicBundleModel(4, (units(4)[1],) * 3)  # E1 is not vertical
        with pytest.raises(LatticeError):
            ConicBundleModel(4, (units(4)[2], units(4)[3]))  # one fiber missing
        with pytest.raises(LatticeError):
            ConicBundleModel(2)

    @pytest.mark.parametrize("picks", [(2, 2, 4), (2, -2, 4), (2, 3, 4, 4)])
    def test_rejects_a_fiber_labelled_twice(self, picks):
        f = fiber_class(4)
        spheres = tuple(units(4)[j] if j > 0 else f - units(4)[-j]
                        for j in picks)
        with pytest.raises(LatticeError, match="label the standard fibers"):
            ConicBundleModel(4, spheres)

    def test_component_table(self):
        m = ConicBundleModel(4, (CohClass((1, -1, 0, 0, -1)),
                                 units(4)[2], units(4)[3]))
        assert m.components == {
            (1, -1, 0, 0, -1): (2, 1), (0, 0, 0, 0, 1): (2, -1),
            (0, 0, 1, 0, 0): (3, 1), (1, -1, -1, 0, 0): (3, -1),
            (0, 0, 0, 1, 0): (4, 1), (1, -1, 0, -1, 0): (4, -1)}
        assert m == ConicBundleModel(4, m.sphere_classes)
        assert "components" not in repr(m)


class TestFiberAction:
    def test_identity(self):
        m = ConicBundleModel(4)
        act = fiber_action(Isometry.identity(4), m)
        assert act.is_base_trivial()
        assert act.eps == (1, 1, 1)
        assert act.sigma() == (2, 3, 4)

    def test_full_swap(self):
        m = ConicBundleModel(5)
        act = fiber_action(full_swap(5), m)
        assert act.pi == (2, 3, 4, 5)
        assert act.eps == (-1, -1, -1, -1)
        assert act.sigma() == ()

    def test_rejects_fiber_movers(self):
        m = ConicBundleModel(4)
        with pytest.raises(LatticeError):
            fiber_action(reflection(CohClass((0, 1, -1, 0, 0))), m)

    def test_rejects_canonical_class_movers(self):
        # E2 + E3 is orthogonal to F = H - E1, but K.(E2 + E3) = 2
        with pytest.raises(LatticeError, match="^isometry does not fix the"
                                               " canonical class$"):
            fiber_action(reflection(CohClass((0, 0, 1, 1, 0, 0))),
                         ConicBundleModel(5))

    def test_round_trip(self):
        rng = random.Random(5)
        n = 6
        m = ConicBundleModel(n)
        labels = list(range(2, n + 1))
        for _ in range(25):
            pi = labels[:]
            rng.shuffle(pi)
            swaps = rng.sample(range(n - 1), 2 * rng.randint(0, 2))
            eps = tuple(-1 if t in swaps else 1 for t in range(n - 1))
            g = matrix_from_fiber_action(tuple(pi), eps, n)
            act = fiber_action(g, m)
            assert act.pi == tuple(pi) and act.eps == eps

    def test_odd_swap_count_has_no_lift(self):
        with pytest.raises(LatticeError, match="even"):
            matrix_from_fiber_action((2, 3, 4), (-1, 1, 1), 4)

    def test_full_swap_needs_odd_blowups(self):
        with pytest.raises(LatticeError):
            full_swap(4)
        assert not full_swap(5).is_identity()
        assert (full_swap(5) @ full_swap(5)).is_identity()

    def test_homomorphism(self):
        rng = random.Random(9)
        n = 5
        m = ConicBundleModel(n)
        pool = []
        labels = list(range(2, n + 1))
        for _ in range(8):
            pi = labels[:]
            rng.shuffle(pi)
            swaps = rng.sample(range(n - 1), 2 * rng.randint(0, 2))
            eps = tuple(-1 if t in swaps else 1 for t in range(n - 1))
            pool.append(matrix_from_fiber_action(tuple(pi), eps, n))
        for g in pool:
            for h in pool:
                lhs = fiber_action(g @ h, m)
                rhs = fiber_action(g, m).compose(fiber_action(h, m))
                assert lhs == rhs
                assert (g == h) == (fiber_action(g, m) == fiber_action(h, m))


def even_swap_actions(n):
    labels = tuple(range(2, n + 1))
    for pi in itertools.permutations(labels):
        for eps in itertools.product((1, -1), repeat=n - 1):
            if eps.count(-1) % 2 == 0:
                yield pi, eps


@st.composite
def even_swap_action(draw, n):
    pi = draw(st.permutations(range(2, n + 1)))
    eps = draw(st.lists(st.sampled_from((1, -1)), min_size=n - 1,
                        max_size=n - 1))
    if eps.count(-1) % 2:
        eps[0] = -eps[0]
    return FiberAction(tuple(pi), tuple(eps))


@st.composite
def action_pairs(draw):
    n = draw(st.integers(3, 10))
    return n, draw(even_swap_action(n)), draw(even_swap_action(n))


class TestAgainstClassRoutes:
    """The column formulas against the ``CohClass`` routes they replaced."""

    def test_every_even_swap_lift(self):
        count = 0
        for n in range(3, 8):
            for pi, eps in even_swap_actions(n):
                got = matrix_from_fiber_action(pi, eps, n).mat
                assert got == oracles.matrix_from_fiber_action_by_classes(
                    pi, eps, n), (pi, eps)
                count += 1
        assert count == 25_180

    @pytest.mark.parametrize("n", range(4, 8))
    def test_klein_fixtures_under_every_relabel(self, n):
        """C13's fixtures: each swap relabel and the reversed labelling."""
        model = ConicBundleModel(n)
        partitions = list(parity_consistent_partitions(n))
        reps = [partitions[0], partitions[len(partitions) // 2], partitions[-1]]
        models = list(_swap_relabels(model, range(1 << (n - 1))))
        models.append(ConicBundleModel(n, tuple(reversed(model.sphere_classes))))
        for sets in reps:
            for g in klein_four_group(n, sets):
                for m in models:
                    assert fiber_action(g, m) == \
                        oracles.fiber_action_by_classes(g, m)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(action_pairs())
    def test_lift_is_an_inverse_homomorphism(self, data):
        n, a, b = data
        model = ConicBundleModel(n)
        ga = matrix_from_fiber_action(a.pi, a.eps, n)
        gb = matrix_from_fiber_action(b.pi, b.eps, n)
        ab = a.compose(b)
        assert fiber_action(ga, model) == a
        assert ga @ gb == matrix_from_fiber_action(ab.pi, ab.eps, n)


class TestMinimality:
    @staticmethod
    def _minimal(group, model):
        return _is_minimal([fiber_action(g, model) for g in group], model)

    def test_identity_alone_is_not_minimal(self):
        m = ConicBundleModel(4)
        assert not self._minimal([Isometry.identity(4)], m)

    def test_full_swap_is_minimal(self):
        m = ConicBundleModel(5)
        assert self._minimal([Isometry.identity(5), full_swap(5)], m)

    def test_partial_swap_misses_fibers(self):
        n = 5
        m = ConicBundleModel(n)
        g = matrix_from_fiber_action((2, 3, 4, 5), (-1, -1, 1, 1), n)
        assert not self._minimal([Isometry.identity(n), g], m)


class TestDecompose:
    def test_z2_full_swap(self):
        n = 5
        dec = decompose([Isometry.identity(n), full_swap(n)],
                        ConicBundleModel(n), 1)
        assert dec.case_tag == CASE_INVOLUTION
        assert dec.minimal
        assert dec.q_image == "Z2"
        assert dec.sigma_sizes == (0,)
        assert dec.parity_ok

    def test_klein_four(self):
        n = 5
        taus = []
        for sigma in ((2, 3), (4, 5), ()):
            eps = tuple(1 if j in sigma else -1 for j in range(2, n + 1))
            taus.append(matrix_from_fiber_action((2, 3, 4, 5), eps, n))
        group = [Isometry.identity(n)] + taus
        dec = decompose(group, ConicBundleModel(n), 1)
        assert dec.case_tag == CASE_KLEIN
        assert sorted(dec.sigma_sizes) == [0, 2, 2]
        assert dec.parity_ok

    def test_declared_core(self):
        n = 7
        group = [Isometry.identity(n), full_swap(n)]
        dec = decompose(group, ConicBundleModel(n), 3)
        assert dec.case_tag == CASE_CYCLIC_CORE
        assert dec.q_abstract == ("D6",)
        with pytest.raises(LatticeError):
            decompose(group, ConicBundleModel(n), 0)

    def test_core_needs_odd_blowups(self):
        n = 4
        group = [Isometry.identity(n)]
        with pytest.raises(LatticeError):
            decompose(group, ConicBundleModel(n), 2)

    def test_core_contradicting_a_klein_image_is_a_lattice_error(self):
        n = 5
        group = klein_four_group(n, ((2, 3), (4, 5), ()))
        assert decompose(group, ConicBundleModel(n), 1).case_tag == CASE_KLEIN
        for m in (2, 3):
            with pytest.raises(LatticeError, match=r"^nontrivial core with a "
                               r"base-trivial image outside \{id, full swap\}$"):
                decompose(group, ConicBundleModel(n), m)

    def test_odd_core_with_a_trivial_base_kernel_is_a_lattice_error(self):
        # (2 3) and (4 5) on the base, each swapping the other two fibers
        # in place: minimal, and only the identity acts trivially on the base
        n = 5
        a = matrix_from_fiber_action((3, 2, 4, 5), (1, 1, -1, -1), n)
        b = matrix_from_fiber_action((2, 3, 5, 4), (-1, -1, 1, 1), n)
        group = generate_group([a, b])
        assert group.order == 4
        dec = decompose(group, ConicBundleModel(n), 2)
        assert (dec.case_tag, dec.q_abstract) == (CASE_CYCLIC_CORE, ("Z2",))
        with pytest.raises(LatticeError, match="^core-only base kernel needs "
                                               "an even core order$"):
            decompose(group, ConicBundleModel(n), 3)

    def test_non_minimal_tag(self):
        n = 4
        dec = decompose([Isometry.identity(n)], ConicBundleModel(n), 1)
        assert dec.case_tag == CASE_NON_MINIMAL
        assert not dec.minimal

    def test_non_minimal_with_a_declared_odd_core(self):
        n = 5
        dec = decompose([Isometry.identity(n)], ConicBundleModel(n), 3)
        assert (dec.case_tag, dec.minimal) == (CASE_NON_MINIMAL, False)
        assert dec.q_abstract == ()

    def test_closure_required(self):
        n = 5
        g = matrix_from_fiber_action((3, 2, 5, 4), (1, 1, 1, 1), n)
        swap = full_swap(n)
        with pytest.raises(LatticeError, match="closed"):
            decompose([Isometry.identity(n), g, swap], ConicBundleModel(n), 1)

    def test_closure_checked_at_any_size(self):
        n = 10
        labels = tuple(range(2, n + 1))
        evens = [eps for eps in itertools.product((1, -1), repeat=n - 1)
                 if eps.count(-1) % 2 == 0]
        group = [matrix_from_fiber_action(labels, eps, n) for eps in evens]
        assert len(group) == 256
        with pytest.raises(LatticeError, match="closed"):
            decompose(group[:-1], ConicBundleModel(n), 1)

    @pytest.mark.parametrize("extra", [[], [full_swap(5)]],
                             ids=["identity-twice", "identity-twice-and-swap"])
    def test_repeated_element_rejected(self, extra):
        n = 5
        group = [Isometry.identity(n)] * 2 + extra
        with pytest.raises(LatticeError, match="more than once"):
            decompose(group, ConicBundleModel(n), 1)

    @pytest.mark.parametrize("family", [*range(4, 10), "full-swap-and-cores",
                                        "weyl-d", "fiber-permutations",
                                        "double-swaps", "random"])
    def test_group_and_list_agree(self, family):
        # Up to 200 elements, both forms against the pairwise product
        # check, and a broken copy of the list refused by both; above,
        # the group against the listing.
        rng = random.Random(f"broken-{family}")
        for group, model, m in _bundle_fixtures(family):
            got = _decompose_outcome(group, model, m)
            if len(group) > 200:
                q, p_structure, minimal = oracles.bundle_data_by_listing(group)
            else:
                listed = list(group)
                assert _decompose_outcome(listed, model, m) == got
                q, p_structure, minimal = oracles.bundle_data_by_products(
                    listed, model)
            if 2 < len(group) <= 200:
                broken = _broken_list(listed, rng)
                with pytest.raises(LatticeError) as want:
                    oracles.bundle_data_by_products(broken, model)
                assert _decompose_outcome(broken, model, m) == \
                    (LatticeError, str(want.value))
            if isinstance(got, GroupDecomposition):
                assert (got.q_elements, got.p_structure, got.minimal) == \
                    (q, p_structure, minimal)
            elif m > 1:  # a declared core the data contradicts
                assert got[0] is LatticeError
            elif len(q) == 4:
                with pytest.raises(InvariantViolation) as want:
                    _sigma_partition([fiber_action(g, model) for g in q],
                                     model)
                assert got == (InvariantViolation, str(want.value))
            else:
                assert minimal
                assert got == (InvariantViolation, "minimal bundle with"
                               f" base-trivial image of order {len(q)}")

    def test_listed_group_is_read_off_its_actions(self, compose_calls):
        # W(D5) at N = 6 as a list of 1,920 elements, where a pairwise
        # closure check takes 1,920^2 products
        group = list(generate_group(_weyl_d_generators(6)))
        with pytest.raises(InvariantViolation, match="^minimal bundle with"
                           " base-trivial image of order 16$"):
            decompose(group, ConicBundleModel(6), 1)
        assert len(compose_calls) <= 2000

    def test_short_list_of_a_large_group_refused_early(self, compose_calls):
        # (2 3) and an 11-cycle generate S11 on the base, 39,916,800 lifts
        n = 12
        labels = tuple(range(2, n + 1))
        group = [Isometry.identity(n),
                 matrix_from_fiber_action((3, 2) + labels[2:], (1,) * (n - 1), n),
                 matrix_from_fiber_action(labels[1:] + labels[:1], (1,) * (n - 1), n)]
        with pytest.raises(LatticeError, match="^input group is not closed"
                                               " under products$"):
            decompose(group, ConicBundleModel(n), 1)
        assert len(compose_calls) <= 10

    def test_empty_list_rejected(self):
        for m in (1, 0, 2.5):
            with pytest.raises(LatticeError, match="^input group is empty$"):
                decompose([], ConicBundleModel(5), m)

    @pytest.mark.parametrize("g0", [2.5, 1.0, True, False, "3", None])
    def test_core_order_must_be_an_int(self, g0):
        n = 5
        listed = [Isometry.identity(n), full_swap(n)]
        for group in (listed, generate_group(listed[1:])):
            with pytest.raises(LatticeError, match="^the declared core order"
                                                   " must be an int$"):
                decompose(group, ConicBundleModel(n), g0)

    def test_order_from_the_chain_checks_p_and_q(self, monkeypatch):
        group = generate_group(klein_four_group(5, ((2, 3), (4, 5), ()))[1:])
        structure = gsurf.gconic._bundle_structure

        def drop_one(actions, model, bound):
            lifts, span = structure(actions, model, bound)
            return lifts, span[:-1]
        monkeypatch.setattr(gsurf.gconic, "_bundle_structure", drop_one)
        with pytest.raises(InvariantViolation,
                           match=r"^\|P\| \|Q\| = 1 \* 3 for a group of order 4$"):
            decompose(group, ConicBundleModel(5), 1)

    def test_generated_group_is_never_listed(self, monkeypatch):
        n = 5
        gens = [_weyl_d_generators(n),
                klein_four_group(n, ((2, 3), (4, 5), ()))[1:]]
        model = ConicBundleModel(n)
        want = [_decompose_outcome(list(generate_group(g)), model, 1)
                for g in gens]
        groups = [generate_group(g) for g in gens]

        def refuse(*args):
            raise AssertionError("listed the elements")
        monkeypatch.setattr(gsurf.listing, "sorted_rows", refuse)
        monkeypatch.setattr(FiniteIsometryGroup, "__iter__", refuse)
        assert [_decompose_outcome(g, model, 1) for g in groups] == want
        assert want[0] == (InvariantViolation, "minimal bundle with"
                           " base-trivial image of order 8")
        assert want[1].case_tag == CASE_KLEIN
        with pytest.raises(AssertionError, match="listed the elements"):
            groups[1].element_array()

    def test_minimal_with_oversized_base_kernel_is_a_violation(self):
        n = 9
        masks = ((2, 3), (4, 5), (6, 7, 8, 9))
        taus = []
        for mask in masks:
            eps = tuple(-1 if j in mask else 1 for j in range(2, n + 1))
            taus.append(matrix_from_fiber_action(tuple(range(2, n + 1)), eps, n))
        group = [Isometry.identity(n)]
        for r in range(1, 4):
            for combo in itertools.combinations(taus, r):
                g = combo[0]
                for extra in combo[1:]:
                    g = g @ extra
                group.append(g)
        group = list({g.key(): g for g in group}.values())
        assert len(group) == 8
        with pytest.raises(InvariantViolation):
            decompose(group, ConicBundleModel(n), 1)


class TestSigmaPartition:
    @staticmethod
    def _partition(taus, n):
        model = ConicBundleModel(n)
        return _sigma_partition([fiber_action(g, model) for g in taus], model)

    def _klein(self, n, sigmas):
        taus = []
        for sigma in sigmas:
            eps = tuple(1 if j in sigma else -1 for j in range(2, n + 1))
            taus.append(matrix_from_fiber_action(tuple(range(2, n + 1)), eps, n))
        return taus

    def test_n4_singletons(self):
        taus = self._klein(4, ((2,), (3,), (4,)))
        s1, s2, s3, parity = self._partition(taus, 4)
        assert (s1, s2, s3) == ((2,), (3,), (4,))
        assert parity  # sizes 1 = 3 mod 2

    def test_n5_sizes_220(self):
        taus = self._klein(5, ((2, 3), (4, 5), ()))
        s1, s2, s3, parity = self._partition(taus, 5)
        assert sorted(map(len, (s1, s2, s3))) == [0, 2, 2]
        assert parity

    def test_overlap_is_a_violation(self):
        n = 5
        taus = self._klein(n, ((2, 3), (2, 4), ()))
        taus[2] = taus[0] @ taus[1]
        with pytest.raises(InvariantViolation):
            self._partition(taus, n)

    def test_rejects_non_klein(self):
        n = 5
        taus = self._klein(n, ((2, 3), (2, 3), (2, 3)))
        with pytest.raises(LatticeError):
            self._partition(taus, n)

    def test_rejects_a_base_moving_involution(self):
        n = 5
        taus = [matrix_from_fiber_action((3, 2, 4, 5), (1, 1, 1, 1), n)]
        taus += self._klein(n, ((2, 3), (4, 5)))
        with pytest.raises(LatticeError, match="^involutions must act"
                                               " trivially on the base$"):
            self._partition(taus, n)

    def test_rejects_involutions_that_do_not_close(self):
        n = 5
        taus = self._klein(n, ((2, 3), (4, 5), (2, 4)))
        with pytest.raises(LatticeError, match="^the involutions do not form"
                                               " a Klein four group$"):
            self._partition(taus, n)


def _fields(res):
    return (res.r, res.m, res.m_prime, res.product, res.holds)


def _table_rows(table):
    return list(zip(table.r.tolist(), table.m.tolist(), table.m_prime.tolist(),
                    table.product.tolist(), table.holds.tolist()))


class TestSectionIdentity:
    def test_rejects_equal_sections(self):
        m = ConicBundleModel(5)
        e = section_class(5, 0, ())
        with pytest.raises(LatticeError):
            section_identity(e, e, m)

    @pytest.mark.parametrize("n", [0, -2])
    def test_section_class_needs_a_blowup(self, n):
        with pytest.raises(LatticeError, match="^need at least one blowup$"):
            section_class(n, 0, ())

    def test_section_class_rejects_repeated_mark(self):
        with pytest.raises(LatticeError, match="^mark 2 repeated$"):
            section_class(5, 0, (2, 2))
        with pytest.raises(LatticeError, match="^mark 4 repeated$"):
            section_class(6, 1, (4, 3, 4))
        assert section_class(5, 0, (3, 2)) == section_class(5, 0, (2, 3))

    _E = CohClass((0, 1, 1, 0, 0, 0))          # E1 + E2, in normal form
    _BAD_H = CohClass((1, 1, 0, 0, 0, 0))      # E1-coordinate is not 1 - c
    _BAD_MARK = CohClass((0, 1, 2, 0, 0, 0))   # mark coordinate 2
    _NEG_MARK = CohClass((-1, 2, 0, -1, 0, 0))  # mark coordinate -1

    @pytest.mark.parametrize("e, e_prime, message", [
        (CohClass((0, 1, 0, 0, 0, 0, 0)), _E, "dimension mismatch"),
        (_E, CohClass((0, 1, 0, 0, 0, 0, 0)), "dimension mismatch"),
        (CohClass((1, 1, 0, 0, 0, 0, 0)), _BAD_H, "dimension mismatch"),
        (_BAD_H, _BAD_H, "two distinct sections are required"),
        (_BAD_H, _E, "[1,1,0,0,0,0] is not in section normal form"),
        (_E, _BAD_H, "[1,1,0,0,0,0] is not in section normal form"),
        (_BAD_MARK, _E, "[0,1,2,0,0,0] is not in section normal form"),
        (_E, _NEG_MARK, "[-1,2,0,-1,0,0] is not in section normal form"),
        (_BAD_MARK, _NEG_MARK, "[0,1,2,0,0,0] is not in section normal form"),
        (_NEG_MARK, _BAD_MARK, "[-1,2,0,-1,0,0] is not in section normal form"),
    ], ids=["first-dim", "second-dim", "both-dim-and-form", "equal-and-bad",
            "first-h", "second-h", "first-mark", "second-mark",
            "both-first", "both-second"])
    def test_error_paths(self, e, e_prime, message):
        model = ConicBundleModel(5)
        for route in (section_identity, oracles.section_identity_by_pairing):
            with pytest.raises(LatticeError) as info:
                route(e, e_prime, model)
            assert str(info.value) == message

    @pytest.fixture(scope="class")
    def by_pairing(self):
        """The oracle's fields on every pair i < j at N = 5..7."""
        out = {}
        for n in (5, 6, 7):
            model = ConicBundleModel(n)
            classes = list(section_classes(n, -2, 2))
            out[n] = [oracles.section_identity_by_pairing(e, e2, model)
                      for i, e in enumerate(classes) for e2 in classes[i + 1:]]
        return out

    def test_scalar_route_matches_pairing_on_every_pair(self, by_pairing):
        count = 0
        for n, want in by_pairing.items():
            model = ConicBundleModel(n)
            classes = list(section_classes(n, -2, 2))
            got = [section_identity(e, e2, model)
                   for i, e in enumerate(classes) for e2 in classes[i + 1:]]
            assert got == want, n
            count += len(got)
        assert count == 66920

    def test_table_matches_pairing_on_every_pair(self, by_pairing):
        count = 0
        for n, want in by_pairing.items():
            table = section_identity_table(n, -2, 2)
            classes = [e.coords for e in section_classes(n, -2, 2)]
            assert [tuple(row) for row in table.classes.tolist()] == classes
            pairs = list(itertools.combinations(range(len(classes)), 2))
            assert list(zip(table.i.tolist(), table.j.tolist())) == pairs
            got = _table_rows(table)
            assert got == [_fields(w) for w in want], n
            count += len(got)
        assert count == 66920

    def test_table_edges(self):
        assert len(section_identity_table(3, 0, -1).holds) == 0
        one = section_identity_table(3, 0, 0)
        assert one.classes.shape == (4, 4) and len(one.holds) == 6
        assert one.holds.all()
        with pytest.raises(LatticeError):
            section_identity_table(2)

    def test_table_is_exact_where_int64_products_wrap(self):
        n, c = 5, 2 ** 40                   # c * c' is past 2^63
        model = ConicBundleModel(n)
        table = section_identity_table(n, c, c + 1)
        want = [section_identity(e, e2, model) for e, e2 in
                itertools.combinations(section_classes(n, c, c + 1), 2)]
        assert _table_rows(table) == [_fields(w) for w in want]

    def test_c05_names_a_failing_pair(self, monkeypatch):
        from gsurf import gconic, selftest
        real = gconic.section_identity_table

        def one_failure(n, c_min, c_max):
            table = real(n, c_min, c_max)
            if n != 6:
                return table
            holds = table.holds.copy()
            holds[1234] = False
            return gconic.SectionIdentityTable(
                table.n, table.classes, table.i, table.j, table.r, table.m,
                table.m_prime, table.product, holds)

        monkeypatch.setattr(gconic, "section_identity_table", one_failure)
        res = selftest.criterion_05_section_identity(quick=True)
        classes = list(section_classes(6, -2, 2))
        i, j = list(itertools.combinations(range(len(classes)), 2))[1234]
        assert not res.ok
        assert res.detail == \
            f"identity failed for {classes[i]}, {classes[j]} at N=6"

    def test_identity_holds_spot_checks(self):
        n = 7
        m = ConicBundleModel(n)
        rng = random.Random(2)
        classes = list(section_classes(n, -2, 2))
        for _ in range(300):
            e, e2 = rng.sample(classes, 2)
            res = section_identity(e, e2, m)
            assert res.holds
            assert res.m == -e.square()

    def test_example_pair(self):
        n = 5
        m = ConicBundleModel(n)
        e = section_class(n, 0, ())            # E1 itself
        e2 = section_class(n, 1, (2, 3, 4, 5))
        res = section_identity(e, e2, m)
        assert res.holds
        assert res.r == 0
        assert res.m == 1

    def test_no_minimal_pair_below_five_blowups(self):
        """Swap-paired sections of equal defect need at least five fibers."""
        for n in (3, 4):
            model = ConicBundleModel(n)
            classes = list(section_classes(n, -2, 2))
            for i, e in enumerate(classes):
                for e2 in classes[i + 1:]:
                    res = section_identity(e, e2, model)
                    if res.m != res.m_prime:
                        continue
                    assert not (res.m >= 2 and res.product >= 0)
                    assert not (res.m == 1 and res.product >= 1)


class TestMaxSwap:
    def test_values(self):
        assert max_swap_closed_section(6) == 1
        assert max_swap_closed_section(8) == 2
        assert max_swap_closed_section(10) == 3

    def test_matches_scan(self):
        for n in range(6, 61, 2):
            assert max_swap_closed_section(n) == \
                oracles.max_swap_closed_section_scan(n) == (n - 4) // 2, n

    def test_rejects_bad_n(self):
        with pytest.raises(LatticeError):
            max_swap_closed_section(7)
        with pytest.raises(LatticeError):
            max_swap_closed_section(4)


class TestVertical:
    def test_fiber_decompositions(self):
        n = 6
        m = ConicBundleModel(n)
        decs = vertical_decompositions(fiber_class(n), m)
        # the whole fiber, or one singular pair per fiber label
        assert len(decs) == 1 + (n - 1)
        singles = [d for d in decs if len(d) == 1]
        assert singles == [((fiber_class(n), 1),)]

    def test_zero_class(self):
        m = ConicBundleModel(6)
        assert vertical_decompositions(CohClass((0,) * 7), m) == ((),)

    def test_doubled_section_target_empty(self):
        m = ConicBundleModel(6)
        target = CohClass((2, -2, -1, -1, -1, -1, -1))
        assert vertical_decompositions(target, m) == ()

    def test_negative_h_coefficient_empty(self):
        m = ConicBundleModel(6)
        assert vertical_decompositions(CohClass((-1, 1, 0, 0, 0, 0, 0)), m) == ()

    def test_multiplicities(self):
        n = 6
        m = ConicBundleModel(n)
        decs = vertical_decompositions(2 * fiber_class(n), m)
        for dec in decs:
            total = CohClass((0,) * (n + 1))
            for cls, mult in dec:
                assert mult > 0
                total = total + mult * cls
            assert total == 2 * fiber_class(n)


def test_invariant_exceptional_n6():
    c = invariant_exceptional_n6()
    assert c.square() == -1
    assert pairing(canonical_class(6), c) == -1
    assert c == -1 * canonical_class(6) - fiber_class(6)


class TestQInvariance:
    def _group(self, n):
        cyc = matrix_from_fiber_action((3, 2) + tuple(range(4, n + 1)),
                                       (-1, -1) + (1,) * (n - 3), n)
        return [Isometry.identity(n), cyc]

    def test_q_subgroup(self):
        n = 5
        group = self._group(n) + [full_swap(n)]
        # not closed, but q_subgroup only filters
        q = q_subgroup(group, ConicBundleModel(n))
        assert len(q) == 2  # identity and the full swap

    def test_invariance_under_pair_swap(self):
        n = 5
        m = ConicBundleModel(n)
        f = m.fiber
        group = self._group(n)
        spheres = (f - m.sphere_classes[0],) + m.sphere_classes[1:]
        m2 = ConicBundleModel(n, spheres)
        assert q_invariance_check(m, m2, group)

    def test_invariance_under_label_permutation(self):
        n = 5
        m = ConicBundleModel(n)
        m2 = ConicBundleModel(n, tuple(reversed(m.sphere_classes)))
        assert q_invariance_check(m, m2, self._group(n))

    def test_rejects_mismatched_models(self):
        with pytest.raises(LatticeError):
            q_invariance_check(ConicBundleModel(5), ConicBundleModel(6), [])
