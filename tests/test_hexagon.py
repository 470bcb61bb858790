import random

import pytest

from gsurf.errors import LatticeError, LimitExceeded
from gsurf.hexagon import (
    KIND_GN,
    KIND_GNKS,
    KIND_GTN,
    KIND_GTN32,
    MonomialGroupElement,
    TorusElement,
    g2_action_check,
    g3_conjugation_check,
    gamma_generators,
    involution_nontrivial_conjugation,
    make_imprimitive,
    presentation_check,
    propagate_rotation,
    reduce_pair,
    transitive_hexagon_subgroups,
)
from gsurf.exceptional import enumerate_exceptional
from gsurf.lattice import CohClass, pairing
from gsurf.selftest import valid_gnks_parameters

import oracles


# The hexagon's edges in the module's cyclic order.
_HEX_EDGES = tuple(CohClass(c) for c in (
    (0, 1, 0, 0),    # E1
    (1, -1, -1, 0),  # H - E1 - E2
    (0, 0, 1, 0),    # E2
    (1, 0, -1, -1),  # H - E2 - E3
    (0, 0, 0, 1),    # E3
    (1, -1, 0, -1),  # H - E1 - E3
))


class TestHexagonModel:
    """The six exceptional classes at N = 3 in the module's edge order."""

    def test_edges_are_the_exceptional_set(self):
        assert set(_HEX_EDGES) == set(enumerate_exceptional(3))

    def test_adjacency(self):
        for i in range(6):
            assert pairing(_HEX_EDGES[i], _HEX_EDGES[(i + 1) % 6]) == 1
            assert pairing(_HEX_EDGES[i], _HEX_EDGES[(i + 3) % 6]) == 0


class TestPropagation:
    def test_involution_tables(self):
        assert propagate_rotation((1, 0)) == \
            [(1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1)]
        got = propagate_rotation((1, 1))
        want = [(1, 1), (0, -1), (1, 0), (-1, -1), (0, 1), (-1, 0)]
        assert [reduce_pair(p, 2) for p in got] == \
            [reduce_pair(p, 2) for p in want]

    def test_identity_weights(self):
        assert propagate_rotation((0, 0)) == [(0, 0)] * 6

    def test_negation_equivariance(self):
        rng = random.Random(1)
        for _ in range(25):
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
            neg = propagate_rotation((-a, -b))
            assert neg == [(-x, -y) for x, y in propagate_rotation((a, b))]

    def test_consecutive_relation(self):
        rng = random.Random(2)
        for _ in range(25):
            lst = propagate_rotation((rng.randint(-9, 9), rng.randint(-9, 9)))
            for i in range(6):
                a, b = lst[i]
                assert lst[(i + 1) % 6] == (a + b, -a)


class TestTorusElement:
    def test_orders(self):
        assert TorusElement(1, 0, 4).order == 4
        assert TorusElement(2, 0, 4).order == 2
        assert TorusElement(0, 0, 1).order == 1

    def test_composition_adds(self):
        x = TorusElement(1, 2, 5)
        y = TorusElement(3, 4, 5)
        assert (x * y).rotation_numbers(5) == (4, 1)
        assert x * x.inverse() == TorusElement(0, 0, 5)

    def test_g3_examples(self):
        assert g3_conjugation_check(TorusElement(1, 0, 4))
        assert g3_conjugation_check(TorusElement(2, 3, 7))
        assert g3_conjugation_check(TorusElement(0, 0, 1))

    def test_conjugation_shift(self):
        h = TorusElement(1, 0, 2)
        conj = h.conjugate_by_rotation(1)
        assert conj.rotation_numbers(2) == (0, 1)

    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_order_rejected(self, n):
        with pytest.raises(LatticeError, match="order must be positive"):
            TorusElement(1, 0, n)

    def test_rotation_numbers_need_a_multiple_of_the_order(self):
        h = TorusElement(1, 0, 4)
        assert h.rotation_numbers(8) == (2, 0)
        with pytest.raises(LatticeError, match="element order does not divide 2"):
            h.rotation_numbers(2)

    @pytest.mark.parametrize("n, message", [
        (8.0, "n must be an int, got float"), (True, "n must be an int, got bool"),
        (0, "n must be positive")])
    def test_rotation_numbers_refuse_a_bad_n(self, n, message):
        # A float n once gave float rotation numbers (2.0, 0.0).
        with pytest.raises(LatticeError, match=f"^{message}$"):
            TorusElement(1, 0, 4).rotation_numbers(n)

    def test_cross_modulus_product_rejected(self):
        with pytest.raises(LatticeError, match="modulus mismatch"):
            TorusElement(1, 0, 2) * TorusElement(1, 0, 4)

    @pytest.mark.parametrize("args, name, got", [
        ((1, 1, 2.5), "modulus", "float"), ((1, 1, True), "modulus", "bool"),
        ((0.5, 1, 2), "a", "float"), ((1, False, 2), "b", "bool")])
    def test_non_int_arguments_rejected(self, args, name, got):
        with pytest.raises(LatticeError, match=f"^{name} must be an int, got {got}$"):
            TorusElement(*args)


def _small_torus_elements():
    return [TorusElement(a, b, n) for n in range(1, 13)
            for a in range(n) for b in range(n)]


class TestTorusAgainstAngles:
    """Integer residues agree with the Fraction angles in Q/Z they replaced."""

    def test_every_small_element(self):
        for h in _small_torus_elements():
            q = oracles.AngleTorus.of(h)
            assert h.order == q.order, h
            assert h.rotation_numbers() == q.rotation_numbers(), h
            for m in range(1, 2 * h.modulus + 1):
                try:
                    want = q.rotation_numbers(m)
                except LatticeError:
                    with pytest.raises(LatticeError):
                        h.rotation_numbers(m)
                else:
                    assert h.rotation_numbers(m) == want, (h, m)
            assert oracles.AngleTorus.of(h.inverse()) == q.inverse(), h
            for k in (-7, -2, -1, 0, 1, 3, 13):
                assert oracles.AngleTorus.of(h ** k) == q ** k, (h, k)
            for steps in range(6):
                assert oracles.AngleTorus.of(h.conjugate_by_rotation(steps)) == \
                    q.conjugate_by_rotation(steps), (h, steps)

    def test_seeded_products(self):
        rng = random.Random(12)
        for n in range(1, 13):
            for _ in range(50):
                x, y = (TorusElement(rng.randint(-3 * n, 3 * n),
                                     rng.randint(-3 * n, 3 * n), n)
                        for _ in range(2))
                assert oracles.AngleTorus.of(x * y) == \
                    oracles.AngleTorus.of(x) * oracles.AngleTorus.of(y), (x, y)


class TestGamma:
    def test_generator_orders(self):
        h1, ht1 = gamma_generators(6, 3, 1)
        assert h1.order == 2      # n/k
        assert ht1.order == 6     # n


class TestG2Action:
    def test_examples(self):
        assert g2_action_check(5, 1, 0)
        assert g2_action_check(9, 3, 7)  # b = -2 mod 9, the s = 2 case

    def test_bad_divisor(self):
        with pytest.raises(LatticeError):
            g2_action_check(4, 3, 1)

    @pytest.mark.parametrize("args, name, got", [
        ((6.0, 3, 1), "n", "float"), ((6, 3.0, 1), "k", "float"),
        ((6, 3, True), "b", "bool")])
    def test_non_int_arguments_rejected(self, args, name, got):
        with pytest.raises(LatticeError, match=f"^{name} must be an int, got {got}$"):
            g2_action_check(*args)

    def test_v_solution_class_is_irrelevant(self):
        # replacing v by v + n/k multiplies by h1^(n/k) = identity
        n, k, b = 9, 3, 7
        h1, ht1 = gamma_generators(n, k, b)
        v = 1
        base = (ht1 ** (-b - 1)) * (h1 ** v)
        shifted = (ht1 ** (-b - 1)) * (h1 ** (v + n // k))
        assert base == shifted


class TestMonomial:
    def test_identity_and_canonical_form(self):
        e = MonomialGroupElement((0, 1, 2), (2, 3, 4), 5)
        assert e.scalars == (0, 1, 2)  # diagonal killed
        ident = MonomialGroupElement.identity(5)
        assert (e * ident) == e and (ident * e) == e

    def test_associativity_random(self):
        rng = random.Random(8)
        perms = [(0, 1, 2), (2, 0, 1), (1, 2, 0), (0, 2, 1), (1, 0, 2), (2, 1, 0)]
        n = 6
        pool = [MonomialGroupElement(rng.choice(perms),
                                     tuple(rng.randrange(n) for _ in range(3)), n)
                for _ in range(12)]
        for _ in range(60):
            x, y, z = rng.sample(pool, 3)
            assert (x * y) * z == x * (y * z)

    def test_inverse(self):
        rng = random.Random(9)
        perms = [(2, 0, 1), (0, 2, 1), (1, 0, 2)]
        for _ in range(20):
            x = MonomialGroupElement(rng.choice(perms),
                                     tuple(rng.randrange(7) for _ in range(3)), 7)
            assert x * x.inverse() == MonomialGroupElement.identity(7)
            assert x.inverse() * x == MonomialGroupElement.identity(7)

    def test_cross_modulus_product_rejected(self):
        with pytest.raises(LatticeError, match="modulus mismatch"):
            MonomialGroupElement.identity(2) * MonomialGroupElement.identity(3)

    @pytest.mark.parametrize("args, message", [
        (((0, 1, 2), (0.5, 0, 0), 3), r"scalars must be three ints, got \(0\.5, 0, 0\)"),
        (((0, 1, 2), (0, 1, 0), 2.0), "modulus must be an int, got float"),
        (((0, 1, 2), (0, 1, 0), True), "modulus must be an int, got bool"),
        (((0, 1, 2), (0, True, 0), 3), r"scalars must be three ints, got \(0, True, 0\)"),
        (((0, 1, 2), (0, 1), 3), r"scalars must be three ints, got \(0, 1\)"),
        (((0.0, 1, 2), (0, 1, 0), 3), r"perm must be a permutation of \(0, 1, 2\)"),
        (((0, 1, 2), (0, 1, 0), 0), "modulus must be positive")])
    def test_non_int_inputs_rejected(self, args, message):
        # Once unchecked: float scalars (0.0, 2.5, 2.5) and a modulus 2.0.
        with pytest.raises(LatticeError, match=f"^{message}$"):
            MonomialGroupElement(*args)


class TestImprimitive:
    def test_orders_small(self):
        assert make_imprimitive(KIND_GN, 2).order == 12
        assert make_imprimitive(KIND_GTN, 2).order == 24
        assert make_imprimitive(KIND_GNKS, 3, 3, 2).order == 9
        assert make_imprimitive(KIND_GTN32, 3).order == 18

    def test_quotient_ratio(self):
        # |Gn| = k * |Gnks| at the same n
        full = make_imprimitive(KIND_GN, 6).order
        quot = make_imprimitive(KIND_GNKS, 6, 3, 2).order
        assert full == 3 * quot

    def test_parameter_validation(self):
        with pytest.raises(LatticeError):
            make_imprimitive(KIND_GNKS, 6, 4, 2)   # 4 does not divide 6
        with pytest.raises(LatticeError):
            make_imprimitive(KIND_GNKS, 6, 3, 1)   # 1 - 1 + 1 != 0 mod 3
        with pytest.raises(LatticeError):
            make_imprimitive(KIND_GNKS, 6, 1, 0)   # k must exceed 1
        with pytest.raises(LatticeError):
            make_imprimitive(KIND_GTN32, 4)        # needs 3 | n
        with pytest.raises(LatticeError):
            make_imprimitive("nope", 3)

    @pytest.mark.parametrize("kind, n", [(KIND_GN, 6), (KIND_GTN, 6),
                                         (KIND_GTN32, 6)])
    @pytest.mark.parametrize("k, s", [(5, 7), (3, None), (None, 2)])
    def test_k_and_s_refused_for_the_kinds_that_fix_them(self, kind, n, k, s):
        with pytest.raises(LatticeError, match="^k and s are Gnks parameters;"
                                               f" kind {kind} fixes them$"):
            make_imprimitive(kind, n, k, s)

    @pytest.mark.parametrize("kind, n, k, s, order", [
        (KIND_GN, 10, None, None, 300), (KIND_GTN, 10, None, None, 600),
        (KIND_GNKS, 9, 3, 2, 81), (KIND_GTN32, 12, None, None, 288)])
    def test_limit_on_the_closed_form_order(self, kind, n, k, s, order):
        assert make_imprimitive(kind, n, k, s, limit=order).order == order
        with pytest.raises(LimitExceeded, match="--limit"):
            make_imprimitive(kind, n, k, s, limit=order - 1)

    def test_semidirect_product_matches_the_closure(self):
        params = [(kind, n, None, None) for n in range(1, 13)
                  for kind in (KIND_GN, KIND_GTN)]
        params += [(KIND_GTN32, n, None, None) for n in range(3, 13, 3)]
        params += [(KIND_GNKS, n, k, s)
                   for n, k, s in valid_gnks_parameters(12)]
        for kind, n, k, s in params:
            group = make_imprimitive(kind, n, k, s)
            elements = oracles.monomial_group_elements(group)
            assert elements == \
                oracles.monomial_group_by_closure(kind, n, k, s), (kind, n, k, s)
            closed_form = 3 * n * n // k if kind == KIND_GNKS else \
                {KIND_GN: 3, KIND_GTN: 6, KIND_GTN32: 2}[kind] * n * n
            assert group.order == len(group) == len(elements) == closed_form, \
                (kind, n, k, s)

    def test_only_the_generators_are_built(self, monkeypatch):
        built = []
        init = MonomialGroupElement.__init__

        def spy(self, *args):
            built.append(args)
            init(self, *args)
        monkeypatch.setattr(MonomialGroupElement, "__init__", spy)
        group = make_imprimitive(KIND_GTN, 11)
        assert group.order == 726
        assert len(built) == len(group.generators) == 4

    def test_default_limit_stops_a_huge_closure(self):
        with pytest.raises(LimitExceeded):
            make_imprimitive(KIND_GN, 3000)   # 27,000,000 elements

    @pytest.mark.parametrize("args, limit, name, got", [
        ((KIND_GNKS, 9, 3.0, 2), 100, "k", "float"),
        ((KIND_GNKS, 9, 3, True), 100, "s", "bool"),
        ((KIND_GN, True), 100, "n", "bool"),
        ((KIND_GTN, 4.0), 100, "n", "float"),
        ((KIND_GN, 2), 100.0, "limit", "float")])
    def test_non_int_arguments_rejected(self, args, limit, name, got):
        # A float k once gave float scalars, a bool n a group of modulus True.
        with pytest.raises(LatticeError, match=f"^{name} must be an int, got {got}$"):
            make_imprimitive(*args, limit=limit)


class TestPresentation:
    def test_examples(self):
        assert presentation_check(5, 1, 0)
        assert presentation_check(9, 3, 2)

    def test_no_solution_for_even_k(self):
        # s^2 - s + 1 is odd, so k*v = it mod 6 is unsolvable for k = 2
        for s in range(6):
            with pytest.raises(LatticeError):
                presentation_check(6, 2, s)

    @pytest.mark.parametrize("args, name, got", [
        ((5.0, 1, 0), "n", "float"), ((9, True, 2), "k", "bool"),
        ((9, 3, 2.0), "s", "float")])
    def test_non_int_arguments_rejected(self, args, name, got):
        with pytest.raises(LatticeError, match=f"^{name} must be an int, got {got}$"):
            presentation_check(*args)


def test_transitive_subgroups():
    subs = transitive_hexagon_subgroups()
    assert len(subs) == 2
    by_order = {s.order: s for s in subs}
    assert set(by_order) == {6, 12}
    assert by_order[6].cyclic
    assert not by_order[12].cyclic


def test_transitive_subgroups_match_closure():
    assert transitive_hexagon_subgroups() == \
        oracles.transitive_hexagon_subgroups_by_closure()


def test_edge_only_transitivity_would_admit_a_third_group():
    """The vertex-transitivity refinement is what pins the answer at two."""
    assert oracles.hexagon_edge_transitive_subgroup_orders() == [6, 6, 12]


def test_involution_conjugation():
    assert involution_nontrivial_conjugation()
