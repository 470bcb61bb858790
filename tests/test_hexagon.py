import random

import pytest

from gsurf.errors import LatticeError, LimitExceeded
from gsurf.hexagon import (
    HEX_EDGES,
    KIND_GN,
    KIND_GNKS,
    KIND_GTN,
    KIND_GTN32,
    HexagonModel,
    MonomialGroupElement,
    TorusElement,
    build_gamma,
    g2_action_check,
    g3_conjugation_check,
    gamma_generators,
    involution_nontrivial_conjugation,
    make_imprimitive,
    other_fixed_point,
    presentation_check,
    propagate_rotation,
    reduce_pair,
    transitive_hexagon_subgroups,
)
from gsurf.exceptional import enumerate_exceptional
from gsurf.lattice import pairing
from gsurf.selftest import valid_gnks_parameters

import oracles


class TestHexagonModel:
    def test_edges_are_the_exceptional_set(self):
        assert set(HEX_EDGES) == set(enumerate_exceptional(3))

    def test_adjacency(self):
        model = HexagonModel()
        for i in range(6):
            assert pairing(model.edges[i], model.edges[(i + 1) % 6]) == 1
            assert pairing(model.edges[i], model.edges[(i + 3) % 6]) == 0

    def test_first_vertex(self):
        model = HexagonModel()
        before, after = model.first_vertex
        assert before == HEX_EDGES[5] and after == HEX_EDGES[0]

    def test_scrambled_edges_rejected(self):
        bad = (HEX_EDGES[0], HEX_EDGES[2], HEX_EDGES[1]) + HEX_EDGES[3:]
        with pytest.raises(LatticeError):
            HexagonModel(bad)


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


class TestOtherFixedPoint:
    def test_examples(self):
        assert other_fixed_point((1, 0)) == (-1, 1)
        assert other_fixed_point((1, 1)) == (-1, 2)

    def test_involutive(self):
        rng = random.Random(3)
        for _ in range(25):
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
            if a == 0:
                continue
            assert other_fixed_point(other_fixed_point((a, b))) == (a, b)

    def test_tangentially_trivial_rejected(self):
        with pytest.raises(LatticeError):
            other_fixed_point((0, 3))


class TestTorusElement:
    def test_orders(self):
        assert TorusElement(1, 0, 4).order == 4
        assert TorusElement(2, 0, 4).order == 2
        assert TorusElement.identity(1).order == 1

    def test_composition_adds(self):
        x = TorusElement(1, 2, 5)
        y = TorusElement(3, 4, 5)
        assert (x * y).rotation_numbers(5) == (4, 1)
        assert (x * x.inverse()).is_identity()

    def test_g3_examples(self):
        assert g3_conjugation_check(TorusElement(1, 0, 4))
        assert g3_conjugation_check(TorusElement(2, 3, 7))
        assert g3_conjugation_check(TorusElement.identity(1))

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

    def test_cross_modulus_product_rejected(self):
        with pytest.raises(LatticeError, match="modulus mismatch"):
            TorusElement(1, 0, 2) * TorusElement(1, 0, 4)


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
    def test_orders(self):
        assert len(build_gamma(5, 1, 0)) == 25
        assert len(build_gamma(3, 3, 1)) == 3
        assert len(build_gamma(6, 3, 1)) == 12

    def test_generator_orders(self):
        h1, ht1 = gamma_generators(6, 3, 1)
        assert h1.order == 2      # n/k
        assert ht1.order == 6     # n

    def test_bad_divisor(self):
        with pytest.raises(LatticeError):
            build_gamma(4, 3, 1)

    def test_bad_congruence(self):
        with pytest.raises(LatticeError):
            build_gamma(9, 3, 0)  # 0 + 0 + 1 is not 0 mod 3

    def test_direct_sum_matches_the_closure(self):
        for n in range(1, 25):
            for k in range(1, n + 1):
                if n % k:
                    continue
                for b in range(n):
                    if (b * b + b + 1) % k == 0:
                        assert build_gamma(n, k, b) == \
                            oracles.torus_kernel_by_closure(n, k, b), (n, k, b)

    def test_residue_of_b_is_irrelevant(self):
        assert build_gamma(7, 1, -3) == build_gamma(7, 1, 4)
        assert build_gamma(9, 3, 7 + 9) == build_gamma(9, 3, 7)


class TestG2Action:
    def test_examples(self):
        assert g2_action_check(5, 1, 0)
        assert g2_action_check(9, 3, 7)  # b = -2 mod 9, the s = 2 case

    def test_bad_divisor(self):
        with pytest.raises(LatticeError):
            g2_action_check(4, 3, 1)

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
            assert (x * x.inverse()).is_identity()
            assert (x.inverse() * x).is_identity()

    def test_cross_modulus_product_rejected(self):
        with pytest.raises(LatticeError, match="modulus mismatch"):
            MonomialGroupElement.identity(2) * MonomialGroupElement.identity(3)


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
            assert make_imprimitive(kind, n, k, s).elements == \
                oracles.monomial_group_by_closure(kind, n, k, s), (kind, n, k, s)

    def test_default_limit_stops_a_huge_closure(self):
        with pytest.raises(LimitExceeded):
            make_imprimitive(KIND_GN, 3000)   # 27,000,000 elements


class TestPresentation:
    def test_examples(self):
        assert presentation_check(5, 1, 0)
        assert presentation_check(9, 3, 2)

    def test_no_solution_for_even_k(self):
        # s^2 - s + 1 is odd, so k*v = it mod 6 is unsolvable for k = 2
        for s in range(6):
            with pytest.raises(LatticeError):
                presentation_check(6, 2, s)


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
