"""The trusted constructors against the validating ones they bypass.

Products, inverses, reflections, bundle lifts, composed fiber actions and
class arithmetic skip validation because their results are valid by
proof.  These tests rebuild each result through the public constructor,
and count the pairing checks that the boundary still makes.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsurf import cli
from gsurf.errors import LatticeError
from gsurf.gconic import (
    CASE_KLEIN,
    ConicBundleModel,
    FiberAction,
    decompose,
    matrix_from_fiber_action,
)
from gsurf.lattice import CohClass, Isometry, unit
from gsurf.selftest import klein_four_group
from gsurf.weyl import FiniteIsometryGroup, generate_group, reflection, weyl_group

from oracles import h_ijk, permutation_isometry


def assert_valid_isometry(g):
    assert type(g.mat) is tuple
    assert all(type(row) is tuple for row in g.mat)
    assert all(type(v) is int for row in g.mat for v in row)
    assert g._pairing_witness() is None
    assert g == Isometry(g.mat)


def assert_valid_class(c):
    assert type(c.coords) is tuple
    assert all(type(v) is int for v in c.coords)
    assert c == CohClass(c.coords)


def letters(n):
    """Simple reflections (H - E1 - E2 - E3 and Ei - E(i+1)), every
    Cremona reflection in H - Ei - Ej - Ek and every transposition."""
    out = [reflection(h_ijk(n, 1, 2, 3))]
    out += [reflection(unit(n, i) - unit(n, i + 1)) for i in range(1, n)]
    out += [reflection(h_ijk(n, i, j, k)) for i in range(1, n + 1)
            for j in range(i + 1, n + 1) for k in range(j + 1, n + 1)]
    out += [permutation_isometry(n, {i: j, j: i}) for i in range(1, n + 1)
            for j in range(i + 1, n + 1)]
    return out


@st.composite
def words(draw):
    n = draw(st.integers(3, 10))
    alphabet = letters(n)
    word = draw(st.lists(st.integers(0, len(alphabet) - 1), min_size=1,
                         max_size=8))
    return n, [alphabet[i] for i in word]


@st.composite
def even_swap_action(draw, n):
    pi = draw(st.permutations(range(2, n + 1)))
    eps = draw(st.lists(st.sampled_from((1, -1)), min_size=n - 1,
                        max_size=n - 1))
    if eps.count(-1) % 2:
        eps[0] = -eps[0]
    return tuple(pi), tuple(eps)


@st.composite
def action_pairs(draw):
    n = draw(st.integers(3, 10))
    return n, draw(even_swap_action(n)), draw(even_swap_action(n))


class TestTrustedAgreesWithValidated:
    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(words(), st.lists(st.integers(-5, 5), min_size=11, max_size=11),
           st.integers(-4, 4))
    def test_reflection_words_and_classes(self, data, coords, k):
        n, word = data
        for letter in word:
            assert_valid_isometry(letter)
        g = Isometry.identity(n)
        assert_valid_isometry(g)
        for letter in word:
            g = g @ letter
            assert_valid_isometry(g)
        x = CohClass(tuple(coords[:n + 1]))
        y = g.apply(x)
        for c in (y, x + y, x - y, -y, k * y, unit(n, k % (n + 1))):
            assert_valid_class(c)
        assert y.square() == x.square()

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(action_pairs())
    def test_bundle_lifts_and_composed_actions(self, data):
        n, a, b = data
        assert_valid_isometry(matrix_from_fiber_action(*a, n))
        ab = FiberAction(*a).compose(FiberAction(*b))
        assert type(ab.pi) is tuple and type(ab.eps) is tuple
        assert all(type(e) is int for e in ab.pi + ab.eps)
        assert ab == FiberAction(ab.pi, ab.eps)

    def test_generated_elements(self):
        for g in weyl_group(4):
            assert_valid_isometry(g)

    def test_groups_are_built_only_by_generation(self):
        # a hand-built group would iterate to a trusted non-isometry
        with pytest.raises(TypeError, match="built only by generate_group"):
            FiniteIsometryGroup((), 3, 1, np.array([[[2, 0, 0], [0, 1, 0],
                                                     [0, 0, 1]]]))
        group = weyl_group(3)
        with pytest.raises(AttributeError, match="is immutable"):
            group.order = 1

    def test_unit_and_identity_still_reject_empty_lattices(self):
        with pytest.raises(LatticeError, match="at least the H and one E"):
            unit(0, 0)
        with pytest.raises(LatticeError, match="at least the H and one E"):
            Isometry.identity(0)

    def test_non_integer_flags_are_rejected(self):
        for eps in ((1.0, -1.0), (True, True)):
            with pytest.raises(LatticeError, match="eps must consist of"):
                matrix_from_fiber_action((2, 3), eps, 3)


@pytest.fixture
def witness_calls(monkeypatch):
    calls = []
    check = Isometry._pairing_witness

    def counting(self):
        calls.append(self)
        return check(self)

    monkeypatch.setattr(Isometry, "_pairing_witness", counting)
    return calls


class TestBoundaryGuard:
    def test_products_and_lifts_are_not_rechecked(self, witness_calls):
        a = matrix_from_fiber_action((3, 2, 4), (-1, -1, 1), 4)
        b = matrix_from_fiber_action((2, 4, 3), (1, -1, -1), 4)
        a @ b
        Isometry.identity(9)
        assert witness_calls == []

    def test_decompose_on_a_generated_klein_group(self, witness_calls):
        n = 7
        taus = klein_four_group(n, ((2, 3), (4, 5), (6, 7)))[1:]
        group = generate_group(taus)
        model = ConicBundleModel(n)
        assert decompose(group, model).case_tag == CASE_KLEIN
        assert decompose(list(group), model).case_tag == CASE_KLEIN
        assert witness_calls == []

    def test_group_files_are_checked_once_per_matrix(self, tmp_path,
                                                     witness_calls):
        mats = [list(map(list, g.mat)) for g in letters(5)[:4]]
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(mats))
        witness_calls.clear()  # the transpositions above were checked
        gens = cli.parse_group_file(str(path))
        assert len(witness_calls) == len(mats) == len(gens)
