import random
from fractions import Fraction

import pytest

from gsurf import lattice
from gsurf.errors import LatticeError
from gsurf.lattice import (
    CohClass,
    Isometry,
    SymplecticClass,
    _norm_rat,
    canonical_class,
    coh_from_json,
    coords_to_json,
    is_reduced_class,
    pairing,
    rational_from_json,
    rational_to_json,
    unit,
)

from oracles import permutation_isometry

H = CohClass((1, 0, 0, 0))
E1 = CohClass((0, 1, 0, 0))
E2 = CohClass((0, 0, 1, 0))
E3 = CohClass((0, 0, 0, 1))


def test_pairing_basis_values():
    assert pairing(H, H) == 1
    assert pairing(E1, E2) == 0
    assert pairing(E1, H - E1 - E2) == 1
    assert pairing(E1, E1) == -1


def test_gram_matrix_is_standard():
    for n in (1, 2, 5, 9):
        basis = [unit(n, i) for i in range(n + 1)]
        for i, x in enumerate(basis):
            for j, y in enumerate(basis):
                want = 0 if i != j else (1 if i == 0 else -1)
                assert pairing(x, y) == want


def test_unit_is_the_basis():
    assert (unit(3, 0), unit(3, 1), unit(3, 3)) == (H, E1, E3)


@pytest.mark.parametrize("i", [7, 4, -1])
def test_unit_rejects_a_coordinate_out_of_range(i):
    with pytest.raises(LatticeError, match=rf"^coordinate {i} out of range 0\.\.3$"):
        unit(3, i)


@pytest.mark.parametrize("n", [0, -4])
def test_fiber_class_needs_a_blowup(n):
    with pytest.raises(LatticeError, match="^need at least one blowup$"):
        lattice.fiber_class(n)
    with pytest.raises(LatticeError, match="^need at least one blowup$"):
        canonical_class(n)


def test_moved_helpers_keep_their_old_names():
    # reflection and fiber_class live in lattice; weyl and gconic re-export
    # the same objects, so callers of either name see one function.
    from gsurf import gconic, weyl
    assert weyl.reflection is lattice.reflection
    assert gconic.fiber_class is lattice.fiber_class
    assert lattice.fiber_class(4) == CohClass((1, -1, 0, 0, 0))


def test_pairing_symmetric_bilinear():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 6)
        x, y, z = (tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                         for _ in range(n + 1)) for _ in range(3))
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert pairing(x, y) == pairing(y, x)
        lhs = pairing(tuple(a * xi + yi for xi, yi in zip(x, y)), z)
        assert lhs == a * pairing(x, z) + pairing(y, z)


def test_pairing_dimension_mismatch():
    with pytest.raises(LatticeError):
        pairing(H, canonical_class(5))


def test_canonical_class_square():
    assert canonical_class(5).square() == 4
    assert canonical_class(8).square() == 1
    assert canonical_class(9).square() == 0
    assert canonical_class(3).coords == (-3, 1, 1, 1)


def test_reduced_class():
    for b in (0, 1, 7):
        assert is_reduced_class(SymplecticClass((3 + b, 1 + b, 1, 1)))
    assert is_reduced_class(SymplecticClass((3, 1, 1, 1)))
    assert not is_reduced_class(SymplecticClass((1, 1, 1, 1)))
    assert not is_reduced_class(SymplecticClass((3, 1, 2, 1)))  # unsorted
    assert not is_reduced_class(SymplecticClass((2, 1, 0, 0)))  # zero area
    with pytest.raises(LatticeError):
        is_reduced_class(SymplecticClass((3, 1, 1)))


def test_reduced_implies_positive_areas():
    w = SymplecticClass((5, 2, 2, 1, 1, 1))
    n = w.n
    assert is_reduced_class(w)
    for i in range(1, n + 1):
        e = [0] * (n + 1)
        e[i] = 1
        assert w.area(CohClass(tuple(e))) > 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            e = [0] * (n + 1)
            e[0], e[i], e[j] = 1, -1, -1
            assert w.area(CohClass(tuple(e))) >= 0


def test_symplectic_storage_convention():
    w = SymplecticClass((3, 1, 1, 1))
    assert w.raw() == (3, -1, -1, -1)
    assert w.nu == 3 and w.lambdas == (1, 1, 1)
    assert w.area(E1) == 1
    assert w.square() == 6
    assert SymplecticClass.from_raw((3, -1, -1, -1)) == w


def test_coh_accessors():
    e = CohClass((2, 0, -1, -1))
    assert e.degree == 2
    assert e.b(2) == 1 and e.b(1) == 0
    assert 2 * e == CohClass((4, 0, -2, -2))
    assert (-e).coords == (-2, 0, 1, 1)


def test_rejects_inexact_coordinates():
    with pytest.raises(LatticeError):
        CohClass((1.0, 0, 0))
    with pytest.raises(LatticeError):
        SymplecticClass((1.5, 1, 1))


@pytest.mark.parametrize("x, name", [(True, "bool"), (1.0, "float")])
@pytest.mark.parametrize("normalize", [_norm_rat, rational_to_json])
def test_bool_and_float_still_rejected(normalize, x, name):
    with pytest.raises(LatticeError,
                       match=f"^exact coordinate expected, got {name}$"):
        normalize(x)


@pytest.mark.parametrize("x, name", [(True, "bool"), (1.0, "float")])
def test_symplectic_class_rejects_bool_and_float(x, name):
    with pytest.raises(LatticeError,
                       match=f"^exact coordinate expected, got {name}$"):
        SymplecticClass((x, 1, 1))


def test_norm_rat_values():
    assert _norm_rat(7) == 7
    assert type(_norm_rat(Fraction(6, 3))) is int
    assert _norm_rat(Fraction(1, 2)) == Fraction(1, 2)


class TestIsometry:
    def test_identity_and_apply(self):
        ident = Isometry.identity(3)
        assert Isometry.identity(3) is ident
        assert ident.is_identity()
        assert ident.apply(E1) == E1
        w = SymplecticClass((3, 1, 1, 1))
        assert ident.apply(w) == w

    def test_rejects_non_isometry_with_witness(self):
        bad = [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
        with pytest.raises(LatticeError, match="does not preserve"):
            Isometry(tuple(tuple(r) for r in bad))

    def test_inverse_and_compose(self):
        s = permutation_isometry(3, {1: 2, 2: 3, 3: 1})
        assert (s @ s.inverse()).is_identity()
        assert s.apply(E1) == E2
        assert not s.is_identity() and not (s @ s).is_identity()
        assert (s @ s @ s).is_identity()

    def test_permutation_isometry_fixes_canonical(self):
        s = permutation_isometry(4, {1: 2, 2: 1})
        assert s.fixes(canonical_class(4))
        with pytest.raises(LatticeError):
            permutation_isometry(3, {1: 2})


def test_json_round_trip():
    e = CohClass((2, 0, -1, -1))
    assert coords_to_json(e) == [2, 0, -1, -1]
    assert coh_from_json(coords_to_json(e)) == e
    w = SymplecticClass((Fraction(7, 2), 1, 1, Fraction(1, 3)))
    enc = coords_to_json(w)
    assert enc == ["7/2", -1, -1, "-1/3"]
    assert rational_to_json(Fraction(4, 2)) == 2
    assert rational_from_json("3/4") == Fraction(3, 4)
    with pytest.raises(LatticeError):
        rational_from_json("x")
    with pytest.raises(LatticeError):
        coh_from_json([1, "1/2"])
