"""The immutable value types and result records: repr, equality, hash and
sealing.

Each record is built twice, and once with other values.  The repr strings
are the ones these classes have always printed.  The hash is that of the
tuple of the compared fields, so set and dict orders, and with them every
report, do not depend on how the classes are written.
"""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from gsurf.cone import ConeSlice, FiberReport, slice_scan
from gsurf.exceptional import ExceptionalSet, ReductionTrace, reduce_exceptional
from gsurf.gconic import (ConicBundleModel, FiberAction, GroupDecomposition,
                          SectionIdentity, SectionIdentityTable)
from gsurf.hexagon import (HexagonSubgroup, MonomialGroup, MonomialGroupElement,
                           TorusElement, make_imprimitive)
from gsurf.lattice import (CohClass, Isometry, SymplecticClass, canonical_class,
                           fiber_class, unit)
from gsurf.selftest import CriterionResult
from gsurf.weyl import Dichotomy

F = fiber_class(3)

# (class, a record, one with other values, the compared fields, repr)
CASES = [
    (CohClass, lambda: CohClass((1, -1, 0)), lambda: CohClass((1, 0, -1)),
     ("coords",), "CohClass(coords=(1, -1, 0))"),
    (SymplecticClass, lambda: SymplecticClass((3, 1, Fraction(1, 2))),
     lambda: SymplecticClass((3, 1, 1)),
     ("coords",), "SymplecticClass(coords=(3, 1, Fraction(1, 2)))"),
    (Isometry, lambda: Isometry(((1, 0, 0), (0, 0, 1), (0, 1, 0))),
     lambda: Isometry.identity(2),
     ("mat",), "Isometry(mat=((1, 0, 0), (0, 0, 1), (0, 1, 0)))"),
    (FiberAction, lambda: FiberAction((3, 2), (1, -1)),
     lambda: FiberAction((3, 2), (-1, 1)),
     ("pi", "eps"), "FiberAction(pi=(3, 2), eps=(1, -1))"),
    (TorusElement, lambda: TorusElement(4, -1, 3),
     lambda: TorusElement(1, 2, 5),
     ("a", "b", "modulus"), "TorusElement(a=1, b=2, modulus=3)"),
    (MonomialGroupElement, lambda: MonomialGroupElement([1, 0, 2], (2, 3, 9), 5),
     lambda: MonomialGroupElement.identity(5),
     ("perm", "scalars", "modulus"),
     "MonomialGroupElement(perm=(1, 0, 2), scalars=(0, 1, 2), modulus=5)"),
    (ConicBundleModel, lambda: ConicBundleModel(3),
     lambda: ConicBundleModel(3, (unit(3, 3), unit(3, 2))),
     ("n_blowups", "sphere_classes"),
     "ConicBundleModel(n_blowups=3, sphere_classes=(CohClass(coords=(0, 0, 1,"
     " 0)), CohClass(coords=(0, 0, 0, 1))))"),
    (ExceptionalSet,
     lambda: ExceptionalSet(2, (CohClass((0, 0, 1)), CohClass((0, 1, 0))),
                            True, 1),
     lambda: ExceptionalSet(2, (CohClass((0, 0, 1)), CohClass((0, 1, 0))),
                            False, 1),
     ("n", "classes", "complete", "max_degree"),
     "ExceptionalSet(n=2, classes=(CohClass(coords=(0, 0, 1)),"
     " CohClass(coords=(0, 1, 0))), complete=True, max_degree=1)"),
    (ReductionTrace, lambda: reduce_exceptional(CohClass((1, -1, -1, 0))),
     lambda: reduce_exceptional(CohClass((1, -1, 0, -1))),
     ("start", "steps", "final", "final_index"),
     "ReductionTrace(start=CohClass(coords=(1, -1, -1, 0)), steps=(((1, 2, 3),"
     " CohClass(coords=(1, -1, -1, 0)), CohClass(coords=(0, 0, 0, 1))),),"
     " final=CohClass(coords=(0, 0, 0, 1)), final_index=3)"),
    (Dichotomy,
     lambda: Dichotomy("rank2", 2, (CohClass((1, 0, 0)), CohClass((0, 1, 0))),
                       (F,)),
     lambda: Dichotomy("rank1", 1, (CohClass((1, 0, 0)),), ()),
     ("kind", "rank", "basis", "fiber_candidates"),
     "Dichotomy(kind='rank2', rank=2, basis=(CohClass(coords=(1, 0, 0)),"
     " CohClass(coords=(0, 1, 0))), fiber_candidates=(CohClass(coords=(1, -1,"
     " 0, 0)),))"),
    (FiberReport, lambda: FiberReport(2, (F,), False, (F,), ()),
     lambda: FiberReport(2, (F,), True, (F,), ()),
     ("rank", "candidates", "unique_expected", "effective", "excluded_by_core"),
     "FiberReport(rank=2, candidates=(CohClass(coords=(1, -1, 0, 0)),),"
     " unique_expected=False, effective=(CohClass(coords=(1, -1, 0, 0)),),"
     " excluded_by_core=())"),
    (ConeSlice,
     lambda: slice_scan(3, F, canonical_class(3), [0, Fraction(1, 2)]),
     lambda: slice_scan(3, F, canonical_class(3), [0]),
     ("k0", "fiber", "samples", "last_outside", "first_member"),
     "ConeSlice(k0=CohClass(coords=(-3, 1, 1, 1)), fiber=CohClass(coords=(1,"
     " -1, 0, 0)), samples=((Fraction(0, 1), True), (Fraction(1, 2), True)),"
     " last_outside=None, first_member=Fraction(0, 1))"),
    (MonomialGroup, lambda: make_imprimitive("Gn", 1),
     lambda: make_imprimitive("Gn", 2),
     ("kind", "n", "k", "s", "generators", "complement", "torus"),
     "MonomialGroup(kind='Gn', n=1, k=1, s=0, generators=("
     + ", ".join(f"MonomialGroupElement(perm={p}, scalars=(0, 0, 0), modulus=1)"
                 for p in ((0, 1, 2), (0, 1, 2), (2, 0, 1)))
     + "), complement=((0, 1, 2), (1, 2, 0), (2, 0, 1)), torus=((0, 0),))"),
    (HexagonSubgroup, lambda: HexagonSubgroup(2, True, ((0, 1), (1, 0))),
     lambda: HexagonSubgroup(1, True, ((0, 1),)),
     ("order", "cyclic", "vertex_perms"),
     "HexagonSubgroup(order=2, cyclic=True, vertex_perms=((0, 1), (1, 0)))"),
    (GroupDecomposition,
     lambda: GroupDecomposition(
         q_elements=(), g0_size=1, p_structure=((2, 3),), case_tag="non-minimal",
         minimal=False, q_image="trivial", q_abstract=(), sigma_sets=None,
         sigma_sizes=None, parity_ok=True),
     lambda: GroupDecomposition((), 3, ((2, 3),), "non-minimal", False,
                                "trivial", (), None, None, True),
     ("q_elements", "g0_size", "p_structure", "case_tag", "minimal", "q_image",
      "q_abstract", "sigma_sets", "sigma_sizes", "parity_ok"),
     "GroupDecomposition(q_elements=(), g0_size=1, p_structure=((2, 3),),"
     " case_tag='non-minimal', minimal=False, q_image='trivial', q_abstract=(),"
     " sigma_sets=None, sigma_sizes=None, parity_ok=True)"),
    (SectionIdentity, lambda: SectionIdentity(1, 0, 2, -1, True),
     lambda: SectionIdentity(1, 0, 2, -1, False),
     ("r", "m", "m_prime", "product", "holds"),
     "SectionIdentity(r=1, m=0, m_prime=2, product=-1, holds=True)"),
    (CriterionResult, lambda: CriterionResult("C00-probe", True, "fine", 0.5),
     lambda: CriterionResult("C00-probe", False, "fine", 0.5),
     ("name", "ok", "detail", "seconds"),
     "CriterionResult(name='C00-probe', ok=True, detail='fine', seconds=0.5)"),
]


@pytest.mark.parametrize("cls, make, other, fields, text", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_record_semantics(cls, make, other, fields, text):
    a, b, c = make(), make(), other()
    assert type(a) is type(b) is type(c) is cls
    assert a is not b
    assert repr(a) == text
    assert a == b and not a != b
    assert a != c and not a == c
    assert (a == object()) is False and (a != object()) is True
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(c, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and repr(twin) == text


def test_section_identity_table_equals_only_itself():
    arrays = [np.array(v) for v in
              ([[0, 1]], [0], [1], [1], [0], [1], [0], [True])]
    a, b = SectionIdentityTable(1, *arrays), SectionIdentityTable(1, *arrays)
    assert a == a and a != b and not a == b
    assert hash(a) == object.__hash__(a)
    assert repr(a) == (
        "SectionIdentityTable(n=1, classes=array([[0, 1]]), i=array([0]),"
        " j=array([1]), r=array([1]), m=array([0]), m_prime=array([1]),"
        " product=array([0]), holds=array([ True]))")
    with pytest.raises(AttributeError):
        a.holds = arrays[-1]
