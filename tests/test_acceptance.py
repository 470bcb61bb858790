"""Acceptance suite: one test per criterion, full sweeps, exact tolerances.

Each test prints its pass/fail line (visible with ``pytest -s`` or in the
JSON report of ``gsurf selftest``).  Where a criterion freezes values that
an independent oracle can recompute, the oracle runs here too.
"""

import re
import time

from gsurf import selftest
from gsurf.exceptional import enumerate_exceptional
from gsurf.weyl import all_roots

import oracles


def _run(criterion):
    res = criterion(quick=False)
    print(res.line())
    assert res.ok, res.detail
    return res


def test_c01_exceptional_counts():
    res = _run(selftest.criterion_01_exceptional_counts)
    # independent oracle recomputation of every enumeration, not just counts
    t0 = time.monotonic()
    for n in range(2, 9):
        want = set(oracles.exc_classes_oracle(n))
        got = {c.coords for c in enumerate_exceptional(n)}
        assert got == want, f"enumeration mismatch at N={n}"
    assert res.seconds + (time.monotonic() - t0) < 10


def test_c02_reduction():
    _run(selftest.criterion_02_reduction)


def test_c03_weyl_orders():
    _run(selftest.criterion_03_weyl_orders)
    for n in range(3, 9):
        assert {r.coords for r in all_roots(n)} == \
            set(oracles.root_classes_oracle(n))


def test_c04_trace_rank():
    _run(selftest.criterion_04_trace_rank)


def test_c05_section_identity():
    _run(selftest.criterion_05_section_identity)


def test_c06_max_swap_bound():
    _run(selftest.criterion_06_max_swap)


def test_c07_vertical_decompositions():
    _run(selftest.criterion_07_vertical)


def test_c08_fiber_pairs():
    _run(selftest.criterion_08_fiber_pairs)


def test_c09_blowdown_obstruction():
    _run(selftest.criterion_09_blowdown)


def test_c10_cone_monotonicity():
    _run(selftest.criterion_10_cone_monotone)


def test_c11_hexagon_calculus():
    _run(selftest.criterion_11_hexagon)


def test_c12_imprimitive_groups():
    _run(selftest.criterion_12_imprimitive)


def test_c13_conic_classifier():
    _run(selftest.criterion_13_classifier)


def test_runner_fails_a_criterion_over_its_bound():
    res = selftest._criterion("probe", bound=0)(lambda quick: ([], "fine"))()
    assert (res.name, res.ok) == ("probe", False)
    assert re.fullmatch(r"took \d+\.\d+s, bound 0s", res.detail)
    res = selftest._criterion("probe")(lambda quick: ([], "fine"))()
    assert (res.ok, res.detail) == (True, "fine")
