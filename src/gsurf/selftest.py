"""Acceptance criteria as callable checks.

Each criterion returns a CriterionResult; the CLI ``selftest`` subcommand
and the acceptance test module both run these.  ``quick=True`` shrinks the
expensive sweeps (documented per criterion) for smoke runs; the acceptance
suite always runs the full versions.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List

from . import cone, exceptional, gconic, hexagon, weyl
from .errors import InvariantViolation
from .lattice import (CohClass, Isometry, SymplecticClass, canonical_class,
                      pairing, unit)

EXPECTED_EXCEPTIONAL_COUNTS = {2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
EXPECTED_WEYL_ORDERS = {3: 12, 4: 120, 5: 1920, 6: 51840, 7: 2903040}
EXPECTED_W8_ORDER = 696729600
EXPECTED_ROOT_COUNTS = {3: 8, 4: 20, 5: 40, 6: 72, 7: 126, 8: 240}


@dataclass
class CriterionResult:
    name: str
    ok: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.name} ({self.seconds:.1f}s) {self.detail}"


def _result(name: str, t0: float, ok: bool, detail: str) -> CriterionResult:
    return CriterionResult(name, ok, detail, time.monotonic() - t0)


# -- 1 -----------------------------------------------------------------------

def criterion_01_exceptional_counts(quick: bool = False) -> CriterionResult:
    t0 = time.monotonic()
    counts = {n: len(exceptional.enumerate_exceptional(n)) for n in range(2, 9)}
    elapsed = time.monotonic() - t0
    ok = counts == EXPECTED_EXCEPTIONAL_COUNTS and elapsed < 10
    return _result("C01-exceptional-counts", t0, ok,
                   f"counts {counts}, {elapsed:.2f}s")


# -- 2 -----------------------------------------------------------------------

def criterion_02_reduction(quick: bool = False) -> CriterionResult:
    t0 = time.monotonic()
    problems = []
    top = 6 if quick else 8
    for n in range(3, top + 1):
        omegas = [SymplecticClass((3 + b, 1 + b) + (1,) * (n - 1))
                  for b in (0, 1, 2)]
        for e in exceptional.enumerate_exceptional(n):
            trace = exceptional.reduce_exceptional(e)
            degs = trace.degrees()
            if any(d2 >= d1 for d1, d2 in zip(degs, degs[1:])):
                problems.append(f"degree not strictly decreasing for {e}")
            if trace.final != unit(n, trace.final_index):
                problems.append(f"trace of {e} does not end at a basis class")
            for w in omegas:
                for _, before, after in trace.steps:
                    if w.area(after) > w.area(before):
                        problems.append(
                            f"area increased along the trace of {e} for {w}")
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 30
    detail = problems[0] if problems else f"all traces checked, {elapsed:.2f}s"
    return _result("C02-reduction", t0, ok, detail)


# -- 3 -----------------------------------------------------------------------

def criterion_03_weyl_orders(quick: bool = False) -> CriterionResult:
    t0 = time.monotonic()
    problems = []
    for n in range(3, 9):
        if len(weyl.all_roots(n)) != EXPECTED_ROOT_COUNTS[n]:
            problems.append(f"root count off at N={n}")
    top = 6 if quick else 7
    for n in range(3, top + 1):
        group = weyl.weyl_group(n)
        if group.order != EXPECTED_WEYL_ORDERS[n]:
            problems.append(f"closure order {group.order} at N={n}")
        listed = len(group.element_array())
        if listed != group.order:
            problems.append(f"{listed} elements listed at N={n}")
    t_chain = time.monotonic()
    chain_order = weyl.group_order_via_chain(weyl.simple_reflections(8))
    chain_secs = time.monotonic() - t_chain
    if chain_order != EXPECTED_W8_ORDER:
        problems.append(f"chain order {chain_order} at N=8")
    if chain_secs >= 60:
        problems.append(f"chain took {chain_secs:.1f}s")
    ok = not problems
    detail = problems[0] if problems else \
        f"orders verified, chain N=8 in {chain_secs:.1f}s"
    return _result("C03-weyl-orders", t0, ok, detail)


# -- 4 -----------------------------------------------------------------------

def _random_word(rng: random.Random, refl, max_len: int = 6) -> Isometry:
    g = Isometry.identity(refl[0].n)
    for _ in range(rng.randint(1, max_len)):
        g = g @ rng.choice(refl)
    return g


def criterion_04_trace_rank(quick: bool = False) -> CriterionResult:
    t0 = time.monotonic()
    rng = random.Random(20260808)
    refl = {n: weyl.simple_reflections(n) for n in (3, 4, 5, 6)}
    trials = 40 if quick else 200
    problems = []
    for i in range(trials):
        n = (3, 4, 5, 6)[i % 4]
        n_gens = 1 + (i // 4) % 2
        gens = [_random_word(rng, refl[n]) for _ in range(n_gens)]
        group = weyl.generate_group(gens)
        rank, _ = weyl.invariant_lattice(group)
        total = int(group.trace_vector().sum())
        if group.order * rank != total:
            problems.append(
                f"trial {i}: |G|*rank = {group.order * rank} != {total}")
        s, holds = weyl.trace_sum_condition(group)
        if holds != (rank == 1):
            problems.append(f"trial {i}: trace condition {holds}, rank {rank}")
    ok = not problems
    detail = problems[0] if problems else f"{trials} random subgroups verified"
    return _result("C04-trace-rank", t0, ok, detail)


# -- 5 -----------------------------------------------------------------------

def criterion_05_section_identity(quick: bool = False) -> CriterionResult:
    t0 = time.monotonic()
    top = 7 if quick else 9
    checked = 0
    problems = []
    for n in range(5, top + 1):
        table = gconic.section_identity_table(n, -2, 2)
        checked += len(table.holds)
        for p in (~table.holds).nonzero()[0].tolist():
            e, e2 = (CohClass(tuple(table.classes[k].tolist()))
                     for k in (table.i[p], table.j[p]))
            problems.append(f"identity failed for {e}, {e2} at N={n}")
    ok = not problems
    detail = problems[0] if problems else f"{checked} pairs verified"
    return _result("C05-section-identity", t0, ok, detail)


# -- 6 -----------------------------------------------------------------------

def criterion_06_max_swap(quick: bool = False) -> CriterionResult:
    t0 = time.monotonic()
    problems = []
    got6 = gconic.max_swap_closed_section(6)
    if got6 != 1:
        problems.append(f"N=6 gave {got6}")
    for n in (6, 8, 10):
        got = gconic.max_swap_closed_section(n)
        if got > (n - 4) // 2:
            problems.append(f"bound exceeded at N={n}: {got}")
    ok = not problems
    detail = problems[0] if problems else "bounds 1, <=2, <=3 verified"
    return _result("C06-max-swap-section", t0, ok, detail)


# -- 7 -----------------------------------------------------------------------

def criterion_07_vertical(quick: bool = False) -> CriterionResult:
    t0 = time.monotonic()
    model = gconic.ConicBundleModel(6)
    problems = []
    target = CohClass((2, -2, -1, -1, -1, -1, -1))
    if gconic.vertical_decompositions(target, model):
        problems.append("doubled-section target has a vertical decomposition")
    c = gconic.invariant_exceptional_n6()
    labels = list(range(3, 7))
    e1 = CohClass((0, 1, 0, 0, 0, 0, 0))
    for cc in (1, 2):
        size_cap = 2 if cc == 1 else 5
        for r in range(0, size_cap + 1):
            for marks in itertools.combinations(range(2, 7), r):
                e_prime = gconic.section_class(6, cc, marks)
                if -e_prime.square() > 1:
                    continue
                target = c - e1 - e_prime
                if gconic.vertical_decompositions(target, model):
                    problems.append(f"single-section target {target} decomposed")
    k, f = canonical_class(6), gconic.fiber_class(6)
    if c.square() != -1:
        problems.append("invariant class square")
    if pairing(k, c) != -1:
        problems.append("invariant class pairing with K")
    if c != -1 * k - 1 * f:
        problems.append("invariant class not in span{K, F}")
    ok = not problems
    detail = problems[0] if problems else "all decomposition targets empty"
    return _result("C07-vertical-decompositions", t0, ok, detail)


# -- 8 -----------------------------------------------------------------------

def criterion_08_fiber_pairs(quick: bool = False) -> CriterionResult:
    t0 = time.monotonic()
    expected = {5: (1,), 6: (), 7: (2,), 8: (4,), 2: (), 3: (), 4: (), 9: (), 10: ()}
    got = {n: cone.fiber_pairs(n) for n in expected}
    ok = got == expected
    return _result("C08-fiber-pairs", t0, ok, f"{got}")


# -- 9 -----------------------------------------------------------------------

def criterion_09_blowdown(quick: bool = False) -> CriterionResult:
    t0 = time.monotonic()
    a_min = -10_000
    problems = []
    for n in (5, 7, 8):
        got = cone.blowdown_obstruction(n, a_min)
        if got:
            problems.append(f"N={n} returned {got}")
    got6 = cone.blowdown_obstruction(6, a_min)
    if got6 != ((-1, 1),):
        problems.append(f"N=6 returned {got6}")
    ok = not problems
    detail = problems[0] if problems else "obstruction scan over [-10^4, -1]"
    return _result("C09-blowdown-obstruction", t0, ok, detail)


# -- 10 ----------------------------------------------------------------------

def criterion_10_cone_monotone(quick: bool = False) -> CriterionResult:
    t0 = time.monotonic()
    problems = []
    grid = [Fraction(-20 + k, 10) for k in range(50)]
    for n in range(3, 9):
        f = gconic.fiber_class(n)
        for e in exceptional.enumerate_exceptional(n):
            if pairing(f, e) < 0:
                problems.append(f"F.e < 0 for {e} at N={n}")
        k0 = canonical_class(n)
        try:
            sl = cone.slice_scan(n, f, k0, grid)
        except InvariantViolation as exc:
            problems.append(f"monotonicity violated at N={n}: {exc}")
            continue
        flags = [m for _, m in sl.samples]
        if any(f1 and not f2 for f1, f2 in zip(flags, flags[1:])):
            problems.append(f"non-monotone samples at N={n}")
    ok = not problems
    detail = problems[0] if problems else "positivity and 50-point scans verified"
    return _result("C10-cone-monotonicity", t0, ok, detail)


# -- 11 ----------------------------------------------------------------------

TABLE_10 = [(1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1)]
TABLE_11 = [(1, 1), (0, -1), (1, 0), (-1, -1), (0, 1), (-1, 0)]


def criterion_11_hexagon(quick: bool = False) -> CriterionResult:
    t0 = time.monotonic()
    problems = []
    if hexagon.propagate_rotation((1, 0)) != TABLE_10:
        problems.append("weight table for type (1,0) mismatched")
    got11 = hexagon.propagate_rotation((1, 1))
    if [hexagon.reduce_pair(p, 2) for p in got11] != \
            [hexagon.reduce_pair(p, 2) for p in TABLE_11]:
        problems.append("weight table for type (1,1) mismatched mod 2")
    for n in range(1, 13):
        for a in range(n):
            for b in range(n):
                if not hexagon.g3_conjugation_check(
                        hexagon.TorusElement(a, b, n)):
                    problems.append(f"half-turn conjugation failed at {(a, b, n)}")
    if not hexagon.involution_nontrivial_conjugation():
        problems.append("involution conjugation check failed")
    subs = hexagon.transitive_hexagon_subgroups()
    if len(subs) != 2 or sorted(s.order for s in subs) != [6, 12]:
        problems.append(f"transitive subgroups: {[s.order for s in subs]}")
    ok = not problems
    detail = problems[0] if problems else "weight tables and subgroups verified"
    return _result("C11-hexagon-calculus", t0, ok, detail)


# -- 12 ----------------------------------------------------------------------

def valid_gnks_parameters(n_max: int):
    """All (n, k, s) with k > 1 dividing n and s^2 - s + 1 = 0 mod k."""
    out = []
    for n in range(1, n_max + 1):
        for k in range(2, n + 1):
            if n % k:
                continue
            for s in range(n):
                if (s * s - s + 1) % k == 0:
                    out.append((n, k, s))
    return out


def criterion_12_imprimitive(quick: bool = False) -> CriterionResult:
    t0 = time.monotonic()
    problems = []
    top = 6 if quick else 9
    for n in range(1, top + 1):
        if len(hexagon.make_imprimitive(hexagon.KIND_GN, n)) != 3 * n * n:
            problems.append(f"Gn order off at n={n}")
        if len(hexagon.make_imprimitive(hexagon.KIND_GTN, n)) != 6 * n * n:
            problems.append(f"Gtn order off at n={n}")
        if n % 3 == 0:
            if len(hexagon.make_imprimitive(hexagon.KIND_GTN32, n)) != 2 * n * n:
                problems.append(f"Gtn32 order off at n={n}")
    for n, k, s in valid_gnks_parameters(top):
        got = len(hexagon.make_imprimitive(hexagon.KIND_GNKS, n, k, s))
        if got != 3 * n * n // k:
            problems.append(f"Gnks order {got} at {(n, k, s)}")
    for args in ((5, 1, 0), (9, 3, 2)):
        if not hexagon.presentation_check(*args):
            problems.append(f"presentation check failed at {args}")
    for n in range(1, 13):
        for k in range(1, n + 1):
            if n % k:
                continue
            for b in range(n):
                if (b * b + b + 1) % k:
                    continue
                if not hexagon.g2_action_check(n, k, b):
                    problems.append(f"rotation action failed at {(n, k, b)}")
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 30
    detail = problems[0] if problems else f"orders and relations, {elapsed:.2f}s"
    return _result("C12-imprimitive-groups", t0, ok, detail)


# -- 13 ----------------------------------------------------------------------

def parity_consistent_partitions(n: int):
    """Ordered partitions of the fiber labels with sizes = N - 1 mod 2.

    Partitions with two empty parts are skipped: they would make one
    involution the full swap and another the identity, a two-element group
    rather than a Klein four.
    """
    labels = list(range(2, n + 1))
    want = (n - 1) % 2
    for assignment in itertools.product((0, 1, 2), repeat=len(labels)):
        sets = [tuple(l for l, a in zip(labels, assignment) if a == i)
                for i in range(3)]
        if sum(1 for s in sets if not s) > 1:
            continue
        if all(len(s) % 2 == want for s in sets):
            yield sets


def klein_four_group(n: int, sets) -> list:
    taus = []
    for sigma in sets:
        eps = tuple(1 if j in sigma else -1 for j in range(2, n + 1))
        taus.append(gconic.matrix_from_fiber_action(
            tuple(range(2, n + 1)), eps, n))
    return [Isometry.identity(n)] + taus


def _swap_relabels(model: gconic.ConicBundleModel, masks):
    f = model.fiber
    for mask in masks:
        spheres = tuple(f - e if (mask >> t) & 1 else e
                        for t, e in enumerate(model.sphere_classes))
        yield gconic.ConicBundleModel(model.n_blowups, spheres)


def criterion_13_classifier(quick: bool = False) -> CriterionResult:
    t0 = time.monotonic()
    problems = []
    top = 7 if quick else 9

    for n in (5, 7, 9):
        if n > top:
            continue
        model = gconic.ConicBundleModel(n)
        group = [Isometry.identity(n), gconic.full_swap(n)]
        dec = gconic.decompose(group, model, 1)
        if dec.case_tag != gconic.CASE_INVOLUTION or not dec.minimal:
            problems.append(f"full swap at N={n} tagged {dec.case_tag}")
        if dec.sigma_sizes != (0,) or dec.parity_ok is not True:
            problems.append(f"full swap sigma data off at N={n}")
        for m in (2, 3, 5):
            dec = gconic.decompose(group, model, m)
            if dec.case_tag != gconic.CASE_CYCLIC_CORE:
                problems.append(f"declared core {m} at N={n}: {dec.case_tag}")
            if dec.q_abstract != (f"D{2 * m}",):
                problems.append(f"core {m} at N={n}: {dec.q_abstract}")

    for n in range(4, top + 1):
        model = gconic.ConicBundleModel(n)
        partitions = list(parity_consistent_partitions(n))
        for sets in partitions:
            group = klein_four_group(n, sets)
            if not (group[1] @ group[2]).key() == group[3].key():
                problems.append(f"Klein group relation failed at N={n}")
                continue
            dec = gconic.decompose(group, model, 1)
            if dec.case_tag != gconic.CASE_KLEIN or not dec.minimal:
                problems.append(f"Klein partition {sets} tagged {dec.case_tag}")
                continue
            if dec.sigma_sizes != tuple(len(s) for s in sets):
                problems.append(f"sigma sizes off for {sets} at N={n}")
            if not dec.parity_ok:
                problems.append(f"parity flag off for {sets} at N={n}")
        reps = [partitions[0], partitions[len(partitions) // 2], partitions[-1]]
        n_fibers = n - 1
        if n_fibers <= 7:
            masks = range(1 << n_fibers)
        else:
            masks = [0, (1 << n_fibers) - 1] + [1 << t for t in range(n_fibers)]
        for sets in reps:
            group = klein_four_group(n, sets)
            for model2 in _swap_relabels(model, masks):
                if not gconic.q_invariance_check(model, model2, group):
                    problems.append(f"Q changed under a relabel at N={n}")
                    break
            perm_spheres = tuple(reversed(model.sphere_classes))
            model3 = gconic.ConicBundleModel(n, perm_spheres)
            if not gconic.q_invariance_check(model, model3, group):
                problems.append(f"Q changed under label reversal at N={n}")
    ok = not problems
    detail = problems[0] if problems else "classifier suite verified"
    return _result("C13-conic-classifier", t0, ok, detail)


CRITERIA: List[Callable[[bool], CriterionResult]] = [
    criterion_01_exceptional_counts,
    criterion_02_reduction,
    criterion_03_weyl_orders,
    criterion_04_trace_rank,
    criterion_05_section_identity,
    criterion_06_max_swap,
    criterion_07_vertical,
    criterion_08_fiber_pairs,
    criterion_09_blowdown,
    criterion_10_cone_monotone,
    criterion_11_hexagon,
    criterion_12_imprimitive,
    criterion_13_classifier,
]


def run_all(quick: bool = False, log=None) -> List[CriterionResult]:
    results = []
    for crit in CRITERIA:
        res = crit(quick)
        results.append(res)
        if log is not None:
            print(res.line(), file=log, flush=True)
    return results
