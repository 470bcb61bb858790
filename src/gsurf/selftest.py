"""Acceptance criteria as callable checks.

Each criterion body takes ``quick`` and returns ``(problems, pass_detail)``;
the ``_criterion`` runner it is wrapped in times the body, adds a problem
when the criterion has a time bound and overran it, and returns a
CriterionResult whose detail is the first problem or else the pass detail.
Detail lines carry no time, so the JSON report of the CLI ``selftest``
subcommand is the same on every run; the seconds are on the stderr lines.
The CLI and the acceptance test module both run these.  ``quick=True``
shrinks the expensive sweeps (documented per criterion) for smoke runs; the
acceptance suite always runs the full versions.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from fractions import Fraction
from typing import Callable, List, NamedTuple

from . import cone, exceptional, gconic, hexagon, weyl
from .errors import InvariantViolation
from .lattice import (CohClass, Isometry, SymplecticClass, canonical_class,
                      pairing, unit)

EXPECTED_EXCEPTIONAL_COUNTS = {2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
EXPECTED_WEYL_ORDERS = {3: 12, 4: 120, 5: 1920, 6: 51840, 7: 2903040}
EXPECTED_W8_ORDER = 696729600
EXPECTED_ROOT_COUNTS = {3: 8, 4: 20, 5: 40, 6: 72, 7: 126, 8: 240}


class CriterionResult(NamedTuple):
    name: str
    ok: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.name} ({self.seconds:.1f}s) {self.detail}"


def _criterion(name: str, bound: float = None):
    """Decorator turning a body ``quick -> (problems, pass_detail)`` into a
    criterion; a body that runs ``bound`` seconds or longer fails."""
    def wrap(body):
        @functools.wraps(body)
        def run(quick: bool = False) -> CriterionResult:
            t0 = time.monotonic()
            problems, detail = body(quick)
            seconds = time.monotonic() - t0
            if bound is not None and seconds >= bound:
                problems = problems + [f"took {seconds:.2f}s, bound {bound}s"]
            return CriterionResult(name, not problems,
                                   problems[0] if problems else detail, seconds)
        return run
    return wrap


# -- 1 -----------------------------------------------------------------------

@_criterion("C01-exceptional-counts", bound=10)
def criterion_01_exceptional_counts(quick: bool = False) -> tuple:
    counts = {n: len(exceptional.enumerate_exceptional(n)) for n in range(2, 9)}
    detail = f"counts {counts}"
    return [] if counts == EXPECTED_EXCEPTIONAL_COUNTS else [detail], detail


# -- 2 -----------------------------------------------------------------------

@_criterion("C02-reduction", bound=30)
def criterion_02_reduction(quick: bool = False) -> tuple:
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
    return problems, "all traces checked"


# -- 3 -----------------------------------------------------------------------

@_criterion("C03-weyl-orders")
def criterion_03_weyl_orders(quick: bool = False) -> tuple:
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
    return problems, "orders verified, chain N=8"


# -- 4 -----------------------------------------------------------------------

def _random_word(rng: random.Random, refl, max_len: int = 6) -> Isometry:
    g = Isometry.identity(refl[0].n)
    for _ in range(rng.randint(1, max_len)):
        g = g @ rng.choice(refl)
    return g


@_criterion("C04-trace-rank")
def criterion_04_trace_rank(quick: bool = False) -> tuple:
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
    return problems, f"{trials} random subgroups verified"


# -- 5 -----------------------------------------------------------------------

@_criterion("C05-section-identity")
def criterion_05_section_identity(quick: bool = False) -> tuple:
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
    return problems, f"{checked} pairs verified"


# -- 6 -----------------------------------------------------------------------

@_criterion("C06-max-swap-section")
def criterion_06_max_swap(quick: bool = False) -> tuple:
    problems = []
    got6 = gconic.max_swap_closed_section(6)
    if got6 != 1:
        problems.append(f"N=6 gave {got6}")
    for n in (6, 8, 10):
        got = gconic.max_swap_closed_section(n)
        if got > (n - 4) // 2:
            problems.append(f"bound exceeded at N={n}: {got}")
    return problems, "bounds 1, <=2, <=3 verified"


# -- 7 -----------------------------------------------------------------------

@_criterion("C07-vertical-decompositions")
def criterion_07_vertical(quick: bool = False) -> tuple:
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
    return problems, "all decomposition targets empty"


# -- 8 -----------------------------------------------------------------------

@_criterion("C08-fiber-pairs")
def criterion_08_fiber_pairs(quick: bool = False) -> tuple:
    expected = {5: (1,), 6: (), 7: (2,), 8: (4,), 2: (), 3: (), 4: (), 9: (), 10: ()}
    got = {n: cone.fiber_pairs(n) for n in expected}
    detail = f"{got}"
    return [] if got == expected else [detail], detail


# -- 9 -----------------------------------------------------------------------

@_criterion("C09-blowdown-obstruction")
def criterion_09_blowdown(quick: bool = False) -> tuple:
    a_min = -10_000
    problems = []
    for n in (5, 7, 8):
        got = cone.blowdown_obstruction(n, a_min)
        if got:
            problems.append(f"N={n} returned {got}")
    got6 = cone.blowdown_obstruction(6, a_min)
    if got6 != ((-1, 1),):
        problems.append(f"N=6 returned {got6}")
    return problems, "obstruction scan over [-10^4, -1]"


# -- 10 ----------------------------------------------------------------------

@_criterion("C10-cone-monotonicity")
def criterion_10_cone_monotone(quick: bool = False) -> tuple:
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
    return problems, "positivity and 50-point scans verified"


# -- 11 ----------------------------------------------------------------------

TABLE_10 = [(1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1)]
TABLE_11 = [(1, 1), (0, -1), (1, 0), (-1, -1), (0, 1), (-1, 0)]


@_criterion("C11-hexagon-calculus")
def criterion_11_hexagon(quick: bool = False) -> tuple:
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
    return problems, "weight tables and subgroups verified"


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


@_criterion("C12-imprimitive-groups", bound=30)
def criterion_12_imprimitive(quick: bool = False) -> tuple:
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
    return problems, "orders and relations"


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


def _klein_actions(n: int, sets) -> list:
    """The fiber actions of the involutions keeping exactly each set."""
    labels = tuple(range(2, n + 1))
    return [gconic.FiberAction(labels, tuple(1 if j in s else -1 for j in labels))
            for s in sets]


def _lifted(n: int, actions) -> list:
    return [Isometry.identity(n)] + [
        gconic.matrix_from_fiber_action(a.pi, a.eps, n) for a in actions]


def klein_four_group(n: int, sets) -> list:
    return _lifted(n, _klein_actions(n, sets))


def _swap_relabels(model: gconic.ConicBundleModel, masks):
    f = model.fiber
    for mask in masks:
        spheres = tuple(f - e if (mask >> t) & 1 else e
                        for t, e in enumerate(model.sphere_classes))
        yield gconic.ConicBundleModel(model.n_blowups, spheres)


@_criterion("C13-conic-classifier")
def criterion_13_classifier(quick: bool = False) -> tuple:
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
            taus = _klein_actions(n, sets)
            if taus[0].compose(taus[1]) != taus[2]:
                problems.append(f"Klein group relation failed at N={n}")
                continue
            dec = gconic.decompose(_lifted(n, taus), model, 1)
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
        relabels = list(_swap_relabels(model, masks))
        model3 = gconic.ConicBundleModel(n, tuple(reversed(model.sphere_classes)))
        for sets in reps:
            group = klein_four_group(n, sets)
            for model2 in relabels:
                if not gconic.q_invariance_check(model, model2, group):
                    problems.append(f"Q changed under a relabel at N={n}")
                    break
            if not gconic.q_invariance_check(model, model3, group):
                problems.append(f"Q changed under label reversal at N={n}")
    return problems, "classifier suite verified"


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
