"""Seeded inputs, ops and result checks for the benchmark workloads.

An op is one task a user would ask for: close and certify one group,
classify one group, answer one membership query or run one CLI command.
Every op checks its own result and raises CheckFailed when it is wrong.
The inputs and the expected values come from the benchmark itself (closed
forms, known constants and counts made here); the program only receives
the generated inputs.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

from gsurf import cone, exceptional, gconic, hexagon, weyl
from gsurf.errors import LimitExceeded
from gsurf.lattice import CohClass, Isometry, SymplecticClass, canonical_class

import spans

# The program's memo caches; taken before any tracing wrapper replaces the
# module attributes.  Every round starts from empty caches, as a fresh
# process would.
_CACHES = (weyl.all_roots, exceptional.enumerate_exceptional)


def clear_caches() -> None:
    for fn in _CACHES:
        fn.cache_clear()


class CheckFailed(Exception):
    """An op returned a wrong result."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def matmul(a: Isometry, b: Isometry) -> Isometry:
    """The benchmark's own isometry products; traced as one layer."""
    return a @ b


MATMUL_TARGET = ("lattice.Isometry.matmul", __name__, "matmul", None)


@dataclass
class Op:
    kind: str
    run: Callable[["Context"], None]


@dataclass
class Context:
    """What ops share within one benchmark process."""

    root: Path
    tmp: Path
    tracer: Optional[spans.Tracer] = None
    child_peak_kb: int = 0
    report_bytes: int = 0
    env: Dict[str, str] = field(init=False)

    def __post_init__(self):
        self.env = dict(os.environ)
        src = str(self.root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")


# -- known constants ----------------------------------------------------------

EXC_COUNTS = {2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
ROOT_COUNTS = {3: 8, 4: 20, 5: 40, 6: 72, 7: 126, 8: 240}
WEYL_ORDERS = {3: 12, 4: 120, 5: 1920, 6: 51840, 7: 2903040, 8: 696729600}
# The E7 Coxeter diagram on the simple roots of the N = 7 lattice: root 0
# is H - E1 - E2 - E3 and joins root 3; root i is Ei - E(i+1).
E7_EDGES = frozenset({(0, 3)} | {(i, i + 1) for i in range(1, 6)})
FIBER_PAIRS = {5: (1,), 7: (2,), 8: (4,)}
ORDER_CAP = 1000        # random subgroups above this order are redrawn


def parabolic_order(nodes) -> int:
    """|W| of the parabolic subgroup of W(E7) on a proper set of diagram
    nodes: the product over connected components of |W(A_k)| = (k+1)!,
    |W(D_k)| = 2^(k-1) k! or |W(E6)| = 51840."""
    nodes = set(nodes)
    nbrs = {v: {w for e in E7_EDGES if v in e for w in e
                if w != v and w in nodes} for v in nodes}
    order = 1
    while nodes:
        comp, todo = set(), [nodes.pop()]
        while todo:
            v = todo.pop()
            comp.add(v)
            todo += [w for w in nbrs[v] if w not in comp]
        nodes -= comp
        k = len(comp)
        branch = [v for v in comp if len(nbrs[v]) == 3]
        if not branch:
            order *= math.factorial(k + 1)
            continue
        arms = []
        for start in nbrs[branch[0]]:
            prev, cur, length = branch[0], start, 1
            while len(nbrs[cur]) == 2:
                prev, cur = cur, next(w for w in nbrs[cur] if w != prev)
                length += 1
            arms.append(length)
        if sorted(arms)[:2] == [1, 1]:
            order *= 2 ** (k - 1) * math.factorial(k)
        elif sorted(arms) == [1, 2, 2]:
            order *= 51840
        else:
            raise ValueError(f"unexpected diagram component {sorted(comp)}")
    return order


def unit(n: int, i: int) -> CohClass:
    return CohClass(tuple(1 if t == i else 0 for t in range(n + 1)))


# -- independent oracles -------------------------------------------------------

def _b_multisets(n: int, a: int):
    """Non-increasing integer b with sum 3a-1 and square sum a^2+1."""
    out = []

    def rec(prefix, s, q):
        pos = len(prefix)
        if pos == n:
            if s == 0 and q == 0:
                out.append(tuple(prefix))
            return
        top = math.isqrt(q)
        hi = min(prefix[-1], top) if prefix else top
        for b in range(hi, -top - 1, -1):
            rest = n - pos - 1
            s2, q2 = s - b, q - b * b
            if s2 * s2 <= rest * q2 and (rest > 0 or s2 == 0):
                rec(prefix + [b], s2, q2)

    rec([], 3 * a - 1, a * a + 1)
    return out


def _degree_window(n: int, max_degree: Optional[int]):
    """Degrees the program enumerates: Cauchy-Schwarz for N <= 8, else -1.."""
    if n >= 9:
        return range(-1, max_degree + 1)
    feasible = [a for a in range(-3, 30)
                if (3 * a - 1) ** 2 <= n * (a * a + 1)]
    return range(min(feasible), max(feasible) + 1)


def exceptional_count(n: int, max_degree: Optional[int] = None) -> int:
    """Count by multinomials, never listing the permutations."""
    total = 0
    for a in _degree_window(n, max_degree):
        for bs in _b_multisets(n, a):
            ways = math.factorial(n)
            for _, grp in itertools.groupby(bs):
                ways //= math.factorial(len(list(grp)))
            total += ways
    return total


def _distinct_perms(bs):
    if not bs:
        yield ()
        return
    for v in sorted(set(bs)):
        rest = list(bs)
        rest.remove(v)
        for tail in _distinct_perms(rest):
            yield (v,) + tail


def exceptional_classes(n: int) -> List[tuple]:
    """Raw coordinates of every exceptional class, N <= 8, sorted."""
    out = []
    for a in _degree_window(n, None):
        for bs in _b_multisets(n, a):
            out.extend((a,) + tuple(-b for b in p) for p in _distinct_perms(bs))
    return sorted(out)


def obstruction_closed_form(n: int, a_min: int) -> tuple:
    """(a, m) with m = -a^2 K^2 / (2a - 1) > 0: as gcd(a^2, 2a-1) = 1,
    2a - 1 divides K^2 = 9 - N, so only divisors need checking."""
    ksq = 9 - n
    if ksq <= 0:
        return ()
    out = []
    for d in range(3, ksq + 1, 2):
        a = (1 - d) // 2
        if ksq % d == 0 and a >= a_min:
            out.append((a, a * a * ksq // d))
    return tuple(sorted(out))


def slice_threshold(n: int) -> Fraction:
    """The d* with -K + d*F in the cone iff d > d*, for N <= 8.

    The square is (9 - N) + 4d and the area of an exceptional class e is
    1 + d (F.e) with F.e = a - b1 >= 0, so d* is the largest of finitely
    many bounds.
    """
    bounds = [Fraction(n - 9, 4)]
    bounds += [Fraction(-1, c[0] + c[1]) for c in exceptional_classes(n)
               if c[0] + c[1] > 0]
    return max(bounds)


def klein_partitions(n: int):
    """Parity-consistent ordered partitions of the fiber labels 2..N into
    three parts, at most one of them empty."""
    labels = range(2, n + 1)
    want = (n - 1) % 2
    out = []
    for assign in itertools.product((0, 1, 2), repeat=n - 1):
        sets = [tuple(j for j, p in zip(labels, assign) if p == i)
                for i in range(3)]
        if sum(1 for s in sets if not s) <= 1 and \
                all(len(s) % 2 == want for s in sets):
            out.append(sets)
    return out


def klein_eps(n: int, sigma) -> tuple:
    return tuple(1 if j in sigma else -1 for j in range(2, n + 1))


def klein_matrix(n: int, sigma) -> list:
    """Rows of the base-trivial involution preserving exactly the fibers in
    sigma: Ej -> Ej there, Ej -> F - Ej elsewhere, and E1 from F, K fixed."""
    f = [1, -1] + [0] * (n - 1)
    cols = {}
    total = [0] * (n + 1)
    for j, e in zip(range(2, n + 1), klein_eps(n, sigma)):
        col = [0] * (n + 1)
        col[j] = 1
        if e == -1:
            col = [x - y for x, y in zip(f, col)]
        cols[j] = col
        total = [x + y for x, y in zip(total, col)]
    k = [-3] + [1] * n
    e1 = [(t - kk - 3 * ff) // 2 for t, kk, ff in zip(total, k, f)]
    h = [x + y for x, y in zip(f, e1)]
    columns = [h, e1] + [cols[j] for j in range(2, n + 1)]
    return [[columns[c][r] for c in range(n + 1)] for r in range(n + 1)]


def section_coords(n: int, c: int, marks) -> tuple:
    coords = [0] * (n + 1)
    coords[0], coords[1] = c, 1 - c
    for t in marks:
        coords[t] += 1
    return tuple(coords)


def _random_fraction(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo * 10, hi * 10), 10)


# -- groups ---------------------------------------------------------------------

def word_product(refl, word) -> Isometry:
    g = refl[word[0]]
    for i in word[1:]:
        g = matmul(g, refl[i])
    return g


def _certify(group, gens, expected: Optional[int]) -> int:
    """Check a closed group against its chain order and trace identity."""
    chain = weyl.group_order_via_chain(gens)
    rank, _ = weyl.invariant_lattice(group)
    total, holds = weyl.trace_sum_condition(group)
    expect(group.order == chain, f"closure {group.order} != chain {chain}")
    if expected is not None:
        expect(group.order == expected, f"order {group.order} != {expected}")
    traces = int(group.trace_vector().sum())
    expect(group.order * rank == traces, "|G|*rank != trace total")
    expect(total == group.order * (rank - 1) and holds == (rank == 1),
           "trace sum condition")
    return rank


def _close_words(n: int, words, expected: Optional[int]):
    def run(ctx):
        refl = weyl.simple_reflections(n)
        gens = [word_product(refl, w) for w in words]
        _certify(weyl.generate_group(gens), gens, expected)
    return run


def _close_parabolic(nodes):
    order = parabolic_order(nodes)

    def run(ctx):
        refl = weyl.simple_reflections(7)
        gens = [refl[i] for i in nodes]
        rank = _certify(weyl.generate_group(gens), gens, order)
        expect(rank == 8 - len(nodes), f"parabolic fixed rank {rank}")
    return run


def _chain(n: int):
    def run(ctx):
        order = weyl.group_order_via_chain(weyl.simple_reflections(n))
        expect(order == WEYL_ORDERS[n], f"W(E{n}) chain order {order}")
    return run


def random_words(rng: random.Random, n: int, cap: int):
    """Words in the simple reflections generating a group of order 2..cap."""
    refl = weyl.simple_reflections(n)
    while True:
        words = [[rng.randrange(n) for _ in range(rng.randint(1, 8))]
                 for _ in range(rng.randint(1, 3))]
        gens = [word_product(refl, w) for w in words]
        if all(g.is_identity() for g in gens):
            continue
        try:
            weyl.generate_group(gens, limit=cap)
        except LimitExceeded:
            continue
        return words


def groups_ops(rng: random.Random, ctx: Context) -> List[Op]:
    ops = [Op("weyl_group", _close_words(n, [[i] for i in range(n)],
                                         WEYL_ORDERS[n])) for n in range(3, 7)]
    # the parabolic subgroups of W(E7) of rank 3 to 6
    ops += [Op("parabolic", _close_parabolic(nodes))
            for r in (6, 5, 4, 3) for nodes in itertools.combinations(range(7), r)]
    ops += [Op("chain", _chain(n)) for n in (7, 8)]
    for n in range(3, 8):
        for _ in range(10):
            ops.append(Op("random_subgroup",
                          _close_words(n, random_words(rng, n, ORDER_CAP), None)))
    return ops


# -- classify -------------------------------------------------------------------

def _classify(n: int, sets, model):
    want = sorted(tuple(sorted(s)) for s in sets)

    def run(ctx):
        pi = tuple(range(2, n + 1))
        taus = [gconic.matrix_from_fiber_action(pi, klein_eps(n, s), n)
                for s in sets]
        expect(matmul(taus[0], taus[1]).key() == taus[2].key(),
               "Klein relation")
        group = weyl.generate_group(taus)
        expect(group.order == 4, f"Klein group order {group.order}")
        dec = gconic.decompose(list(group), model, 1)
        expect(dec.case_tag == gconic.CASE_KLEIN and dec.minimal,
               f"tagged {dec.case_tag}")
        expect(len(dec.q_elements) * len(dec.p_structure) == group.order,
               "|Q|*|P| != |G|")
        expect(sorted(dec.sigma_sets) == want, "sigma sets")
        expect(dec.sigma_sizes is not None and
               sorted(dec.sigma_sizes) == sorted(len(s) for s in sets),
               "sigma sizes")
        expect(dec.parity_ok is True, "parity flag")
    return run


def _section_pair(n: int, a, b, model):
    ea, eb = CohClass(section_coords(n, *a)), CohClass(section_coords(n, *b))
    r = sum(1 for t in range(2, n + 1) if (t in a[1]) == (t in b[1]))

    def run(ctx):
        res = gconic.section_identity(ea, eb, model)
        expect(res.holds and res.r == r, "section identity")
    return run


def _q_invariance(n: int, sets, model, model2):
    def run(ctx):
        pi = tuple(range(2, n + 1))
        group = [Isometry.identity(n)] + [
            gconic.matrix_from_fiber_action(pi, klein_eps(n, s), n)
            for s in sets]
        expect(gconic.q_invariance_check(model, model2, group) is True,
               "Q changed under relabelling")
    return run


def _relabelled(rng: random.Random, model):
    if rng.random() < 0.2:
        return gconic.ConicBundleModel(model.n_blowups,
                                       tuple(reversed(model.sphere_classes)))
    f = model.fiber
    spheres = tuple(f - e if rng.random() < 0.5 else e
                    for e in model.sphere_classes)
    return gconic.ConicBundleModel(model.n_blowups, spheres)


def classify_ops(rng: random.Random, ctx: Context) -> List[Op]:
    """Every Klein partition up to N = 6 and seeded ones above; a round
    stays near two seconds, so that each op repeats often in a run."""
    models = {n: gconic.ConicBundleModel(n) for n in range(4, 10)}
    ops = []
    for n, count in ((4, None), (5, None), (6, None), (7, 60), (8, 60),
                     (9, 20)):
        parts = klein_partitions(n)
        if count is not None:
            parts = rng.sample(parts, count)
        ops += [Op("classify", _classify(n, sets, models[n])) for sets in parts]
    for n in range(5, 9):
        parts = klein_partitions(n)
        for _ in range(10):
            ops.append(Op("q_invariance", _q_invariance(
                n, rng.choice(parts), models[n], _relabelled(rng, models[n]))))
    for n in range(5, 10):
        forms = [(c, marks) for c in range(-2, 3)
                 for r in range(n) for marks in
                 itertools.combinations(range(2, n + 1), r)]
        for _ in range(2000):
            a, b = rng.sample(forms, 2)
            ops.append(Op("section_pair", _section_pair(n, a, b, models[n])))
    return ops


# -- sweep ----------------------------------------------------------------------

def _enumerate(n: int, max_degree: Optional[int], want):
    def run(ctx):
        if max_degree is None:
            exc = exceptional.enumerate_exceptional(n)
            expect(exc.complete, "enumeration flagged partial")
            expect([c.coords for c in exc] == want, f"classes at N={n}")
        else:
            exc = exceptional.enumerate_exceptional(n, max_degree)
            expect(not exc.complete, "capped enumeration flagged complete")
            expect(len(exc) == want, f"count {len(exc)} != {want} at N={n}")
    return run


def _reduce(coords):
    e = CohClass(coords)

    def run(ctx):
        trace = exceptional.reduce_exceptional(e)
        degs = trace.degrees()
        expect(trace.start == e, "trace start")
        expect(all(b < a for a, b in zip(degs, degs[1:])),
               "degree did not strictly decrease")
        expect(trace.final == unit(e.n, trace.final_index),
               "descent did not end at E_l")
    return run


def cone_query(rng: random.Random, n: int, inside: bool):
    """A class with a known answer: inside (a reduced class of positive
    square, then shuffled) or outside (area of H-E1-E2 or of some Ei <= 0)."""
    lam = sorted((_random_fraction(rng, 1, 6) + Fraction(1, 10)
                  for _ in range(n)), reverse=True)
    nu = lam[0] + lam[1] + lam[2] + _random_fraction(rng, 0, 3)
    nu = max(nu, Fraction(math.isqrt(math.ceil(sum(x * x for x in lam))) + 1))
    if not inside:
        if rng.random() < 0.5:
            nu = lam[0] + lam[1] - _random_fraction(rng, 0, 1)
        else:
            lam[rng.randrange(n)] = -_random_fraction(rng, 0, 2)
    rng.shuffle(lam)
    return SymplecticClass((nu,) + tuple(lam)), inside


def _membership(w, inside):
    want = cone.OUTSIDE if not inside else \
        (cone.FULL if w.n <= 8 else cone.PARTIAL_POSITIVE)

    def run(ctx):
        got = cone.is_in_cone(w)
        expect(got == want, f"membership {got} != {want}")
    return run


def _slice(n: int, grid):
    threshold = slice_threshold(n)

    def run(ctx):
        sl = cone.slice_scan(n, gconic.fiber_class(n), canonical_class(n), grid)
        flags = [m for _, m in sl.samples]
        expect(all(f2 or not f1 for f1, f2 in zip(flags, flags[1:])),
               "slice not monotone")
        expect(all(m == (d > threshold) for d, m in sl.samples),
               f"slice threshold at N={n}")
    return run


def _obstruction(n: int, a_min: int):
    want = obstruction_closed_form(n, a_min)

    def run(ctx):
        got = tuple(sorted(cone.blowdown_obstruction(n, a_min)))
        expect(got == want, f"obstructions {got} != {want} at N={n}")
    return run


def hexagon_params(rng: random.Random):
    """(kind, n, k, s, order) with a closed-form order."""
    kind = rng.choice((hexagon.KIND_GN, hexagon.KIND_GTN,
                       hexagon.KIND_GNKS, hexagon.KIND_GTN32))
    if kind == hexagon.KIND_GN:
        n = rng.randint(10, 16)
        return kind, n, None, None, 3 * n * n
    if kind == hexagon.KIND_GTN:
        n = rng.randint(7, 11)
        return kind, n, None, None, 6 * n * n
    if kind == hexagon.KIND_GTN32:
        n = rng.choice((12, 15))
        return kind, n, None, None, 2 * n * n
    n, k, s = rng.choice(gnks_params(range(15, 22)))
    return kind, n, k, s, 3 * n * n // k


def gnks_params(ns):
    return [(n, k, s) for n in ns for k in range(2, n + 1) if n % k == 0
            for s in range(n) if (s * s - s + 1) % k == 0]


def _imprimitive(kind, n, k, s, order):
    def run(ctx):
        got = hexagon.make_imprimitive(kind, n, k, s).order
        expect(got == order, f"{kind} order {got} != {order}")
    return run


def _presentation(n, k, s):
    def run(ctx):
        expect(hexagon.presentation_check(n, k, s) is True,
               f"presentation at {(n, k, s)}")
    return run


def _g2_action(n, k, b):
    def run(ctx):
        expect(hexagon.g2_action_check(n, k, b) is True,
               f"rotation action at {(n, k, b)}")
    return run


def sweep_ops(rng: random.Random, ctx: Context) -> List[Op]:
    classes = {n: exceptional_classes(n) for n in range(2, 9)}
    ops = [Op("enumerate", _enumerate(n, None, classes[n])) for n in range(2, 9)]
    ops.append(Op("enumerate", _enumerate(9, 5, exceptional_count(9, 5))))
    for n in range(3, 9):
        ops += [Op("reduce", _reduce(c)) for c in classes[n]]
    # A fixed share of inside queries at each N: at N = 9 an inside query
    # costs a hundred times an outside one.
    for n in range(3, 10):
        for inside in (True,) * 6 + (False,) * 4 if n <= 8 else (True, True, False, False):
            ops.append(Op("membership", _membership(*cone_query(rng, n, inside))))
    for n in range(3, 9):
        grid = sorted(Fraction(d, 10) for d in rng.sample(range(-20, 21), 12))
        ops.append(Op("slice", _slice(n, grid)))
    for n in range(2, 11):
        ops.append(Op("obstruction",
                      _obstruction(n, -rng.randint(199_000, 201_000))))
    for _ in range(6):
        ops.append(Op("imprimitive", _imprimitive(*hexagon_params(rng))))
    pres = gnks_params(range(2, 25))
    rot = [(n, k, b) for n in range(1, 25) for k in range(1, n + 1)
           if n % k == 0 for b in range(n) if (b * b + b + 1) % k == 0]
    ops += [Op("presentation", _presentation(*rng.choice(pres)))
            for _ in range(6)]
    ops += [Op("g2_action", _g2_action(*rng.choice(rot))) for _ in range(6)]
    return ops


# -- cli ------------------------------------------------------------------------

CHILD_TIMEOUT_S = 60


def run_cli(ctx: Context, argv: List[str]) -> str:
    """One gsurf command in a child process; returns its stdout.

    The child's peak RSS is read with wait4.  In a traced round the child
    runs through cli_child.py, which records its own spans for adoption.
    """
    spans_path = None
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "gsurf"] + argv
    else:
        spans_path = ctx.tmp / "child_spans.json"
        cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
               str(spans_path)] + argv
    err_path = ctx.tmp / "child_stderr.txt"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=ctx.env, cwd=ctx.root)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            watchdog.join()
    ctx.child_peak_kb = max(ctx.child_peak_kb, usage.ru_maxrss)
    ctx.report_bytes += len(out)
    if proc.returncode != 0:
        raise CheckFailed(f"gsurf {' '.join(argv)} exited {proc.returncode}:"
                          f" {err_path.read_text(errors='replace')[-500:]}")
    if spans_path is not None:
        ctx.tracer.adopt(spans.load(str(spans_path)))
    return out.decode()


def cli_report(ctx: Context, argv: List[str]) -> dict:
    """Run a report command; check it is canonical sorted-key JSON."""
    text = run_cli(ctx, argv)
    report = json.loads(text)
    canon = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    expect(text == canon, "report is not sorted-key compact JSON")
    return report["results"]


def cli_exc(n: int):
    def run(ctx):
        res = cli_report(ctx, ["exc", "--n", str(n), "--json"])
        expect(res["count"] == EXC_COUNTS[n] and res["complete"] is True,
               f"exc count {res['count']} at N={n}")
    return run


def cli_reduce(coords):
    def run(ctx):
        res = cli_report(ctx, ["reduce", "--class", json.dumps(list(coords)),
                               "--json"])
        degs = res["degrees"]
        expect(all(b < a for a, b in zip(degs, degs[1:])) and degs[-1] == 0,
               "reduce degrees")
        expect(res["final"] == list(unit(len(coords) - 1,
                                         res["final_index"]).coords),
               "reduce did not end at E_l")
    return run


def cli_weyl(n: int, chain: bool, order_only: bool):
    argv = ["weyl", "--n", str(n)] + (["--chain"] if chain else []) + \
        (["--order-only"] if order_only else [])

    def run(ctx):
        res = cli_report(ctx, argv)
        expect(res["order"] == WEYL_ORDERS[n], f"weyl order at N={n}")
        expect(res["n_roots"] == ROOT_COUNTS[n], f"root count at N={n}")
    return run


def write_gens(ctx: Context, name: str, mats) -> str:
    path = ctx.tmp / name
    path.write_text(json.dumps([[list(r) for r in m] for m in mats]))
    return str(path)


def cli_invariants(path: str, order: int):
    def run(ctx):
        res = cli_report(ctx, ["invariants", "--gens", path])
        rank = res["rank"]
        expect(res["order"] == order, f"invariants order {res['order']}")
        expect(len(res["basis"]) == rank, "basis size != rank")
        expect(res["trace_sum"] == order * (rank - 1) and
               res["holds"] == (rank == 1), "trace sum condition")
    return run


def cli_conic(path: str, sets):
    def run(ctx):
        res = cli_report(ctx, ["conic", "--gens", path, "--g0", "1"])
        expect(res["case"] == gconic.CASE_KLEIN and res["minimal"] is True,
               f"conic case {res['case']}")
        expect(res["Q_order"] * res["P_order"] == 4, "|Q|*|P| != |G|")
        expect(sorted(res["sigma_sizes"]) == sorted(len(s) for s in sets),
               "sigma sizes")
        expect(res["parity_ok"] is True, "parity flag")
    return run


def cli_cone(n: int, scan: str, a_min: int):
    threshold = slice_threshold(n)

    def run(ctx):
        res = cli_report(ctx, ["cone", "--n", str(n), f"--scan={scan}",
                               f"--a-min={a_min}"])
        expect(tuple(res["fiber_pairs"]) == FIBER_PAIRS.get(n, ()),
               "fiber pairs")
        expect(tuple(map(tuple, res["obstructions"])) ==
               obstruction_closed_form(n, a_min), "obstructions")
        samples = res["slice"]["samples"]
        expect(len(samples) == len(scan.split(",")), "slice sample count")
        expect(all(m == (Fraction(str(d)) > threshold) for d, m in samples),
               f"slice threshold at N={n}")
    return run


def cli_hexagon(kind, n, k, s, order):
    argv = ["hexagon", "--kind", kind, "--n", str(n), "--verify"]
    if k is not None:
        argv += ["--k", str(k), "--s", str(s)]

    def run(ctx):
        res = cli_report(ctx, argv)
        expect(res["order"] == order, f"hexagon order {res['order']}")
        expect(res["relations_ok"] is True, "hexagon relations")
    return run


def cli_schema(ctx):
    schema = json.loads(run_cli(ctx, ["schema"]))
    expect(set(spans.CLI_SUBCOMMANDS) <= set(schema["subcommands"]),
           "schema lacks a subcommand")


def cli_ops(rng: random.Random, ctx: Context) -> List[Op]:
    """Three commands per subcommand.  The closure of W(E6) and the chain
    of W(E8) are in every round, so the largest child is the same for every
    seed; the other arguments are drawn from the seed."""
    ops = [Op("cli.exc", cli_exc(rng.randint(5, 8))) for _ in range(3)]
    for _ in range(3):
        n = rng.randint(6, 8)
        cls = [c for c in exceptional_classes(n) if c[0] >= 1]
        ops.append(Op("cli.reduce", cli_reduce(rng.choice(cls))))
    chain = rng.random() < 0.5
    for n, by_chain in ((6, False), (8, True),
                        (rng.randint(3, 7 if chain else 5), chain)):
        ops.append(Op("cli.weyl", cli_weyl(n, by_chain, rng.random() < 0.5)))
    for i in range(3):
        n = rng.randint(5, 7)
        refl = weyl.simple_reflections(n)
        gens = [word_product(refl, w)
                for w in random_words(rng, n, ORDER_CAP)]
        order = weyl.group_order_via_chain(gens)
        path = write_gens(ctx, f"invariants_{i}.json", [g.mat for g in gens])
        ops.append(Op("cli.invariants", cli_invariants(path, order)))
    for i in range(3):
        n = rng.randint(6, 8)
        sets = rng.choice(klein_partitions(n))
        path = write_gens(ctx, f"conic_{i}.json",
                          [klein_matrix(n, s) for s in sets])
        ops.append(Op("cli.conic", cli_conic(path, sets)))
    for _ in range(3):
        grid = sorted({Fraction(rng.randint(-20, 20), 10) for _ in range(6)})
        ops.append(Op("cli.cone", cli_cone(
            rng.randint(5, 8), ",".join(str(d) for d in grid),
            -rng.randint(1000, 20000))))
    ops += [Op("cli.hexagon", cli_hexagon(*hexagon_params(rng)))
            for _ in range(3)]
    ops += [Op("cli.schema", cli_schema) for _ in range(3)]
    return ops


WORKLOADS = {
    "groups": groups_ops,
    "classify": classify_ops,
    "sweep": sweep_ops,
    "cli": cli_ops,
}


def build(name: str, seed: int, ctx: Context) -> List[Op]:
    """Generate the workload's inputs from the seed; the same seed gives the
    same ops."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), ctx)


# -- the layer probe ----------------------------------------------------------

def probe_ops(ctx: Context) -> Dict[str, Op]:
    """One minimal, checked call per traced layer and per CLI subcommand,
    keyed by the metric prefix it feeds.  A traced run calls the probe for
    each layer its workload does not reach, so that every layer metric is
    measured in every workload."""
    n = 3
    s1 = weyl.simple_reflections(n)[0]
    swap5 = gconic.matrix_from_fiber_action((2, 3, 4, 5), (-1,) * 4, 5)
    model5 = gconic.ConicBundleModel(5)
    inv_path = write_gens(ctx, "probe_invariants.json", [s1.mat])
    sets = klein_partitions(4)[0]
    conic_path = write_gens(ctx, "probe_conic.json",
                            [klein_matrix(4, s) for s in sets])

    def gen(ctx):
        expect(weyl.generate_group([s1]).order == 2, "probe closure")

    def chain(ctx):
        expect(weyl.group_order_via_chain(weyl.simple_reflections(n)) ==
               WEYL_ORDERS[n], "probe chain")

    def inv(ctx):
        expect(weyl.invariant_lattice([s1])[0] == n, "probe invariant rank")

    def trace(ctx):
        group = weyl.generate_group([s1])
        expect(weyl.trace_sum_condition(group) == (2 * (n - 1), False),
               "probe trace sum")

    def mul(ctx):
        expect(matmul(s1, s1).is_identity(), "probe product")

    def fiber(ctx):
        m = gconic.matrix_from_fiber_action((2, 3, 4, 5), (-1,) * 4, 5)
        expect(m.key() == swap5.key(), "probe fiber action")

    def dec(ctx):
        d = gconic.decompose([Isometry.identity(5), swap5], model5, 1)
        expect(d.case_tag == gconic.CASE_INVOLUTION, "probe decompose")

    def qinv(ctx):
        rev = gconic.ConicBundleModel(5, tuple(reversed(model5.sphere_classes)))
        expect(gconic.q_invariance_check(model5, rev,
                                         [Isometry.identity(5), swap5]),
               "probe Q invariance")

    def enum(ctx):
        clear_caches()
        expect(len(exceptional.enumerate_exceptional(n)) == EXC_COUNTS[n],
               "probe enumeration")

    def member(ctx):
        got = cone.is_in_cone(SymplecticClass((3, 1, 1, 1)))
        expect(got == cone.FULL, "probe membership")

    def sl(ctx):
        got = cone.slice_scan(n, gconic.fiber_class(n), canonical_class(n), [0])
        expect(got.samples == ((0, True),), "probe slice")

    return {
        "weyl.generate_group": Op("probe", gen),
        "weyl.group_order_via_chain": Op("probe", chain),
        "weyl.invariant_lattice": Op("probe", inv),
        "weyl.trace_sum_condition": Op("probe", trace),
        "lattice.Isometry.matmul": Op("probe", mul),
        "gconic.matrix_from_fiber_action": Op("probe", fiber),
        "gconic.decompose": Op("probe", dec),
        "gconic.q_invariance_check": Op("probe", qinv),
        "gconic.section_identity": Op("probe", _section_pair(
            5, (0, ()), (1, (2, 3)), model5)),
        "exceptional.enumerate_exceptional": Op("probe", enum),
        "exceptional.reduce_exceptional": Op("probe", _reduce((1, -1, -1, 0))),
        "cone.is_in_cone": Op("probe", member),
        "cone.slice_scan": Op("probe", sl),
        "cone.blowdown_obstruction": Op("probe", _obstruction(6, -10)),
        "hexagon.make_imprimitive": Op("probe", _imprimitive(
            hexagon.KIND_GN, 2, None, None, 12)),
        "hexagon.presentation_check": Op("probe", _presentation(5, 1, 0)),
        "hexagon.g2_action_check": Op("probe", _g2_action(1, 1, 0)),
        "cli.exc": Op("cli.exc", cli_exc(3)),
        "cli.reduce": Op("cli.reduce", cli_reduce((1, -1, -1, 0))),
        "cli.weyl": Op("cli.weyl", cli_weyl(3, False, True)),
        "cli.invariants": Op("cli.invariants", cli_invariants(inv_path, 2)),
        "cli.conic": Op("cli.conic", cli_conic(conic_path, sets)),
        "cli.cone": Op("cli.cone", cli_cone(5, "0", -10)),
        "cli.hexagon": Op("cli.hexagon", cli_hexagon(
            hexagon.KIND_GN, 2, None, None, 12)),
        "cli.schema": Op("cli.schema", cli_schema),
    }
