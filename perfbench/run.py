"""gsurf benchmark runner.

    python3 perfbench/run.py --workload groups --seed 1 --seconds 25 --trace 0

Runs one workload as a closed loop (one caller, at most one child process
at a time) from the root of a source checkout; gsurf is imported from
``src``.  The workload's ops are generated from the seed once, then run
in whole rounds until the time is used up (at least MIN_ROUNDS rounds).
Every op's result is checked.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Every op is timed on its own, and its time is the median of its runs;
the round-level figures add up the ops' medians.  A shared host slows
everything by up to 80% for a minute at a time, so a fixed reference
kernel (reference.py) runs between ops, and each op run is scaled by the
kernel's speed in the runs around it.  The end-to-end timings read as
time on a machine where the kernel takes its nominal time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import spans
from reference import Reference

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("groups", "classify", "sweep", "cli")
SETUP_REPEATS = 7
MIN_ROUNDS = 3
TAIL_BEYOND = 10
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Op time between two runs of the reference kernel, in process and as a
# fresh interpreter (for the cli workload, whose ops start processes).
REF_EVERY_S = 0.08
REF_CHILD_EVERY_S = 0.5

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def tail(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, sample count); the value is the sample with
    exactly ``beyond`` samples ranked above it.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"{n} samples leave none with {beyond} beyond it")
    return sorted(samples)[n - beyond - 1], 100.0 * (n - beyond) / n, n


def _cpu_s() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Tally:
    """Counts ops and keeps the wall and CPU times of each op's passing
    runs, with the reference kernel's position at each run.  The runs are
    kept in flat arrays, so that they add little to the peak memory that
    peak_rss_mb reports."""

    def __init__(self, log=sys.stderr, max_logged: int = 5,
                 ref: Optional[Reference] = None):
        self.attempted = 0
        self.failed = 0
        self._op = array("l")
        self._wall = array("d")
        self._cpu = array("d")
        self._pos = array("l")
        self.kinds: Dict[int, str] = {}
        self.ref = ref
        self._log = log
        self._max_logged = max_logged

    def record(self, i: int, kind: str, wall: float, cpu: float, pos: int) -> None:
        """One passing run of op ``i``."""
        self._op.append(i)
        self._wall.append(wall)
        self._cpu.append(cpu)
        self._pos.append(pos)
        self.kinds[i] = kind

    def run(self, i: int, op, ctx) -> bool:
        self.attempted += 1
        pos = self.ref.pos if self.ref else 0
        c0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            op.run(ctx)
        except Exception:  # a failed op is counted and the run goes on
            self.failed += 1
            if self.failed <= self._max_logged:
                print(f"op {i} ({op.kind}) failed:\n{traceback.format_exc()}",
                      file=self._log)
            return False
        finally:
            elapsed = time.perf_counter() - t0
            cpu = _cpu_s() - c0
            if self.ref:
                self.ref.after_op(elapsed)
        self.record(i, op.kind, elapsed, cpu, pos)
        return True

    def add_counts(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed

    def _per_op(self, values, scaled: bool) -> List[float]:
        """Each op's median over its passing runs, in op order, each run
        scaled by the reference kernel's speed around it."""
        runs: Dict[int, List[float]] = {}
        scale = self.ref.scale_at if scaled and self.ref else (lambda pos: 1.0)
        for i, v, pos in zip(self._op, values, self._pos):
            runs.setdefault(i, []).append(v * scale(pos))
        return [statistics.median(v) for _, v in sorted(runs.items())]

    def op_latencies(self, scaled: bool = True) -> List[float]:
        return self._per_op(self._wall, scaled)

    def op_cpu(self, scaled: bool = True) -> List[float]:
        return self._per_op(self._cpu, scaled)

    def by_kind(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        for i, lat in zip(sorted(self.kinds), self.op_latencies()):
            out.setdefault(self.kinds[i], []).append(lat)
        return out

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Round:
    traced: bool
    wall: float


def run_round(ops, ctx, tally: Tally, clear_caches, traced: bool = False) -> Round:
    """Run every op once, starting from empty program caches."""
    clear_caches()
    t0 = time.perf_counter()
    tracer = ctx.tracer
    for i, op in enumerate(ops):
        if tracer is None:
            tally.run(i, op, ctx)
        else:
            tracer.op = i
            with tracer.span(f"op.{op.kind}"):
                tally.run(i, op, ctx)
    return Round(traced, time.perf_counter() - t0)


def _layer_values(tracer, tally: Tally, report_bytes: int) -> Dict[str, float]:
    values = {k: v for k, (v, _) in
              spans.layer_values(spans.summarise(tracer.spans)).items()}
    kinds = tally.by_kind()
    for sub in spans.CLI_SUBCOMMANDS:
        lat = kinds.get(f"cli.{sub}")
        if lat:
            values[f"cli.{sub}.p50_ms"] = statistics.median(lat) * 1e3
    if report_bytes:
        values["cli.report_bytes"] = report_bytes
    return values


def _traced(ctx, workloads, body):
    """Run body(tally) with the layers wrapped in spans; returns (body's
    result, the layer values it produced, its tally)."""
    ctx.tracer = spans.Tracer()
    tally = Tally()
    bytes0 = ctx.report_bytes
    try:
        with spans.patched(ctx.tracer, spans.GSURF_TARGETS +
                           (workloads.MATMUL_TARGET,)):
            result = body(tally)
        values = _layer_values(ctx.tracer, tally, ctx.report_bytes - bytes0)
    finally:
        ctx.tracer = None
    return result, values, tally


def measure(ops, ctx, seconds: float, traced: bool, workloads,
            between_rounds=lambda: None, ref: Optional[Reference] = None):
    """Whole rounds until ``seconds`` are used; a traced run alternates an
    untraced and a traced round.  Returns (rounds, tally of the untraced
    rounds, layer values of each traced round)."""
    tally = Tally(ref=ref)
    rounds: List[Round] = []
    layer_rounds: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while True:
        if traced and len(rounds) % 2 == 1:
            rnd, values, round_tally = _traced(ctx, workloads, lambda t: run_round(
                ops, ctx, t, workloads.clear_caches, traced=True))
            layer_rounds.append(values)
            tally.add_counts(round_tally)
        else:
            rnd = run_round(ops, ctx, tally, workloads.clear_caches)
        rounds.append(rnd)
        between_rounds()
        typical = statistics.median(r.wall for r in rounds)
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() + typical > deadline:
            return rounds, tally, layer_rounds


def probe_missing(values: Dict[str, float], ctx, tally: Tally, workloads) -> None:
    """Measure each layer the workload's rounds did not reach by one probe
    call, so that every per-layer metric has a value in every workload."""
    wanted = {name.rsplit(".", 1)[0] for name, _ in spans.per_layer_names()
              if name not in values}
    if "cli" in wanted:
        wanted |= {f"cli.{sub}" for sub in spans.CLI_SUBCOMMANDS}
    probes = workloads.probe_ops(ctx)
    keys = sorted(wanted & set(probes))

    def body(probe_tally):
        for i, key in enumerate(keys):
            with ctx.tracer.span(f"op.probe.{key}"):
                probe_tally.run(i, probes[key], ctx)

    _, found, probe_tally = _traced(ctx, workloads, body)
    for k, v in found.items():
        values.setdefault(k, v)
    tally.add_counts(probe_tally)


class SetupTimer:
    """Times fresh processes that import gsurf, generate the workload's
    inputs and exit.  The samples are spread over the run, one between
    rounds, so that they do not all meet the same spell of interference;
    each is followed by a reference kernel run and scaled like an op."""

    def __init__(self, workload: str, seed: int, ref: Reference):
        self.cmd = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload, "--seed", str(seed), "--setup-only"]
        self.ref = ref
        self.times: List[Tuple[float, int]] = []

    def sample(self) -> None:
        """One set-up between two runs of the fresh-interpreter kernel."""
        if len(self.times) < SETUP_REPEATS:
            self.ref.sample()
            pos = self.ref.pos
            t0 = time.perf_counter()
            subprocess.run(self.cmd, stdout=subprocess.DEVNULL, check=True,
                           timeout=120)
            self.times.append((time.perf_counter() - t0, pos))
            self.ref.sample()

    def median(self, scaled: bool = True) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.sample()
        return statistics.median(
            t * (self.ref.scale_at(pos, window=1) if scaled else 1.0)
            for t, pos in self.times)


def end_to_end_metrics(workload: str, tally: Tally, ctx, setup: SetupTimer,
                       scaled: bool = True) -> Dict[str, float]:
    """Op times are each op's median run; wall_s and cpu_s add them up over
    the ops of a round.  Scaled by the reference kernel unless ``scaled``
    is false."""
    if workload == "cli":
        peak_kb = ctx.child_peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat = tally.op_latencies(scaled)
    wall = sum(lat)
    return {
        "setup_s": setup.median(scaled),
        "wall_s": wall,
        "ops_per_s": len(lat) / wall,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail(lat)[0] * 1e3,
        "cpu_s": sum(tally.op_cpu(scaled)),
        "peak_rss_mb": peak_kb / 1024,
    }


def layer_metrics(rounds: List[Round], layer_rounds, ctx, tally: Tally,
                  workloads) -> Dict[str, float]:
    names = {k for r in layer_rounds for k in r}
    values = {k: statistics.median(r[k] for r in layer_rounds if k in r)
              for k in names}
    probe_missing(values, ctx, tally, workloads)
    plain = min(r.wall for r in rounds if not r.traced)
    traced = min(r.wall for r in rounds if r.traced)
    values["bench.trace_overhead_frac"] = traced / plain - 1
    return values


def git_revision() -> Optional[str]:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gsurf" / "__init__.py").is_file():
        print(f"error: no gsurf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import workloads

    tmp_parent = ROOT / ".perfbench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_parent))
    try:
        ctx = workloads.Context(ROOT, tmp)
        ops = workloads.build(args.workload, args.seed, ctx)
        if args.setup_only:
            return 0
        ref = setup = None
        if not args.trace:
            ref = (Reference(numpy, REF_CHILD_EVERY_S, child=True)
                   if args.workload == "cli" else Reference(numpy, REF_EVERY_S))
            setup = SetupTimer(args.workload, args.seed,
                               Reference(numpy, 0, child=True))
        rounds, tally, layer_rounds = measure(
            ops, ctx, args.seconds, bool(args.trace), workloads,
            setup.sample if setup else (lambda: None), ref)
        timing = {}
        if args.trace:
            values = layer_metrics(rounds, layer_rounds, ctx, tally, workloads)
            units = spans.per_layer_names()
        else:
            values = end_to_end_metrics(args.workload, tally, ctx, setup)
            units = END_TO_END
            timing = {"ref_median_s": ref.median_s(),
                      "ref_fastest_s": min(ref.samples),
                      "ref_runs": len(ref.samples),
                      "setup_ref_median_s": setup.ref.median_s(),
                      "unscaled": end_to_end_metrics(args.workload, tally,
                                                     ctx, setup, False)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass

    _, pct, count = tail(tally.op_latencies())
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "ops_per_round": len(ops),
        "fail_frac": tally.fail_frac,
        "op_tail_percentile": pct, "op_tail_samples": count,
        "op_p50_ms_by_kind": {k: statistics.median(v) * 1e3
                              for k, v in sorted(tally.by_kind().items())},
        "round_walls_s": [r.wall for r in rounds],
        **timing,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_revision": git_revision(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(f"fail_frac {tally.fail_frac} ({tally.failed}/{tally.attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
