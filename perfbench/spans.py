"""In-memory spans for the traced benchmark run.

A span records its name, start, end, the span that caused it and the op it
belongs to.  Spans stay in a list until the run ends and are summarised
once.  The spans wrap calls into gsurf's modules from the outside: the
wrappers replace module attributes for the length of a traced round and
restore them afterwards, so the untraced rounds run the program unchanged.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from importlib import import_module
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1    # index of the enclosing span, -1 at top level
    op: int = -1        # id of the op that caused the span, -1 outside ops
    work: int = 0       # items produced: elements, classes, steps, pairs
    flag: bool = False  # a yes/no outcome, e.g. "inside the cone"


class Tracer:
    """Collects spans from one thread; the clock is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: List[Span] = []
        self.op = -1
        self._stack: List[int] = []
        self._clock = clock

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self._clock(), parent=parent, op=self.op))
        self._stack.append(idx)
        return idx

    def close(self, idx: int, work: int = 0, flag: bool = False) -> None:
        span = self.spans[idx]
        span.end = self._clock()
        span.work, span.flag = work, flag
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn: Callable, measure: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            idx = self.open(name)
            work, flag = 0, False
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    work, flag = measure(args, result)
                return result
            finally:
                self.close(idx, work, flag)
        return traced

    def adopt(self, spans: Iterable[Span]) -> None:
        """Append spans recorded by a child process under the open span."""
        base = len(self.spans)
        top = self._stack[-1] if self._stack else -1
        for s in spans:
            self.spans.append(Span(s.name, s.start, s.end,
                                   top if s.parent < 0 else base + s.parent,
                                   self.op, s.work, s.flag))


def dump(spans: Sequence[Span], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([asdict(s) for s in spans], fh)


def load(path: str) -> List[Span]:
    with open(path, "r", encoding="utf-8") as fh:
        return [Span(**d) for d in json.load(fh)]


# -- the layer boundaries that are traced -------------------------------------

def _count(key: str) -> Callable:
    return lambda args, res: (getattr(res, key), False)


# (span name, module, attribute, measure(args, result) -> (work, flag))
GSURF_TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("weyl.generate_group", "gsurf.weyl", "generate_group", _count("order")),
    ("weyl.group_order_via_chain", "gsurf.weyl", "group_order_via_chain", None),
    ("weyl.invariant_lattice", "gsurf.weyl", "invariant_lattice", None),
    ("weyl.trace_sum_condition", "gsurf.weyl", "trace_sum_condition", None),
    ("gconic.decompose", "gsurf.gconic", "decompose",
     lambda args, res: (len(args[0]), False)),
    ("gconic.q_invariance_check", "gsurf.gconic", "q_invariance_check", None),
    ("gconic.matrix_from_fiber_action", "gsurf.gconic",
     "matrix_from_fiber_action", None),
    ("gconic.section_identity", "gsurf.gconic", "section_identity",
     lambda args, res: (1, False)),
    ("exceptional.enumerate_exceptional", "gsurf.exceptional",
     "enumerate_exceptional", lambda args, res: (len(res), False)),
    ("exceptional.reduce_exceptional", "gsurf.exceptional",
     "reduce_exceptional", lambda args, res: (len(res.steps), False)),
    ("cone.is_in_cone", "gsurf.cone", "is_in_cone",
     lambda args, res: (1, res != "outside")),
    ("cone.slice_scan", "gsurf.cone", "slice_scan", None),
    ("cone.blowdown_obstruction", "gsurf.cone", "blowdown_obstruction", None),
    ("hexagon.make_imprimitive", "gsurf.hexagon", "make_imprimitive",
     _count("order")),
    ("hexagon.presentation_check", "gsurf.hexagon", "presentation_check", None),
    ("hexagon.g2_action_check", "gsurf.hexagon", "g2_action_check", None),
)


@contextmanager
def patched(tracer: Tracer, targets):
    """Route each target attribute through a span for the body's duration."""
    saved = []
    try:
        for name, module, attr, measure in targets:
            mod = import_module(module)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, tracer.wrap(name, fn, measure))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# -- summaries ----------------------------------------------------------------

def _covered(lo: float, hi: float, intervals: List[Tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    kids: List[List[Tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            kids[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - _covered(s.start, s.end, k)
            for s, k in zip(spans, kids)]


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    work: int = 0
    flags: int = 0
    durations: List[float] = field(default_factory=list)


def summarise(spans: Sequence[Span]) -> Dict[str, LayerStats]:
    out: Dict[str, LayerStats] = {}
    for s, own in zip(spans, self_times(spans)):
        st = out.setdefault(s.name, LayerStats())
        st.calls += 1
        st.self_s += own
        st.work += s.work
        st.flags += s.flag
        st.durations.append(s.end - s.start)
    return out


def _rate(st: LayerStats) -> float:
    return st.work / st.self_s if st.self_s > 0 else 0.0


# stat name -> (unit, value from LayerStats)
STATS: Dict[str, Tuple[str, Callable[[LayerStats], float]]] = {
    "self_s": ("s", lambda st: st.self_s),
    "calls": ("count", lambda st: st.calls),
    "elements_per_s": ("1/s", _rate),
    "classes_per_s": ("1/s", _rate),
    "pairs_per_s": ("1/s", _rate),
    "steps": ("count", lambda st: st.work),
    "p50_us": ("us", lambda st: statistics.median(st.durations) * 1e6),
    "inside_frac": ("frac", lambda st: st.flags / st.calls),
}

# span name -> the stats reported for it
LAYER_METRICS: Dict[str, Tuple[str, ...]] = {
    "weyl.generate_group": ("self_s", "calls", "elements_per_s"),
    "weyl.group_order_via_chain": ("self_s", "calls"),
    "weyl.invariant_lattice": ("self_s",),
    "weyl.trace_sum_condition": ("self_s",),
    "lattice.Isometry.matmul": ("self_s", "calls"),
    "gconic.decompose": ("self_s", "calls", "elements_per_s"),
    "gconic.q_invariance_check": ("self_s", "calls"),
    "gconic.matrix_from_fiber_action": ("self_s",),
    "gconic.section_identity": ("self_s", "pairs_per_s"),
    "exceptional.enumerate_exceptional": ("self_s", "calls", "classes_per_s"),
    "exceptional.reduce_exceptional": ("self_s", "steps"),
    "cone.is_in_cone": ("self_s", "calls", "p50_us", "inside_frac"),
    "cone.slice_scan": ("self_s",),
    "cone.blowdown_obstruction": ("self_s",),
    "hexagon.make_imprimitive": ("self_s", "elements_per_s"),
    "hexagon.presentation_check": ("self_s",),
    "hexagon.g2_action_check": ("self_s",),
}


CLI_SUBCOMMANDS = ("exc", "reduce", "weyl", "invariants", "conic", "cone",
                   "hexagon", "schema")


def per_layer_names() -> List[Tuple[str, str]]:
    """(metric, unit) of every per-layer metric, in report order."""
    out = [(f"{layer}.{stat}", STATS[stat][0])
           for layer, stats in LAYER_METRICS.items() for stat in stats]
    out += [(f"cli.{sub}.p50_ms", "ms") for sub in CLI_SUBCOMMANDS]
    out += [("cli.report_bytes", "bytes"), ("bench.trace_overhead_frac", "frac")]
    return out


def layer_values(stats: Dict[str, LayerStats]) -> Dict[str, Tuple[float, str]]:
    """Metric name -> (value, unit) for every traced layer that was called."""
    out = {}
    for layer, names in LAYER_METRICS.items():
        st = stats.get(layer)
        if st is None:
            continue
        for stat in names:
            unit, fn = STATS[stat]
            out[f"{layer}.{stat}"] = (fn(st), unit)
    return out
