"""Tests of the benchmark's own logic on synthetic input.

    python3 -m pytest perfbench/test_perfbench.py
"""

import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """Returns the queued instants in order."""

    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_nested_children():
    # outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [6, 8]
    tracer = spans.Tracer(FakeClock(0, 1, 2, 3, 4, 6, 8, 10))
    outer = tracer.open("outer")
    a = tracer.open("a")
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(a)
    c = tracer.open("c")
    tracer.close(c)
    tracer.close(outer)
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert spans.self_times(tracer.spans) == [5, 2, 1, 2]
    stats = spans.summarise(tracer.spans)
    assert stats["outer"].self_s == 5 and stats["outer"].calls == 1


def test_self_time_counts_overlapping_children_once():
    sp = [spans.Span("p", 0, 10), spans.Span("x", 2, 6, parent=0),
          spans.Span("y", 4, 8, parent=0), spans.Span("z", 9, 12, parent=0)]
    assert spans.self_times(sp)[0] == 10 - 6 - 1


def test_wrapped_calls_record_work_and_restore_attributes():
    tracer = spans.Tracer()
    target = ("gconic.decompose", "gsurf.gconic", "decompose",
              lambda args, res: (len(args[0]), False))
    original = workloads.gconic.decompose
    model = workloads.gconic.ConicBundleModel(5)
    group = [workloads.Isometry.identity(5),
             workloads.gconic.full_swap(5)]
    with spans.patched(tracer, [target]):
        assert workloads.gconic.decompose is not original
        workloads.gconic.decompose(group, model, 1)
    assert workloads.gconic.decompose is original
    (span,) = tracer.spans
    assert span.name == "gconic.decompose" and span.work == 2


def test_adopted_child_spans_hang_under_the_open_span():
    tracer = spans.Tracer()
    tracer.op = 7
    with tracer.span("op.cli.exc"):
        tracer.adopt([spans.Span("exceptional.enumerate_exceptional", 1, 2),
                      spans.Span("cone.is_in_cone", 1.2, 1.5, parent=0)])
    assert [(s.parent, s.op) for s in tracer.spans] == [(-1, 7), (0, 7), (1, 7)]


def test_tail_takes_the_sample_with_ten_beyond_it():
    samples = list(range(1, 101))
    value, pct, n = run.tail(samples)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(1 for x in samples if x > value) == 10
    value, pct, n = run.tail(list(range(1000, 0, -1)))
    assert (value, pct, n) == (990, 99.0, 1000)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)
    assert run.tail([1.0] * 11)[:2] == (1.0, 100.0 * 1 / 11)


def test_wrong_expected_value_counts_as_failed():
    tally = run.Tally(log=io.StringIO())

    def good(ctx):
        workloads.expect(workloads.EXC_COUNTS[6] == 27, "count")

    def wrong(ctx):
        workloads.expect(workloads.EXC_COUNTS[6] == 28, "count")

    def raises(ctx):
        raise RuntimeError("boom")

    for i, fn in enumerate((good, wrong, raises, good)):
        tally.run(i, workloads.Op("k", fn), None)
    assert (tally.attempted, tally.failed, tally.fail_frac) == (4, 2, 0.5)
    assert len(tally.op_latencies()) == 2


def test_op_runs_are_scaled_by_the_kernel_runs_around_them():
    import numpy

    ref = reference.Reference(numpy, every_s=1.0)
    nominal = reference.NOMINAL_S
    # a machine at nominal speed, then one at half speed
    ref.samples = [nominal] * 6 + [2 * nominal] * 6
    assert ref.scale_at(0) == 1.0 and ref.scale_at(3) == 1.0
    assert ref.scale_at(9) == 0.5 and ref.scale_at(12) == 0.5
    assert ref.scale_at(6, window=1) == nominal / (1.5 * nominal)
    tally = run.Tally(log=io.StringIO(), ref=ref)
    for i, wall, cpu, pos in ((1, 0.004, 0.002, 0), (0, 0.010, 0.010, 2),
                              (0, 0.020, 0.030, 10), (0, 0.060, 0.060, 11)):
        tally.record(i, "k", wall, cpu, pos)
    assert tally.op_latencies() == [0.010, 0.004]
    assert tally.op_cpu() == [0.015, 0.002]
    assert tally.op_latencies(scaled=False) == [0.020, 0.004]


def test_reference_kernel_is_the_same_in_a_fresh_interpreter():
    import numpy

    for child in (False, True):
        ref = reference.Reference(numpy, every_s=1.0, child=child)
        ref.sample()
        assert len(ref.samples) == 1
        assert ref.result == reference.kernel(numpy)


def test_oracles_match_known_constants():
    for n, count in workloads.EXC_COUNTS.items():
        assert workloads.exceptional_count(n) == count
        assert len(workloads.exceptional_classes(n)) == count
    for n in range(2, 12):
        scan = tuple((a, -(a * a * (9 - n)) // (2 * a - 1))
                     for a in range(-500, 0)
                     if -(a * a * (9 - n)) % (2 * a - 1) == 0
                     and -(a * a * (9 - n)) // (2 * a - 1) > 0)
        assert workloads.obstruction_closed_form(n, -500) == scan


def test_klein_matrix_is_the_fiber_action_lift():
    for n in (4, 5, 6):
        for sets in workloads.klein_partitions(n)[:5]:
            for sigma in sets:
                lift = workloads.gconic.matrix_from_fiber_action(
                    tuple(range(2, n + 1)), workloads.klein_eps(n, sigma), n)
                assert [list(r) for r in lift.mat] == \
                    workloads.klein_matrix(n, sigma)


def test_cone_queries_have_the_answers_claimed():
    import random

    rng = random.Random(0)
    for n in (3, 5, 8):
        for _ in range(10):
            w, inside = workloads.cone_query(rng, n, rng.random() < 0.6)
            got = workloads.cone.is_in_cone(w)
            assert (got != workloads.cone.OUTSIDE) == inside


def test_slice_thresholds():
    want = [-1, -1, -1, Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 4)]
    assert [workloads.slice_threshold(n) for n in range(3, 9)] == want


def test_benchmark_json_lists_the_emitted_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        spans.per_layer_names()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
