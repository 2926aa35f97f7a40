"""Tests of the benchmark itself: tracer arithmetic and per-layer coverage.

The per-layer test runs every workload at a small scale with the tracer
installed, so it checks the wrappers against the program as it is now.
"""

from __future__ import annotations

import gc
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import layers, run, tracer as tracer_mod, workloads  # noqa: E402
from perfbench.tracer import Span, Tracer, span_self_times, union_length  # noqa: E402


# --- self-time arithmetic ----------------------------------------------------------


def test_union_length_merges_overlaps_and_clips():
    assert union_length([], 0.0, 10.0) == 0.0
    assert union_length([(1.0, 4.0), (3.0, 6.0)], 0.0, 10.0) == 5.0
    assert union_length([(1.0, 2.0), (5.0, 7.0)], 0.0, 10.0) == 3.0
    # Clipped to the parent on both sides; a child fully outside counts 0.
    assert union_length([(-2.0, 1.0), (8.0, 12.0), (20.0, 30.0)], 0.0, 10.0) == 3.0
    # A child nested in another child counts once.
    assert union_length([(1.0, 9.0), (2.0, 3.0)], 0.0, 10.0) == 8.0


def test_span_self_time_subtracts_covered_part_once():
    spans = [
        Span("root.op", 0.0, 10.0, parent=None, inner=0.5),
        Span("a.x", 1.0, 4.0, parent=0),
        Span("a.y", 3.0, 6.0, parent=0),  # overlaps a.x: [1, 6] covered once
        Span("a.z", 8.0, 12.0, parent=0),  # sticks out of the parent: 2 covered
        Span("b.w", 1.5, 2.0, parent=1),  # grandchild: only a.x loses it
    ]
    own = span_self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0 - 0.5)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)


def test_span_inside_event_frame_is_not_subtracted_twice(monkeypatch):
    clock = iter(float(t) for t in range(100))
    monkeypatch.setattr(tracer_mod, "perf_counter", lambda: next(clock))
    tr = Tracer()
    inner_span = tr.spanned("lib.inner", lambda: None)
    event = tr.counted("lib.event", lambda: inner_span())
    with tr.span("root.op"):  # t=0
        event()  # event t=1..4, inner span t=2..3
    phase = tr.take()
    root, inner = phase.spans
    assert (root.start, root.end) == (0.0, 5.0)
    assert not inner.direct
    calls, total, nested = phase.events["lib.event"]
    assert (calls, total, nested) == (1, 3.0, 1.0)
    own = span_self_times(phase.spans)
    # root 5 - event 3 = 2; event 3 - span 1 = 2; span 1: the parts sum to 5.
    assert own[0] == 2.0
    assert own[0] + (total - nested) + own[1] == root.end - root.start


def test_patches_restore_the_program():
    from repro.cluster import engine, simulator
    from repro.workloads import traces

    before = (traces.generate_trace, engine.EventQueue.__dict__["push"],
              simulator.ServingSimulator.__init__,
              workloads.sharding.merge_shard_results)
    patches = layers.install(Tracer())
    assert traces.generate_trace is not before[0]
    patches.undo()
    after = (traces.generate_trace, engine.EventQueue.__dict__["push"],
             simulator.ServingSimulator.__init__,
             workloads.sharding.merge_shard_results)
    assert after == before


# --- per-layer coverage ----------------------------------------------------------------

#: A metric that must be non-zero whenever the workload exercises the layer.
LAYER_SIGNAL = {
    "traces": "traces.requests",
    "simulator": "simulator.inits",
    "engine": "engine.pops",
    "engine.queue": "engine.queue_s",
    "provider": "provider.s",
    "roofline": "roofline.calls",
    "streaming": "streaming.records",
    "sharding": "sharding.shard_run_s",
    "fluid": "fluid.points",
    "screening": "screening.points",
    "control": "control.steps",
    "resilience": "resilience.calls",
    "failures": "failures.self_s",
    "economics": "economics.s",
}
SMALL = {
    "hotpath_h100": 0.05,
    "stream_sharded_colocated": 0.05,
    "screen_lite_grid": 0.1,
    "chaos_lite_elastic": 0.1,
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_workload_emits_every_per_layer_metric(name):
    workload = workloads.WORKLOADS[name]
    tr = Tracer()
    patches = layers.install(tr)
    try:
        with tr.span("bench.setup"):
            prepared = workload.prepare(workload.default_seed, SMALL[name])
            warm = prepared.op()
        setup = tr.take()
        with tr.span("bench.op"):
            result = prepared.op()
        ops = tr.take()
    finally:
        patches.undo()
    assert warm.failed == 0 and result.failed == 0, warm.problems + result.problems
    metrics = layers.per_layer_metrics(
        setup, ops, 1, outputs=result.outputs, accuracy=prepared.accuracy(), overhead=0.0
    )
    assert [n for n, _, _ in layers.PER_LAYER] == list(metrics)
    assert all(math.isfinite(v) for v in metrics.values())
    assert set(workload.exercises) <= set(LAYER_SIGNAL)
    for layer in workload.exercises:
        assert metrics[LAYER_SIGNAL[layer]] > 0, (name, layer)
    for layer in set(LAYER_SIGNAL) - set(workload.exercises):
        assert metrics[LAYER_SIGNAL[layer]] == 0, (name, layer)
    for metric, _ in workload.accuracy_metrics:
        assert math.isfinite(prepared.accuracy()[metric])
    # Self times plus the unattributed remainder reconcile with the total.
    assert metrics["trace.reconcile_err"] < 1e-9
    parts = sum(metrics[m] for m in layers.SELF_TIME_METRICS)
    assert parts == pytest.approx(metrics["trace.total_s"], rel=1e-9)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(entry) for entry in layers.PER_LAYER
    ]
    assert [m["name"] for m in spec["end_to_end"]] == [
        "sim_req_per_ref_s", "setup_s", "peak_mem_mb"
    ]


# --- calibration -----------------------------------------------------------------------


def test_calibrated_rate_cancels_a_uniform_slowdown():
    result = workloads.OpResult(arrivals=1000, runs=1, failed=0)
    at_reference = run.Sample(2.0, run.CAL_REF_S, result)
    assert at_reference.ref_rate == pytest.approx(at_reference.rate) == pytest.approx(500.0)
    # Everything took twice as long: the raw rate halves, the calibrated one does not.
    slowed = run.Sample(4.0, 2 * run.CAL_REF_S, result)
    assert slowed.rate == pytest.approx(250.0)
    assert slowed.ref_rate == pytest.approx(500.0)


def test_calibrate_leaves_the_collector_as_it_found_it():
    assert gc.isenabled()
    assert run.calibrate() > 0
    assert gc.isenabled()
