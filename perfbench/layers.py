"""Install the tracer around the program's layers and derive the per-layer table.

:func:`install` replaces public calls of each module with tracer wrappers
(see :mod:`tracer`) and returns the :class:`~tracer.Patches` that undo
them.  :func:`per_layer_metrics` turns a traced set-up phase plus the
traced timed operations into the named metrics ``BENCHMARK.json`` lists:
every figure is what **one set-up (with its warm-up) plus one mean timed
operation** cost, so traced runs of different lengths compare directly.

The ``*_s`` metrics named in :data:`SELF_TIME_METRICS` are self times and
partition the traced wall time: they add up to ``trace.total_s`` together
with ``trace.unattributed_s`` (benchmark glue between calls).
"""

from __future__ import annotations

import functools
from typing import Dict

from perfbench.tracer import Patches, Phase, Tracer, span_self_times

#: Event kinds the engines push onto the heap (``engine.pushes.<kind>``).
EVENT_KINDS = (
    "arrival", "retry", "prefill_done", "decode_iter", "decode_admit",
    "iter", "admit", "failure", "recovered", "controller", "spawn_ready",
)

_RATIOS = {
    "engine.pops_per_request", "provider.hit_ratio", "streaming.sketch_ttft_p99_err",
    "sharding.imbalance", "fluid.tput_err", "fluid.ttft_p99_err", "screening.promoted_frac",
    "resilience.useful_ratio", "trace.overhead", "trace.reconcile_err",
}
_HIGHER_IS_BETTER = {"provider.hit_ratio", "resilience.useful_ratio"}
_NAMES = (
    "traces.gen_s", "traces.requests",
    "simulator.init_s", "simulator.inits", "simulator.assembly_s",
    "engine.run_s", "engine.queue_s", "engine.pushes", "engine.pops",
    *(f"engine.pushes.{kind}" for kind in EVENT_KINDS),
    "engine.heap_peak", "engine.pops_per_request", "engine.self_s",
    "provider.prefill.calls", "provider.decode.calls", "provider.mixed.calls",
    "provider.s", "provider.misses", "provider.hit_ratio",
    "roofline.calls", "roofline.s",
    "streaming.records", "streaming.record_s", "streaming.merge_s", "streaming.self_s",
    "streaming.centroids", "streaming.sketch_ttft_p99_err",
    "sharding.partition_s", "sharding.merge_s", "sharding.shard_run_s", "sharding.imbalance",
    "sharding.self_s",
    "fluid.report_s", "fluid.fit_s", "fluid.profile_s", "fluid.points", "fluid.self_s",
    "fluid.tput_err", "fluid.ttft_p99_err",
    "screening.fluid_tier_s", "screening.event_tier_s", "screening.promoted",
    "screening.points", "screening.promoted_frac", "screening.self_s",
    "control.steps", "control.step_s", "control.epoch_s", "control.self_s",
    "resilience.calls", "resilience.s", "resilience.retries", "resilience.timed_out",
    "resilience.abandoned", "resilience.useful_ratio",
    "failures.hits", "failures.self_s", "economics.s",
    "trace.total_s", "trace.unattributed_s", "trace.overhead", "trace.reconcile_err",
)


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio" if name in _RATIOS else "count"


#: Every per-layer metric as ``(name, unit, better)``, in report order;
#: ``BENCHMARK.json`` lists the same entries.
PER_LAYER = tuple(
    (name, _unit(name), "higher" if name in _HIGHER_IS_BETTER else "lower") for name in _NAMES
)

def _layer(name: str) -> str:
    """Frame name ``<layer>.<call>``: the layer is everything before the last dot."""
    return name.rsplit(".", 1)[0]


def install(tracer: Tracer) -> Patches:
    """Wrap every traced boundary of the program; returns the undo handle."""
    from repro.analysis import screening, streaming
    from repro.cluster import control, engine, fluid, resilience, scheduler, simulator
    from repro.exec import sharding
    from repro.workloads import traces

    p = Patches()

    # traces: list-returning generators are spans; iter_trace is consumed one
    # request at a time, so each next() is a per-event frame.
    def count_requests(result, args) -> None:
        if not tracer.inside("traces"):
            tracer.count("traces.requests", len(result))

    p.set(traces, "generate_trace",
          tracer.spanned("traces.generate", traces.generate_trace, count_requests))
    p.set(traces, "generate_piecewise_trace",
          tracer.spanned("traces.piecewise", traces.generate_piecewise_trace, count_requests))
    original_iter = traces.iter_trace

    @functools.wraps(original_iter)
    def iter_trace(*args, **kwargs):
        step = tracer.counted("traces.iter", original_iter(*args, **kwargs).__next__)

        def stream():
            while True:
                try:
                    request = step()
                except StopIteration:
                    return
                tracer.count("traces.requests")
                yield request

        return stream()

    p.set(traces, "iter_trace", iter_trace)

    # simulator front-ends: construction and report assembly around the run.
    for cls in (simulator.ServingSimulator, simulator.ColocatedSimulator):
        p.set(cls, "__init__", tracer.spanned("simulator.init", cls.__init__))
        p.set(cls, "run", tracer.spanned("simulator.run", cls.run))
    p.set(simulator, "sample_failure_schedule",
          tracer.spanned("failures.sample", simulator.sample_failure_schedule))
    for module in (simulator, fluid):
        p.set(module, "pool_economics",
              tracer.spanned("economics.rollup", module.pool_economics))

    # engine: the run loop is a span; heap traffic is per-event.
    def engine_done(result, args) -> None:
        tracer.count("engine.arrivals", result.arrivals)

    p.set(engine._EngineBase, "run",
          tracer.spanned("engine.run", engine._EngineBase.run, engine_done))
    push = tracer.counted("engine.queue.push", engine.EventQueue.push)
    pop = tracer.counted("engine.queue.pop", engine.EventQueue.pop)

    def queue_push(queue, time, kind, payload=()):
        push(queue, time, kind, payload)
        tracer.count(f"engine.pushes.{kind}")
        tracer.peak("engine.heap_peak", len(queue))

    p.set(engine.EventQueue, "push", queue_push)
    p.set(engine.EventQueue, "pop", pop)

    # service-time memo (hits and misses read off its own counters) and the
    # roofline evaluations it falls through to on a miss.
    for kind in ("prefill", "decode", "mixed"):
        timed = tracer.counted(f"provider.{kind}", getattr(engine.ServiceTimeProvider,
                                                           f"{kind}_time"))

        def lookup(provider, *args, _timed=timed, **kwargs):
            misses = provider.misses
            result = _timed(provider, *args, **kwargs)
            if provider.misses != misses:
                tracer.count("provider.misses")
            return result

        p.set(engine.ServiceTimeProvider, f"{kind}_time", lookup)
        p.set(resilience.CheckpointWriteProvider, f"{kind}_time",
              tracer.counted("provider.checkpoint",
                             getattr(resilience.CheckpointWriteProvider, f"{kind}_time")))
    for kind in ("prefill", "decode"):
        p.set(scheduler.InstanceSpec, f"{kind}_time",
              tracer.counted(f"roofline.{kind}", getattr(scheduler.InstanceSpec,
                                                         f"{kind}_time")))
    p.set(engine, "mixed_iteration_time",
          tracer.counted("roofline.mixed", engine.mixed_iteration_time))

    # streaming metrics sink and sketch merge.
    metrics_cls = streaming.StreamingMetrics
    p.set(metrics_cls, "record", tracer.counted("streaming.record", metrics_cls.record))

    def sketch_size(result, args) -> None:
        tracer.peak("streaming.centroids", max(
            result.ttft.centroid_count(), result.tbt.centroid_count(),
            result.e2e.centroid_count(),
        ))

    p.set(metrics_cls, "merged", staticmethod(
        tracer.spanned("streaming.merge", metrics_cls.merged, sketch_size)))

    # sharding: partition, per-shard runs, merge.
    def shard_balance(result, args) -> None:
        sizes = [len(shard) for shard in result]
        mean = sum(sizes) / max(1, len(sizes))
        if mean > 0:
            tracer.peak("sharding.imbalance", max(sizes) / mean)

    p.set(sharding, "shard_requests",
          tracer.spanned("sharding.partition", sharding.shard_requests, shard_balance))
    p.set(sharding, "_run_shard", tracer.spanned("sharding.shard", sharding._run_shard))
    p.set(sharding, "merge_shard_results",
          tracer.spanned("sharding.merge", sharding.merge_shard_results))

    # fluid backend: whole reports, batch-time fits, trace profiles.
    def fluid_point(result, args) -> None:
        tracer.count("fluid.points")

    for name in ("fluid_phase_split_report", "fluid_colocated_report"):
        p.set(fluid, name, tracer.spanned("fluid.report", getattr(fluid, name), fluid_point))
    for name in ("fit_prefill", "fit_decode", "fit_mixed"):
        p.set(fluid, name, tracer.spanned("fluid.fit", getattr(fluid, name)))
    p.set(fluid.TraceProfile, "from_trace", staticmethod(
        tracer.spanned("fluid.profile", fluid.TraceProfile.from_trace)))

    # two-tier screening: the screen, and each tier by the backend it runs.
    def screen_done(result, args) -> None:
        tracer.count("screening.points", result.n_points)
        tracer.count("screening.promoted", len(result.promoted))

    p.set(screening, "screen_then_simulate",
          tracer.spanned("screening.screen", screening.screen_then_simulate, screen_done))
    run_points = screening._run_points
    tiers = {
        backend: tracer.spanned(f"screening.{backend}_tier", run_points)
        for backend in ("fluid", "event")
    }

    @functools.wraps(run_points)
    def tiered(fn, *args, **kwargs):
        backend = fn.args[0] if isinstance(fn, functools.partial) and fn.args else "event"
        return tiers.get(backend, tiers["event"])(fn, *args, **kwargs)

    p.set(screening, "_run_points", tiered)

    # control plane: each controller's step, and the engine's epoch handler
    # around it (observation, the pending-event scan, applying the action).
    for value in vars(control).values():
        if (isinstance(value, type) and issubclass(value, control.ClusterController)
                and "step" in vars(value)):
            p.set(value, "step", tracer.counted("control.step", value.step))
    p.set(engine._EngineBase, "_on_controller_event",
          tracer.counted("control.epoch", engine._EngineBase._on_controller_event))

    # resilience runtime: every public method the engines call.
    runtime = resilience.ResilienceRuntime
    for name, value in list(vars(runtime).items()):
        if not name.startswith("_") and callable(value):
            p.set(runtime, name, tracer.counted(f"resilience.{name}", value))
    return p


# --- per-layer table ------------------------------------------------------------


class _Combined:
    """One set-up phase plus the mean of the traced timed operations."""

    def __init__(self, setup: Phase, ops: Phase, n_ops: int) -> None:
        self.setup = setup
        self.ops = ops
        self.n = max(1, n_ops)

    def add(self, getter) -> float:
        return getter(self.setup) + getter(self.ops) / self.n

    def peak(self, name: str) -> float:
        return max(self.setup.peaks.get(name, 0.0), self.ops.peaks.get(name, 0.0))

    def count(self, name: str) -> float:
        return self.add(lambda ph: ph.counts.get(name, 0.0))

    def calls(self, prefix: str) -> float:
        return self.add(lambda ph: sum(
            rec[0] for name, rec in ph.events.items() if name.startswith(prefix)))

    def span_total(self, name: str) -> float:
        return self.add(lambda ph: ph.span_total(name))

    def span_self(self, name: str) -> float:
        return self.add(lambda ph: ph.span_self(name))

    def event_self(self, name: str) -> float:
        return self.add(lambda ph: ph.event_self(name))

    def layer_self(self, layer: str) -> float:
        return self.add(lambda ph: _self_by_layer(ph).get(layer, 0.0))

    def slowest(self, name: str) -> float:
        return max(
            (s.end - s.start for ph in (self.setup, self.ops) for s in ph.spans if s.name == name),
            default=0.0,
        )


def _self_by_layer(phase: Phase) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for span, own in zip(phase.spans, span_self_times(phase.spans)):
        layer = _layer(span.name)
        out[layer] = out.get(layer, 0.0) + own
    for name, (_, total, inner) in phase.events.items():
        layer = _layer(name)
        out[layer] = out.get(layer, 0.0) + total - inner
    return out


def per_layer_metrics(
    setup: Phase,
    ops: Phase,
    n_ops: int,
    outputs: Dict[str, float],
    accuracy: Dict[str, float],
    overhead: float,
) -> Dict[str, float]:
    """The named per-layer metrics (see ``BENCHMARK.json``).

    ``outputs`` are the last op's figures read off its reports (retries,
    failure hits, ...); ``accuracy`` the workload's accuracy figures;
    ``overhead`` the traced-vs-untraced slowdown.
    """
    c = _Combined(setup, ops, n_ops)
    m: Dict[str, float] = {}
    m["traces.gen_s"] = c.layer_self("traces")
    m["traces.requests"] = c.count("traces.requests")

    m["simulator.init_s"] = c.span_self("simulator.init")
    m["simulator.inits"] = c.add(lambda ph: sum(1 for s in ph.spans if s.name == "simulator.init"))
    m["simulator.assembly_s"] = c.span_self("simulator.run")

    pushes = c.calls("engine.queue.push")
    pops = c.calls("engine.queue.pop")
    arrivals = c.count("engine.arrivals")
    m["engine.run_s"] = c.span_total("engine.run")
    m["engine.queue_s"] = c.layer_self("engine.queue")
    m["engine.pushes"] = pushes
    m["engine.pops"] = pops
    for kind in EVENT_KINDS:
        m[f"engine.pushes.{kind}"] = c.count(f"engine.pushes.{kind}")
    m["engine.heap_peak"] = c.peak("engine.heap_peak")
    m["engine.pops_per_request"] = pops / arrivals if arrivals else 0.0
    m["engine.self_s"] = c.layer_self("engine")

    provider_calls = 0.0
    for kind in ("prefill", "decode", "mixed"):
        calls = c.calls(f"provider.{kind}")
        m[f"provider.{kind}.calls"] = calls
        provider_calls += calls
    misses = c.count("provider.misses")
    m["provider.s"] = c.layer_self("provider")
    m["provider.misses"] = misses
    m["provider.hit_ratio"] = 1.0 - misses / provider_calls if provider_calls else 0.0
    m["roofline.calls"] = c.calls("roofline.")
    m["roofline.s"] = c.layer_self("roofline")

    m["streaming.records"] = c.calls("streaming.record")
    m["streaming.record_s"] = c.event_self("streaming.record")
    m["streaming.merge_s"] = c.span_self("streaming.merge")
    m["streaming.self_s"] = c.layer_self("streaming")
    m["streaming.centroids"] = c.peak("streaming.centroids")
    m["streaming.sketch_ttft_p99_err"] = accuracy.get("sketch_ttft_p99_err", 0.0)

    m["sharding.partition_s"] = c.span_self("sharding.partition")
    m["sharding.merge_s"] = c.span_self("sharding.merge")
    m["sharding.shard_run_s"] = c.slowest("sharding.shard")
    m["sharding.imbalance"] = c.peak("sharding.imbalance")
    m["sharding.self_s"] = c.layer_self("sharding")

    m["fluid.report_s"] = c.span_total("fluid.report")
    m["fluid.fit_s"] = c.span_total("fluid.fit")
    m["fluid.profile_s"] = c.span_total("fluid.profile")
    m["fluid.points"] = c.count("fluid.points")
    m["fluid.self_s"] = c.layer_self("fluid")
    m["fluid.tput_err"] = accuracy.get("fluid_tput_err", 0.0)
    m["fluid.ttft_p99_err"] = accuracy.get("fluid_ttft_p99_err", 0.0)

    m["screening.fluid_tier_s"] = c.span_total("screening.fluid_tier")
    m["screening.event_tier_s"] = c.span_total("screening.event_tier")
    m["screening.promoted"] = c.count("screening.promoted")
    m["screening.points"] = c.count("screening.points")
    m["screening.promoted_frac"] = accuracy.get("promoted_frac", 0.0)
    m["screening.self_s"] = c.layer_self("screening")

    m["control.steps"] = c.calls("control.step")
    m["control.step_s"] = c.event_self("control.step")
    m["control.epoch_s"] = c.event_self("control.epoch")
    m["control.self_s"] = c.layer_self("control")

    m["resilience.calls"] = c.calls("resilience.")
    m["resilience.s"] = c.layer_self("resilience")
    for name in ("retries", "timed_out", "abandoned", "useful_ratio"):
        m[f"resilience.{name}"] = float(outputs.get(name, 0.0))
    m["failures.hits"] = float(outputs.get("failure_hits", 0.0))
    m["failures.self_s"] = c.layer_self("failures")
    m["economics.s"] = c.layer_self("economics")

    m["trace.total_s"] = c.add(lambda ph: sum(
        s.end - s.start for s in ph.spans if s.parent is None))
    m["trace.unattributed_s"] = c.layer_self("bench")
    m["trace.overhead"] = overhead
    m["trace.reconcile_err"] = reconcile_error(m)
    return m


#: Metric names whose values partition ``trace.total_s``: one self time per
#: layer (the simulator front-end split into construction and assembly),
#: plus the benchmark's own glue between calls.
SELF_TIME_METRICS = (
    "traces.gen_s", "simulator.init_s", "simulator.assembly_s", "engine.self_s",
    "engine.queue_s", "provider.s", "roofline.s", "streaming.self_s", "sharding.self_s",
    "fluid.self_s", "screening.self_s", "control.self_s", "resilience.s",
    "failures.self_s", "economics.s", "trace.unattributed_s",
)


def reconcile_error(metrics: Dict[str, float]) -> float:
    """|sum of the self-time metrics - traced total| / traced total.

    Zero up to rounding when every traced frame belongs to a layer the
    table names; a frame under an unnamed layer shows up here.
    """
    total = metrics["trace.total_s"]
    parts = sum(metrics[name] for name in SELF_TIME_METRICS)
    return abs(parts - total) / total if total > 0 else 0.0
