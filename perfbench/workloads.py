"""The four reference workloads: inputs from a seed, one operation, its checks.

Every workload follows the same shape.  :meth:`Workload.prepare` builds the
inputs from the seed (trace materialization) and constructs whatever the
program keeps across operations (simulators); :meth:`Prepared.op` runs one
timed operation and checks its outputs.  Functions the tracer may replace
(trace generators, ``run_sharded``'s helpers, ``screen_then_simulate``) are
looked up through their modules at call time, never bound at import, so a
traced run sees the same calls as an untraced one.

Why each workload exists and which layers it leaves idle is written down in
``WORKLOADS.md`` beside this file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis import screening
from repro.cluster import chaos
from repro.cluster.control import ReactiveController
from repro.cluster.failures import FailureModel
from repro.cluster.resilience import ExpJitterRetry, ResilienceConfig
from repro.cluster.scheduler import ColocatedPool, InstanceSpec, PhasePools
from repro.cluster.simulator import ColocatedSimulator, ServingSimulator, SimConfig
from repro.exec import sharding
from repro.hardware.gpu import H100, LITE
from repro.workloads import traces
from repro.workloads.models import LLAMA3_8B
from repro.workloads.traces import TraceConfig

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def report_digest(report) -> str:
    """SHA-256 over every ``SimReport`` field (floats by exact repr)."""
    text = json.dumps(report_fields(report), sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def report_fields(report) -> Dict[str, Any]:
    return dataclasses.asdict(report)


def load_reference() -> Dict[str, Any]:
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


def relative_error(estimate: float, truth: float) -> float:
    return abs(estimate - truth) / max(abs(truth), 1e-12)


def report_invariants(report, arrivals: int) -> List[str]:
    """Checks every run must pass, whatever the seed."""
    problems = []
    if report.completed + report.dropped != arrivals:
        problems.append(
            f"completed {report.completed} + dropped {report.dropped} != arrivals {arrivals}"
        )
    for name in ("prefill_utilization", "decode_utilization", "availability"):
        value = getattr(report, name)
        if not 0.0 <= value <= 1.0:
            problems.append(f"{name} {value} outside [0, 1]")
    if report.completed and not report.ttft_p50 <= report.ttft_p99:
        problems.append(f"ttft p50 {report.ttft_p50} > p99 {report.ttft_p99}")
    return problems


def pinned_mismatch(report, pinned: Dict[str, Any]) -> List[str]:
    """Compare a report with its pinned fields; name the first few that differ."""
    if report_digest(report) == pinned["digest"]:
        return []
    actual = report_fields(report)
    diffs = [
        f"{name}: {actual.get(name)!r} != pinned {value!r}"
        for name, value in pinned["fields"].items()
        if actual.get(name) != value
        and not (isinstance(value, float) and math.isnan(value) and math.isnan(actual.get(name)))
    ]
    return ["report digest differs from the pinned one: " + "; ".join(diffs[:4])]


def report_outputs(report, arrivals: int) -> Dict[str, float]:
    """The resilience and failure figures the per-layer table reads off a report."""
    return {
        "retries": report.retries,
        "timed_out": report.timed_out,
        "abandoned": report.abandoned,
        "useful_ratio": report.completed / max(1, arrivals + report.retries),
        "failure_hits": report.failure_hits,
    }


@dataclass
class OpResult:
    """What one timed operation did and whether its outputs checked out."""

    arrivals: int  # simulated arrivals over every simulator run in the op
    runs: int  # simulator runs: grid points, shards, or one replay
    failed: int  # runs that raised or whose output failed a check
    problems: List[str] = field(default_factory=list)
    # Figures the per-layer table reads off the op's outputs.
    outputs: Dict[str, float] = field(default_factory=dict)


class Prepared:
    """A workload's inputs and long-lived objects, ready to run operations."""

    def op(self) -> OpResult:  # pragma: no cover - abstract
        raise NotImplementedError

    def accuracy(self) -> Dict[str, float]:
        """End-to-end accuracy figures of this workload (after the timed ops)."""
        return {}


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    prepare: Callable[[int, float], Prepared]
    # Layers (module names) the workload must exercise; the others are idle.
    exercises: Tuple[str, ...]
    accuracy_metrics: Tuple[Tuple[str, str], ...] = ()


# --- hotpath_h100 -----------------------------------------------------------

HOT_POOLS = PhasePools(
    prefill=InstanceSpec(LLAMA3_8B, H100, 1),
    n_prefill=2,
    decode=InstanceSpec(LLAMA3_8B, H100, 1),
    n_decode=2,
    max_prefill_batch=4,
    max_decode_batch=128,
)


class _Replay(Prepared):
    """Replays one materialized trace through one simulator, op after op."""

    def __init__(self, name: str, trace, simulator, pinned: Optional[Dict]) -> None:
        self.name = name
        self.trace = trace
        self.simulator = simulator
        self.pinned = pinned
        self.first_digest: Optional[str] = None

    def op(self) -> OpResult:
        arrivals = len(self.trace)
        try:
            report = self.simulator.run(self.trace)
        except Exception as exc:  # noqa: BLE001 - a raising run is a failed op
            return OpResult(arrivals, 1, 1, [f"{type(exc).__name__}: {exc}"])
        problems = report_invariants(report, arrivals)
        digest = report_digest(report)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("replay of identical inputs gave a different report")
        if self.pinned is not None:
            problems += pinned_mismatch(report, self.pinned)
        return OpResult(arrivals, 1, 1 if problems else 0, problems,
                        report_outputs(report, arrivals))


def _pinned(name: str, seed: int, scale: float) -> Optional[Dict]:
    """The pinned reference, when the inputs are the default ones."""
    workload = WORKLOADS[name]
    if seed != workload.default_seed or scale != 1.0:
        return None
    return load_reference().get(name)


def hot_trace(seed: int, scale: float = 1.0):
    return traces.generate_trace(
        TraceConfig(rate=3.0, duration=600.0 * scale, output_tokens=150, output_spread=0.5),
        seed=seed,
    )


def prepare_hot(seed: int, scale: float = 1.0) -> Prepared:
    trace = hot_trace(seed, scale)
    simulator = ServingSimulator(HOT_POOLS, SimConfig(max_sim_time=1800.0))
    return _Replay("hotpath_h100", trace, simulator, _pinned("hotpath_h100", seed, scale))


# --- stream_sharded_colocated -----------------------------------------------

STREAM_POOL = ColocatedPool(
    instance=InstanceSpec(LLAMA3_8B, H100, 1), n_instances=8, max_decode_batch=256
)
STREAM_RATE = 400.0
STREAM_DURATION = 60.0
STREAM_WINDOW = 5.0
STREAM_SHARDS = 2
# Integer counters that must equal the sum of the per-shard reports.
SHARD_SUM_FIELDS = (
    "completed", "dropped", "requeued_on_failure", "restarted_requests",
    "spawned_instances", "retired_instances", "timed_out", "retries", "abandoned",
)


def stream_config(scale: float = 1.0) -> TraceConfig:
    return TraceConfig(rate=STREAM_RATE, duration=STREAM_DURATION * scale, output_tokens=32)


def stream_exact_report(seed: int, scale: float = 1.0):
    """The unsharded exact-metrics run of the same requests (the reference)."""
    requests = list(traces.iter_trace(stream_config(scale), seed=seed, window=STREAM_WINDOW))
    return ColocatedSimulator(STREAM_POOL, SimConfig()).run(requests), len(requests)


def _counting(stream: Iterator, box: List[int]) -> Iterator:
    for request in stream:
        box[0] += 1
        yield request


class _Stream(Prepared):
    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        self.pinned = _pinned("stream_sharded_colocated", seed, scale)
        self.first_digest: Optional[str] = None
        self.last_report = None

    def op(self) -> OpResult:
        arrivals = [0]
        shard_parts: List[List[Dict]] = []
        merge = sharding.merge_shard_results

        def keep_parts(parts):
            shard_parts.append(list(parts))
            return merge(parts)

        # Scoped to this call: the per-shard reports are what the sum check
        # compares the merged counters against.
        sharding.merge_shard_results = keep_parts
        try:
            report = sharding.run_sharded(
                STREAM_POOL,
                _counting(
                    traces.iter_trace(
                        stream_config(self.scale), seed=self.seed, window=STREAM_WINDOW
                    ),
                    arrivals,
                ),
                SimConfig(),
                shards=STREAM_SHARDS,
                workers=1,
            )
        except Exception as exc:  # noqa: BLE001 - a raising run fails every shard
            return OpResult(arrivals[0], STREAM_SHARDS, STREAM_SHARDS,
                            [f"{type(exc).__name__}: {exc}"])
        finally:
            sharding.merge_shard_results = merge
        problems = report_invariants(report, arrivals[0])
        parts = [part["report"] for part in shard_parts[-1]] if shard_parts else []
        if len(parts) != STREAM_SHARDS:
            problems.append(f"expected {STREAM_SHARDS} shard reports, saw {len(parts)}")
        for name in SHARD_SUM_FIELDS:
            total = sum(getattr(part, name) for part in parts)
            if getattr(report, name) != total:
                problems.append(f"merged {name} {getattr(report, name)} != shard sum {total}")
        digest = report_digest(report)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("rerun of identical inputs gave a different merged report")
        if self.pinned is not None:
            problems += pinned_mismatch(report, self.pinned["sharded"])
            exact = self.pinned["exact"]
            for name in ("completed", "dropped"):
                if getattr(report, name) != exact[name]:
                    problems.append(
                        f"sharded {name} {getattr(report, name)} != exact path {exact[name]}"
                    )
        self.last_report = report
        failed = STREAM_SHARDS if problems else 0
        return OpResult(arrivals[0], STREAM_SHARDS, failed, problems,
                        report_outputs(report, arrivals[0]))

    def accuracy(self) -> Dict[str, float]:
        if self.last_report is None:
            return {}
        if self.pinned is not None:
            exact_p99 = self.pinned["exact"]["ttft_p99"]
        else:
            exact, _ = stream_exact_report(self.seed, self.scale)
            exact_p99 = exact.ttft_p99
        return {"sketch_ttft_p99_err": relative_error(self.last_report.ttft_p99, exact_p99)}


def prepare_stream(seed: int, scale: float = 1.0) -> Prepared:
    # The trace is generated lazily inside each operation: nothing to build.
    return _Stream(seed, scale)


# --- screen_lite_grid ---------------------------------------------------------

SCREEN_RATES = tuple(float(r) for r in range(2, 17, 2))
SCREEN_SIZES = tuple(range(1, 9))
SCREEN_POINTS = [{"rate": r, "size": s} for r in SCREEN_RATES for s in SCREEN_SIZES]
SCREEN_TRACE_S = 10.0
SCREEN_MARGIN = 0.05
# One operation screens the grid for several trace sets, seeds ``seed``,
# ``seed + SCREEN_SET_STRIDE``, ...: the eight traces of one seed draw their
# gaps from one random stream, so their request counts rise and fall
# together and one set's work moves by about 11% between seeds.
SCREEN_SETS = 4
SCREEN_SET_STRIDE = 1000


def screen_pools(size: int) -> PhasePools:
    spec = InstanceSpec(LLAMA3_8B, LITE, 4)
    return PhasePools(
        prefill=spec, n_prefill=2, decode=spec, n_decode=size,
        max_prefill_batch=4, max_decode_batch=4,
    )


def screen_traces(seed: int, scale: float = 1.0) -> Dict[float, list]:
    return {
        rate: traces.generate_trace(
            TraceConfig(rate=rate, duration=SCREEN_TRACE_S * scale,
                        output_tokens=80, output_spread=0.5),
            seed=seed,
        )
        for rate in SCREEN_RATES
    }


def screen_point_fn(trace_by_rate: Dict[float, list]) -> Callable:
    def point(backend: str, rate: float, size: int):
        return ServingSimulator(screen_pools(size), SimConfig(backend=backend)).run(
            trace_by_rate[rate]
        )

    return point


def screen_cost(record) -> float:
    return record["result"].usd_per_mtoken


def screen_quality(record) -> float:
    return record["result"].output_tokens_per_s


class _Screen(Prepared):
    """Screens the grid once per trace set; the first set is the seed's own."""

    def __init__(self, trace_sets: List[Dict[float, list]], pinned: Optional[Dict]) -> None:
        self.trace_sets = trace_sets
        self.points = [screen_point_fn(trace_by_rate) for trace_by_rate in trace_sets]
        self.pinned = pinned
        self.first_verdicts: Dict[int, Tuple[float, int]] = {}
        self.last = None  # the first set's screen, which the accuracy figures read

    def op(self) -> OpResult:
        total = OpResult(0, 0, 0, [], {"promoted": 0, "points": 0})
        for index, (trace_by_rate, point) in enumerate(zip(self.trace_sets, self.points)):
            part = self._screen(index, trace_by_rate, point)
            total.arrivals += part.arrivals
            total.runs += part.runs
            total.failed += part.failed
            total.problems += part.problems
            for name, value in part.outputs.items():
                total.outputs[name] += value
        return total

    def _screen(self, index: int, trace_by_rate: Dict[float, list], point) -> OpResult:
        try:
            result = screening.screen_then_simulate(
                point, SCREEN_POINTS,
                cost=screen_cost, quality=screen_quality, margin=SCREEN_MARGIN,
            )
        except Exception as exc:  # noqa: BLE001 - the whole screen failed
            n = len(SCREEN_POINTS)
            return OpResult(0, n, n, [f"{type(exc).__name__}: {exc}"])
        records = list(result.screened) + list(result.promoted)
        arrivals = sum(len(trace_by_rate[r["rate"]]) for r in records)
        problems = [f"point {r['rate']:g}/{r['size']}: {r['error']}" for r in records if "error" in r]
        failed = len(problems)
        for record in records:
            if "result" in record:
                trace = trace_by_rate[record["rate"]]
                for problem in report_invariants(record["result"], len(trace)):
                    problems.append(f"point {record['rate']:g}/{record['size']}: {problem}")
                    failed += 1
        verdict = (result.best["rate"], result.best["size"])
        first = self.first_verdicts.setdefault(index, verdict)
        if verdict != first:
            problems.append(f"set {index}: verdict {verdict} differs from the first op's {first}")
            failed += 1
        if index == 0:
            self.last = result
            if self.pinned is not None and list(verdict) != self.pinned["event_argbest"]:
                problems.append(
                    f"screen verdict {verdict} != full event sweep argbest "
                    f"{tuple(self.pinned['event_argbest'])}"
                )
                failed += 1
        return OpResult(arrivals, len(records), min(failed, len(records)), problems,
                        {"promoted": len(result.promoted), "points": result.n_points})

    def accuracy(self) -> Dict[str, float]:
        if self.last is None:
            return {}
        best = self.last.best
        fluid = next(
            r for r in self.last.screened
            if (r["rate"], r["size"]) == (best["rate"], best["size"])
        )
        return {
            "fluid_tput_err": relative_error(
                fluid["result"].output_tokens_per_s, best["result"].output_tokens_per_s
            ),
            "fluid_ttft_p99_err": relative_error(
                fluid["result"].ttft_p99, best["result"].ttft_p99
            ),
            "promoted_frac": self.last.promotion_fraction,
        }


def prepare_screen(seed: int, scale: float = 1.0) -> Prepared:
    trace_sets = [screen_traces(seed + j * SCREEN_SET_STRIDE, scale) for j in range(SCREEN_SETS)]
    return _Screen(trace_sets, _pinned("screen_lite_grid", seed, scale))


def full_event_argbest(seed: int, scale: float = 1.0) -> Tuple[float, int]:
    """The verdict of simulating every grid point on the event engine."""
    point = screen_point_fn(screen_traces(seed, scale))
    truth = [dict(p, result=point("event", p["rate"], p["size"])) for p in SCREEN_POINTS]
    best = max(truth, key=screen_quality)
    return best["rate"], best["size"]


# --- chaos_lite_elastic -----------------------------------------------------

CHAOS_SEGMENTS = ((100.0, 10.0), (800.0, 10.0), (100.0, 20.0))
CHAOS_FAILURE_SEED = 3


def chaos_trace(seed: int, scale: float = 1.0):
    return traces.generate_piecewise_trace(
        [(rate, duration * scale) for rate, duration in CHAOS_SEGMENTS],
        base=TraceConfig(prompt_tokens=512, output_tokens=300, max_output=1200),
        seed=seed,
    )


def chaos_simulator() -> ServingSimulator:
    pools, _topology, _rack = chaos.lite_fleet()
    resilience = ResilienceConfig(
        deadline_s=20.0,
        queue_timeout_s=4.0,
        retry=ExpJitterRetry(max_attempts=5),
        slo_e2e_s=10.0,
        checkpoint_interval=128,
        checkpoint_bandwidth=1e12,
    )
    controller = ReactiveController(
        epoch=5.0, warmup_s=10.0, calm_epochs=2, queue_high=2.0,
        min_instances=2, max_instances=16,
    )
    return ServingSimulator(
        pools,
        SimConfig(resilience=resilience),
        policies="round-robin",
        failure_model=FailureModel(mtbf=6000.0, mttr=20.0),
        failure_seed=CHAOS_FAILURE_SEED,
        controller=controller,
    )


def prepare_chaos(seed: int, scale: float = 1.0) -> Prepared:
    trace = chaos_trace(seed, scale)
    return _Replay(
        "chaos_lite_elastic", trace, chaos_simulator(), _pinned("chaos_lite_elastic", seed, scale)
    )


# --- registry ------------------------------------------------------------------

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "hotpath_h100", 21, prepare_hot,
            exercises=("traces", "simulator", "engine", "engine.queue", "provider",
                       "roofline", "economics"),
        ),
        Workload(
            "stream_sharded_colocated", 0, prepare_stream,
            exercises=("traces", "simulator", "engine", "engine.queue", "provider",
                       "roofline", "streaming", "sharding", "economics"),
            accuracy_metrics=(("sketch_ttft_p99_err", "ratio"),),
        ),
        Workload(
            "screen_lite_grid", 11, prepare_screen,
            exercises=("traces", "simulator", "engine", "engine.queue", "provider",
                       "roofline", "fluid", "screening", "economics"),
            accuracy_metrics=(
                ("fluid_tput_err", "ratio"),
                ("fluid_ttft_p99_err", "ratio"),
                ("promoted_frac", "ratio"),
            ),
        ),
        Workload(
            "chaos_lite_elastic", 7, prepare_chaos,
            exercises=("traces", "simulator", "engine", "engine.queue", "provider",
                       "roofline", "control", "resilience", "failures", "economics"),
        ),
    )
}
