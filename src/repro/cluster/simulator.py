"""Discrete-event LLM serving simulators over pluggable deployments.

The analytical model (Section 4's roofline) gives *service times*; the
simulators add the *queueing* the paper's systems sections reason about:
request arrivals, batch formation, prefill-to-decode handoff, continuous
decode batching, and GPU failures that take a whole instance offline — the
software blast radius of Section 3.

The heavy lifting lives one layer down:

- :mod:`repro.cluster.engine` — the event core, instance state machines,
  and the memoizing :class:`~repro.cluster.engine.ServiceTimeProvider`;
- :mod:`repro.cluster.policies` — pluggable routing / batching / admission
  / requeue policies (the seed's hardcoded behaviour is the ``"fcfs"``
  bundle).

Two deployment shapes share one front-end and one report format:

- :class:`ServingSimulator` — a Splitwise-style :class:`PhasePools`
  deployment (dedicated prefill and decode pools);
- :class:`ColocatedSimulator` — a SARATHI-style :class:`ColocatedPool`
  where every instance interleaves chunked prefill with decode.

Failures can be scripted as ``(time, pool, index, repair_duration)`` tuples
and/or sampled stochastically from a :class:`FailureModel` with a seeded
RNG (:func:`repro.cluster.failures.sample_failure_schedule`); in-flight
requests on a failed instance lose their KV state and restart from prefill.

Determinism: simulation is fully determined by the trace, the deployment,
the policy bundle, and the failure schedule (scripted or seeded).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SpecError
from ..exec.seeding import derive_seed
from ..network.topology import Topology
from ..workloads.traces import Request
from .control import ClusterController, get_controller
from .economics import EconomicsConfig, EconomicsReport, pool_economics
from .engine import (
    AbstractServiceTimeProvider,
    ColocatedEngine,
    CompletedRequest,
    NetworkAwareServiceTimeProvider,
    PhaseSplitEngine,
    ServiceTimeProvider,
    require_kv_headroom,
)
from .failures import (
    ComponentFailure,
    ComponentFailureModel,
    FailureModel,
    resolve_component_failures,
    sample_failure_schedule,
)
from .placement import Placement, PoolShape, place
from .policies import PolicyBundle, get_policy_bundle
from .resilience import ResilienceConfig, wrap_checkpoint_writes
from .scheduler import ColocatedPool, InstanceSpec, PhasePools

__all__ = [
    "SimConfig",
    "SimReport",
    "CompletedRequest",
    "ServingSimulator",
    "ColocatedSimulator",
    "NETWORK_MODELS",
    "check_composition",
    "simulator_for",
]

#: Service-time network models: "none" keeps the placement-blind roofline
#: oracle (bit-identical to the goldens); "fabric" overlays placed collective
#: costs via :class:`~repro.cluster.engine.NetworkAwareServiceTimeProvider`.
NETWORK_MODELS = ("none", "fabric")


def _resolve_placement(
    topology: Topology, placer: "str | Placement", shapes: Sequence[PoolShape]
) -> Placement:
    """Build (or validate) the placement for a deployment's pool shapes."""
    if isinstance(placer, Placement):
        if placer.n_gpus != topology.n_gpus:
            raise SpecError(
                f"placement spans {placer.n_gpus} GPUs but the topology has {topology.n_gpus}"
            )
        for shape in shapes:
            groups = placer.groups(shape.name)
            if len(groups) != shape.n_instances:
                raise SpecError(
                    f"placement has {len(groups)} '{shape.name}' instances, "
                    f"deployment needs {shape.n_instances}"
                )
            for group in groups:
                if len(group) != shape.gpus_per_instance:
                    raise SpecError(
                        f"placement group width {len(group)} != instance "
                        f"TP degree {shape.gpus_per_instance} in pool '{shape.name}'"
                    )
        return placer
    return place(topology, shapes, placer=placer)


def _make_provider(
    instance_spec,
    config: "SimConfig",
    network_model: str,
    topology: Optional[Topology],
    placement: Optional[Placement],
    pool_name: str,
) -> "AbstractServiceTimeProvider":
    """One service-time oracle for a pool: fabric-aware when requested."""
    if network_model == "fabric":
        return NetworkAwareServiceTimeProvider(
            instance_spec, topology, placement.groups(pool_name), config.context_bucket
        )
    return ServiceTimeProvider(instance_spec, config.context_bucket)


def _elastic_shapes(
    shapes: Sequence[PoolShape],
    controller: Optional[ClusterController],
    topology: Optional[Topology],
    placer: "str | Placement",
) -> Tuple[Tuple[PoolShape, ...], Dict[str, int]]:
    """Pool shapes plus per-pool spawn limits for an elastic deployment.

    With a controller and a topology, every pool's shape is
    expanded toward the controller's ``max_instances`` as far as free
    topology GPUs allow — the placer then pre-places the growth groups so
    a controller spawn lands on concrete, disjoint GPU indices (and the
    network-aware provider can price its collectives).  Without a
    topology there is no physical bound: spawn limits stay empty and the
    controller's own ``max_instances`` is the only cap.  An explicit
    :class:`Placement` defines the limits directly via its group counts.
    """
    shapes = tuple(shapes)
    if controller is None:
        return shapes, {}
    if isinstance(placer, Placement):
        return shapes, {pool: len(placer.groups(pool)) for pool in placer.pools}
    if topology is None:
        return shapes, {}
    free = topology.n_gpus - sum(s.total_gpus for s in shapes)
    expanded: List[PoolShape] = []
    limits: Dict[str, int] = {}
    for shape in shapes:
        extra_cap = max(0, controller.max_instances - shape.n_instances)
        extra = min(extra_cap, free // shape.gpus_per_instance)
        free -= extra * shape.gpus_per_instance
        n = shape.n_instances + extra
        expanded.append(PoolShape(shape.name, n, shape.gpus_per_instance))
        limits[shape.name] = n
    return tuple(expanded), limits


def _component_instance_failures(
    topology: Topology,
    placement: Placement,
    component_failures: Sequence[ComponentFailure],
    component_model: Optional[ComponentFailureModel],
    horizon: float,
    failure_seed: int,
) -> List[Tuple[float, str, int, float]]:
    """Resolve scripted + sampled component faults to instance outages.

    The sampling seed is *derived from the topology and placement* (not the
    bare ``failure_seed``): two sweeps differing only in fabric or placement
    draw uncorrelated component schedules and never collide in caches keyed
    on the derived seed.
    """
    events = list(component_failures)
    rack_size = component_model.rack_size if component_model is not None else 8
    if component_model is not None:
        schedule_seed = derive_seed(failure_seed, "components", topology, placement)
        events += component_model.sample_component_schedule(
            topology, horizon, seed=schedule_seed
        )
    return resolve_component_failures(events, topology, placement, rack_size=rack_size)


@dataclass(frozen=True)
class SimConfig:
    """Simulator knobs beyond the deployment itself.

    ``context_bucket`` controls the :class:`ServiceTimeProvider` cache key
    granularity — 1 is bit-exact, coarser buckets round contexts up to the
    bucket edge and trade ≤ one bucket of context for wall-clock speed.
    ``metrics="streaming"`` folds completions into constant-memory quantile
    sketches (:mod:`repro.analysis.streaming`) instead of materializing a
    ``CompletedRequest`` per request: percentiles become ≤1%-error
    estimates, counters stay exact, and memory no longer grows with trace
    length.  The default ``"exact"`` is bit-identical to the goldens.
    ``resilience`` attaches a :class:`~repro.cluster.resilience.
    ResilienceConfig` — deadlines, client retries, checkpointed restarts,
    and brown-out load shedding; ``None`` (the default) builds none of it
    and stays bit-identical to the goldens.
    ``backend="fluid"`` swaps the discrete-event loop for the analytic
    fluid/ODE model (:mod:`repro.cluster.fluid`) — milliseconds per run,
    approximate quantiles, same :class:`SimReport` shape.  The default
    ``"event"`` is bit-identical to the goldens.  The fluid backend cannot
    model failures or resilience responses, so composing it with
    ``resilience=`` (or scripted/sampled failures on the simulator) raises
    :class:`SpecError` instead of silently mis-estimating.
    """

    max_sim_time: float = 3600.0
    context_bucket: int = 1
    metrics: str = "exact"
    resilience: Optional[ResilienceConfig] = None
    backend: str = "event"

    def __post_init__(self) -> None:
        if self.max_sim_time <= 0:
            raise SpecError("max_sim_time must be positive")
        if self.context_bucket < 1:
            raise SpecError("context_bucket must be at least 1")
        if self.metrics not in ("exact", "streaming"):
            raise SpecError("metrics must be 'exact' or 'streaming'")
        if self.resilience is not None and not isinstance(self.resilience, ResilienceConfig):
            raise SpecError("resilience must be a ResilienceConfig or None")
        if self.backend not in ("event", "fluid"):
            raise SpecError("backend must be 'event' or 'fluid'")
        if self.backend == "fluid" and self.resilience is not None:
            raise SpecError(
                "backend='fluid' cannot model resilience responses; "
                "use the event backend for deadline/retry/checkpoint runs"
            )


@dataclass(frozen=True)
class SimReport:
    """Aggregate simulation outcome.

    With zero completed requests every latency statistic is NaN — never
    0.0, which would read as perfect latency.  ``requeued_on_failure``
    counts lost-work requeue *events*; ``restarted_requests`` counts
    distinct requests that restarted at least once.  ``duration`` is the
    clock of the last request-affecting event, so failure/repair
    bookkeeping on an idle cluster does not dilute the normalized metrics.

    The economics block closes the paper's perf-per-TCO loop:
    ``gpu_seconds`` are *provisioned* gpu-seconds (elastic pools hold
    fewer in the lulls), ``energy_joules`` integrates the DVFS-weighted
    power model over the run, and ``usd_per_mtoken`` is the amortized
    unit cost over completed output tokens (0.0 when none completed).
    Per-pool detail lives on the simulator's ``last_economics``.

    ``backend`` records provenance: ``"event"`` for discrete-event truth,
    ``"fluid"`` for the analytic fluid/ODE approximation
    (:mod:`repro.cluster.fluid`).  Tables and caches carry it through so a
    screened fluid estimate is never mistaken for event-level truth.
    """

    completed: int
    dropped: int
    duration: float
    ttft_p50: float
    ttft_p99: float
    tbt_mean: float
    tbt_p99: float
    e2e_p50: float
    e2e_p99: float
    output_tokens_per_s: float
    prefill_utilization: float
    decode_utilization: float
    requeued_on_failure: int
    restarted_requests: int = 0
    gpu_seconds: float = 0.0
    energy_joules: float = 0.0
    usd_cost: float = 0.0
    usd_per_mtoken: float = 0.0
    spawned_instances: int = 0
    retired_instances: int = 0
    # Resilience block (defaults match a run without a ResilienceConfig;
    # see repro.cluster.resilience.RESILIENCE_FIELDS).  ``goodput_tokens``
    # counts output tokens from requests that met their deadline and SLO;
    # ``availability`` is 1 - downtime-weighted instance-seconds lost.
    deadline_missed: int = 0
    timed_out: int = 0
    load_shed: int = 0
    truncated: int = 0
    retries: int = 0
    abandoned: int = 0
    goodput_tokens: int = 0
    goodput_tokens_per_s: float = 0.0
    slo_violations: int = 0
    slo_violation_rate: float = 0.0
    deadline_miss_rate: float = 0.0
    failure_hits: int = 0
    mttr_s: float = 0.0
    availability: float = 1.0
    # Provenance: which backend produced this report ("event" or "fluid").
    backend: str = "event"

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        text = (
            f"completed {self.completed} (dropped {self.dropped}) in {self.duration:.1f}s\n"
            f"  TTFT p50/p99 {self.ttft_p50 * 1e3:.0f}/{self.ttft_p99 * 1e3:.0f} ms, "
            f"TBT mean/p99 {self.tbt_mean * 1e3:.1f}/{self.tbt_p99 * 1e3:.1f} ms\n"
            f"  e2e p50/p99 {self.e2e_p50:.2f}/{self.e2e_p99:.2f} s, "
            f"{self.output_tokens_per_s:.0f} output tok/s\n"
            f"  utilization prefill {self.prefill_utilization:.2f} "
            f"decode {self.decode_utilization:.2f}, "
            f"requeued on failure {self.requeued_on_failure} "
            f"({self.restarted_requests} requests restarted)"
        )
        if self.gpu_seconds > 0:
            text += (
                f"\n  economics: {self.gpu_seconds:.0f} gpu-s, "
                f"{self.energy_joules / 3.6e6:.2f} kWh, ${self.usd_cost:.2f} "
                f"(${self.usd_per_mtoken:.2f}/Mtok)"
            )
            if self.spawned_instances or self.retired_instances:
                text += (
                    f", {self.spawned_instances} spawned / "
                    f"{self.retired_instances} retired"
                )
        sheds = self.deadline_missed + self.timed_out + self.load_shed
        if self.failure_hits or self.retries or sheds:
            text += (
                f"\n  resilience: goodput {self.goodput_tokens_per_s:.0f} tok/s, "
                f"{self.deadline_missed} deadline-missed / {self.timed_out} timed-out / "
                f"{self.load_shed} shed, {self.retries} retries "
                f"({self.abandoned} abandoned), "
                f"MTTR {self.mttr_s:.1f}s, availability {self.availability:.4f}"
            )
        return text


def assemble_report(
    *,
    completed: int,
    arrivals: int,
    duration: float,
    latencies: Callable[[], Sequence[float]],
    output_tokens: float,
    prefill_busy: float,
    decode_busy: float,
    priced_tokens: int,
    **totals,
) -> SimReport:
    """The report of a finished run: the one place the report format lives.

    Event runs (exact or streaming metrics), both fluid shapes and sharded
    merges all end here, each with the arithmetic only it knows done
    first: ``duration`` floored, ``prefill_busy``/``decode_busy`` as busy
    fractions of the first and last pool, ``latencies`` returning
    ``(ttft_p50, ttft_p99, tbt_mean, tbt_p99, e2e_p50, e2e_p99)``, and
    ``totals`` the :class:`SimReport` fields the run counted or summed
    itself (counters, the gpu-second/energy/$ totals, ``mttr_s``,
    ``availability``, ``backend``).  Derived here: NaN latencies without a
    completion (``latencies`` is then never called), ``dropped`` as
    arrivals that did not complete, throughput, the utilization clamp,
    $/Mtoken over ``priced_tokens``, and the goodput, SLO-violation and
    deadline-miss rates.
    """
    if completed:
        ttft_p50, ttft_p99, tbt_mean, tbt_p99, e2e_p50, e2e_p99 = latencies()
    else:
        ttft_p50 = ttft_p99 = tbt_mean = tbt_p99 = e2e_p50 = e2e_p99 = float("nan")
    usd_cost = totals.get("usd_cost", 0.0)
    return SimReport(
        completed=completed,
        dropped=arrivals - completed,
        duration=duration,
        ttft_p50=float(ttft_p50),
        ttft_p99=float(ttft_p99),
        tbt_mean=float(tbt_mean),
        tbt_p99=float(tbt_p99),
        e2e_p50=float(e2e_p50),
        e2e_p99=float(e2e_p99),
        output_tokens_per_s=output_tokens / duration,
        prefill_utilization=min(1.0, float(prefill_busy)),
        decode_utilization=min(1.0, float(decode_busy)),
        usd_per_mtoken=usd_cost / (priced_tokens / 1e6) if priced_tokens > 0 else 0.0,
        goodput_tokens_per_s=totals.get("goodput_tokens", 0) / duration,
        slo_violation_rate=totals.get("slo_violations", 0) / completed if completed else 0.0,
        deadline_miss_rate=totals.get("deadline_missed", 0) / arrivals if arrivals else 0.0,
        **totals,
    )


def sketch_latencies(metrics) -> Tuple[float, ...]:
    """Report latencies from a :class:`~repro.analysis.streaming.StreamingMetrics`.

    Estimates within the sketches' ≤1% rank error on the latency shapes
    the simulator produces.
    """
    ttft_p50, ttft_p99 = metrics.ttft.quantiles((0.5, 0.99))
    e2e_p50, e2e_p99 = metrics.e2e.quantiles((0.5, 0.99))
    tbt_p99 = metrics.tbt.quantile(0.99)
    return ttft_p50, ttft_p99, metrics.tbt.mean, tbt_p99, e2e_p50, e2e_p99


def _exact_latencies(completed: Sequence[CompletedRequest]) -> Tuple[float, ...]:
    # One pass over the completions builds a (n, 3) metric matrix, and one
    # vectorized percentile call covers every quantile column — instead of
    # three array builds plus five sorts.
    metrics = np.array([(c.ttft, c.mean_tbt, c.e2e) for c in completed])
    (ttft_p50, _, e2e_p50), (ttft_p99, tbt_p99, e2e_p99) = np.percentile(
        metrics, (50, 99), axis=0
    )
    return ttft_p50, ttft_p99, np.mean(metrics[:, 1]), tbt_p99, e2e_p50, e2e_p99


def _failure_limit(
    spawn_limits: Dict[str, int],
    controller: Optional[ClusterController],
    pool: str,
    initial: int,
) -> int:
    """Highest instance index scripted failures may legally target.

    Placement-bounded pools use their pre-placed group count; otherwise an
    elastic pool accepts faults up to the controller's growth cap (the
    engine no-ops faults on never-spawned instances), and a static pool
    keeps the strict initial bound.
    """
    if pool in spawn_limits:
        return spawn_limits[pool]
    if controller is not None:
        return max(initial, controller.max_instances)
    return initial


def check_composition(
    config: SimConfig,
    *,
    shards: int = 1,
    sharded: bool = False,
    topology: bool = False,
    placer: "str | Placement" = "packed",
    cluster_gpus: int = 0,
    network_model: str = "none",
    controller: Optional[ClusterController] = None,
    failure_model: Optional[FailureModel] = None,
    failures: Sequence = (),
    component_failures: Sequence = (),
    component_model: Optional[ComponentFailureModel] = None,
) -> None:
    """Reject run inputs that do not compose: every rule spanning two inputs.

    :class:`~repro.exec.runspec.RunSpec`, both simulators and
    :func:`~repro.exec.sharding.run_sharded` call it with the inputs each
    takes.  ``shards > 1`` (or ``sharded``) makes the run sharded, and
    ``topology`` says whether it co-simulates a fabric.  Fluid has no
    instance that loses its KV state and no controller resizing pools, and
    each shard runs its own engine, which cannot share a fabric or a
    controller with the others.
    """
    if shards < 1:
        raise SpecError("shards must be at least 1 (--shards)")
    sharded = sharded or shards > 1
    if network_model not in NETWORK_MODELS:
        raise SpecError(f"network_model must be one of {'/'.join(NETWORK_MODELS)}")
    if config.backend == "fluid":
        sampled = failure_model is not None or component_model is not None
        if failures or component_failures or sampled:
            raise SpecError(
                "backend='fluid' cannot model failures (scripted, sampled, or "
                "component-level); use the event backend for chaos/failure runs"
            )
        if controller is not None:
            raise SpecError(
                "backend='fluid' cannot model elastic controllers; "
                "use the event backend or controller=None"
            )
        if sharded:
            raise SpecError("backend='fluid' cannot be combined with --shards (use 'event')")
    if sharded:
        if topology:
            raise SpecError("--shards cannot be combined with --topology")
        if network_model != "none":
            raise SpecError("--shards cannot be combined with --network-model fabric")
        if controller is not None:
            raise SpecError("--shards cannot be combined with an elastic controller")
    if topology:
        return
    if (
        network_model != "none"
        or component_model is not None
        or component_failures
        or isinstance(placer, Placement)
    ):
        raise SpecError(
            "a topology is required for network_model != 'none', "
            "component failures, or an explicit Placement"
        )
    if placer != "packed" or cluster_gpus:
        raise SpecError("placer/cluster_gpus have no effect without --topology")


def _validate_failures(
    failures: Sequence[Tuple[float, str, int, float]],
    limits: Dict[str, int],
) -> List[Tuple[float, str, int, float]]:
    failures = sorted(failures)
    pools = "/".join(f"'{name}'" for name in limits)
    for time, pool, index, duration in failures:
        if pool not in limits:
            raise SpecError(f"failure pool must be {pools}")
        if not 0 <= index < limits[pool]:
            raise SpecError(f"failure instance index {index} out of range")
        if time < 0 or duration <= 0:
            raise SpecError("failure time/duration must be positive")
    return failures


class _Simulator:
    """The front-end both deployment shapes share.

    It works from a pool table of ``(name, InstanceSpec, n_instances)``
    whose last pool is the one that decodes.  Construction resolves
    failures, placement and one service-time provider per pool (the
    decoding pool's wrapped for checkpoint writes); :meth:`_run` drives the
    engine or the fluid backend and assembles the report and economics.
    Stochastic failures of pool ``i`` are sampled with seed
    ``failure_seed + i``.
    """

    def __init__(
        self,
        deployment: "PhasePools | ColocatedPool",
        pools: Sequence[Tuple[str, InstanceSpec, int]],
        config: SimConfig | None = None,
        failures: Sequence[Tuple[float, str, int, float]] = (),
        *,
        policies: PolicyBundle | str | None = None,
        failure_model: Optional[FailureModel] = None,
        failure_seed: int = 0,
        topology: Optional[Topology] = None,
        placer: "str | Placement" = "packed",
        network_model: str = "none",
        component_failures: Sequence[ComponentFailure] = (),
        component_model: Optional[ComponentFailureModel] = None,
        controller: "ClusterController | str | None" = None,
        economics: Optional[EconomicsConfig] = None,
    ) -> None:
        decoding, decode_spec, _ = pools[-1]
        require_kv_headroom(decode_spec, decoding)  # fail fast, before run()
        self._deployment = deployment
        self._pools = tuple(pools)
        self.config = config or SimConfig()
        self._policy_spec = policies
        self.topology = topology
        self.network_model = network_model
        self.controller = get_controller(controller)
        check_composition(
            self.config, topology=topology is not None, placer=placer,
            network_model=network_model, controller=self.controller,
            failure_model=failure_model, failures=failures,
            component_failures=component_failures, component_model=component_model,
        )
        self.economics = economics or EconomicsConfig()
        self.last_economics: Optional[EconomicsReport] = None
        # StreamingMetrics of the last run (None under metrics="exact");
        # sharded execution merges these across shard engines.
        self.last_metrics = None
        shapes, self._spawn_limits = _elastic_shapes(
            deployment.pool_shapes(), self.controller, topology, placer
        )
        self.placement = None if topology is None else _resolve_placement(topology, placer, shapes)
        all_failures = list(failures)
        horizon = self.config.max_sim_time
        if failure_model is not None:
            for offset, (name, spec, n) in enumerate(pools):
                all_failures += sample_failure_schedule(
                    failure_model, name, n, horizon,
                    seed=failure_seed + offset, gpus_per_instance=spec.n_gpus,
                )
        if self.placement is not None and (component_failures or component_model is not None):
            all_failures += _component_instance_failures(
                topology, self.placement, component_failures, component_model,
                horizon, failure_seed,
            )
        self.failures = _validate_failures(
            all_failures,
            {
                name: _failure_limit(self._spawn_limits, self.controller, name, n)
                for name, _, n in pools
            },
        )
        self.providers = [
            _make_provider(spec, self.config, network_model, topology, self.placement, name)
            for name, spec, _ in pools
        ]
        # Checkpointed restarts stream KV to storage during decode; the
        # wrapper is a no-op (returns the provider unchanged) unless a
        # checkpoint interval is configured.
        self.providers[-1] = wrap_checkpoint_writes(
            self.providers[-1], decode_spec, self.config.resilience
        )

    def _run(self, trace, engine_cls, fluid_report) -> SimReport:
        for provider in self.providers:
            provider.set_frequency(1.0)
        bundle = get_policy_bundle(self._policy_spec)
        if self.config.backend == "fluid":
            report, self.last_economics = fluid_report(
                self._deployment, self.config, trace, *self.providers, bundle, self.economics
            )
            self.last_metrics = None
            return report
        engine = engine_cls(
            self._deployment, self.config, bundle, *self.providers, self.failures,
            # A private copy per run: controllers keep hysteresis state.
            controller=copy.deepcopy(self.controller),
            power_curve=self.economics.curve,
            spawn_limits=self._spawn_limits,
        )
        engine.run(trace)
        self.last_metrics = metrics = engine.metrics
        states = engine.states
        duration = max(engine.work_time, 1e-9)
        econ = EconomicsReport(
            pools=tuple(
                pool_economics(name, spec, states[name], duration, self.economics)
                for name, spec, _ in self._pools
            ),
            duration=duration,
            output_tokens=engine.output_token_count,
        )
        self.last_economics = econ
        # Counters are exact in both metric modes; only the latencies come
        # from sketches under metrics="streaming".
        if metrics is None:
            completed = len(engine.completed)
            latencies = partial(_exact_latencies, engine.completed)
        else:
            completed, latencies = metrics.completed, partial(sketch_latencies, metrics)
        resilience = {}
        if engine.resilience is not None:
            resilience = engine.resilience.report_fields(engine._instance_seconds(duration))
        first, last = self._pools[0][0], self._pools[-1][0]
        # Output tokens come from the engine's counter rather than a sum
        # over completions: checkpointed restarts shrink a resumed request's
        # ``output_tokens`` and pay the difference back as credit only the
        # counter sees, and streaming metrics keep no completion list.
        # ``restarted_total`` counts distinct requests and survives the
        # streaming path's pruning, so sharded and unsharded runs agree.
        return assemble_report(
            completed=completed,
            arrivals=engine.arrivals,
            duration=duration,
            latencies=latencies,
            output_tokens=engine.output_token_count,
            prefill_busy=np.mean([s.busy_time for s in states[first]]) / duration,
            decode_busy=np.mean([s.busy_time for s in states[last]]) / duration,
            priced_tokens=econ.output_tokens,
            gpu_seconds=econ.gpu_seconds,
            energy_joules=econ.energy_joules,
            usd_cost=econ.usd_cost,
            requeued_on_failure=engine.requeued,
            restarted_requests=engine.restarted_total,
            spawned_instances=engine.spawned,
            retired_instances=engine.retired,
            **resilience,
        )


class ServingSimulator(_Simulator):
    """Event-driven simulation of a :class:`PhasePools` deployment.

    ``policies`` selects a :class:`PolicyBundle` by name or instance (see
    :data:`repro.cluster.policies.POLICY_BUNDLES`); the default ``"fcfs"``
    reproduces the seed simulator exactly.  ``failure_model`` adds
    stochastic instance failures (seeded by ``failure_seed``) on top of any
    scripted ``failures``.

    Topology co-simulation: pass a ``topology`` to map every instance onto
    physical GPUs (``placer`` names a :data:`repro.cluster.placement.PLACERS`
    entry, or is an explicit :class:`Placement`).  With
    ``network_model="fabric"`` service times gain placed collective costs;
    the default ``"none"`` stays bit-identical to the goldens.  Component
    faults — scripted :class:`ComponentFailure` events and/or a sampled
    :class:`ComponentFailureModel` — are resolved through the placement onto
    the instances they down.

    Elastic control: ``controller`` names a
    :data:`repro.cluster.control.CONTROLLERS` entry (or is an instance);
    the engine steps it every ``controller.epoch`` seconds to spawn,
    drain, or DVFS-throttle instances.  ``None`` and ``"static"`` (which
    resolves to ``None``) are bit-identical to the pre-control-plane
    engine.  With a topology, the growth headroom is pre-placed so spawns
    land on concrete GPU groups.
    ``economics`` sets the cost assumptions behind the report's
    gpu-seconds/energy/$ fields; per-pool detail is kept on
    ``self.last_economics`` after each run.
    """

    def __init__(
        self,
        pools: PhasePools,
        config: SimConfig | None = None,
        failures: Sequence[Tuple[float, str, int, float]] = (),
        **options,
    ) -> None:
        self.pools = pools
        super().__init__(
            pools,
            (("prefill", pools.prefill, pools.n_prefill), ("decode", pools.decode, pools.n_decode)),
            config, failures, **options,
        )
        self.prefill_provider, self.decode_provider = self.providers

    def run(self, trace: "Sequence[Request] | Iterable[Request]") -> SimReport:
        """Simulate the trace to completion (or the time horizon).

        ``trace`` may also be an iterator of arrival-ordered requests (e.g.
        :func:`repro.workloads.traces.iter_trace`): arrivals are then fed
        one ahead of the clock, so memory stays bounded by in-flight work.

        >>> # see examples/splitwise_serving.py for an end-to-end run
        """
        from .fluid import fluid_phase_split_report  # local: fluid imports this module

        return self._run(trace, PhaseSplitEngine, fluid_phase_split_report)


class ColocatedSimulator(_Simulator):
    """Event-driven simulation of a :class:`ColocatedPool` deployment.

    Scripted failures use pool name ``"colocated"``.  The report's
    ``prefill_utilization`` and ``decode_utilization`` are both the pool's
    busy fraction (there is only one pool).  The topology co-simulation
    knobs (``topology``/``placer``/``network_model``/component failures)
    and the elastic knobs (``controller``/``economics``) behave exactly as
    on :class:`ServingSimulator`; controllers scale the single
    ``"colocated"`` pool.
    """

    def __init__(
        self,
        pool: ColocatedPool,
        config: SimConfig | None = None,
        failures: Sequence[Tuple[float, str, int, float]] = (),
        **options,
    ) -> None:
        self.pool = pool
        super().__init__(
            pool, (("colocated", pool.instance, pool.n_instances),), config, failures, **options
        )
        (self.provider,) = self.providers

    def run(self, trace: "Sequence[Request] | Iterable[Request]") -> SimReport:
        """Simulate the trace to completion (or the time horizon).

        Iterator traces are fed one arrival ahead of the clock, exactly as
        on :meth:`ServingSimulator.run`.
        """
        from .fluid import fluid_colocated_report  # local: fluid imports this module

        return self._run(trace, ColocatedEngine, fluid_colocated_report)


_SIMULATORS = {PhasePools: ServingSimulator, ColocatedPool: ColocatedSimulator}


def simulator_for(deployment: "PhasePools | ColocatedPool") -> type:
    """The simulator class that runs a deployment shape."""
    try:
        return _SIMULATORS[type(deployment)]
    except KeyError:
        raise SpecError("deployment must be a PhasePools or ColocatedPool") from None
