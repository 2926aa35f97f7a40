"""Sharded simulation: split one big run into mergeable per-shard runs.

A 10M-request day against a large deployment is one giant event loop.  But
when the deployment is a pool of independent instances and routing is the
only coupling between them, the run factors: partition the instances into
``shards`` sub-deployments, route each request to a shard up front (with
the same pluggable :data:`~repro.cluster.policies.ROUTING_POLICIES` the
engines use), simulate every shard independently — optionally across
worker processes via :func:`~repro.exec.runner.run_many` — and merge the
shards' streaming sketches and exact counters into one
:class:`~repro.cluster.simulator.SimReport`.

The merge is deterministic: counters are integer sums (bit-exact in any
order), durations take the max, utilizations recombine via busy-time
reconstruction (``util_i * duration_i * n_instances_i``), and latency
percentiles come from merging the shards'
:class:`~repro.analysis.streaming.QuantileSketch` objects — associative up
to the sketch's rank-error bound, so ``shards=N`` agrees with ``shards=1``
within tolerance (property-pinned in ``tests/exec/test_sharding.py``).

What sharding models — and what it gives up: the up-front shard routing
replaces the engine's per-event routing *across* shard boundaries, so a
request can never spill from a hot shard to an idle instance in another
shard.  With a balancing shard policy (the default token-weighted
``"least-loaded"``) the difference is small at scale; it is zero when the
unsharded router is index-blind.  Topology/controller co-simulation is
whole-cluster by nature and is not shardable — those knobs are rejected
(:func:`~repro.cluster.simulator.check_composition`), and so is the fluid
backend, which is milliseconds per run already and whose per-shard
profiles would lose the queue coupling.

Memory: each shard engine runs with ``metrics="streaming"`` (constant
memory) and reads its sub-trace one arrival ahead of its clock, so it holds
one sketch bundle and one pending arrival — never the per-completion lists
or its whole backlog of arrivals on the event heap.  The partition itself
still materializes the whole trace: :func:`shard_requests` returns one list
per shard, so the sharded path's footprint grows with the ``Request``
objects of the trace.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..analysis.streaming import StreamingMetrics
from ..cluster.policies import ROUTING_POLICIES, RoutingPolicy
from ..cluster.scheduler import ColocatedPool, PhasePools
from ..cluster.simulator import (
    SimConfig,
    SimReport,
    assemble_report,
    check_composition,
    simulator_for,
    sketch_latencies,
)
from ..errors import SpecError
from .runner import Job, run_many
from .seeding import derive_seed

__all__ = [
    "shard_requests",
    "shard_deployment",
    "run_sharded",
    "merge_shard_results",
]


def _resolve_routing(policy: Any):
    """A fresh routing-policy instance from a name or instance."""
    if isinstance(policy, str):
        return ROUTING_POLICIES.get(policy)()
    if isinstance(policy, RoutingPolicy):
        return policy
    raise SpecError("shard_policy must be a routing-policy name or instance")


def shard_requests(
    trace: Iterable,
    n_shards: int,
    policy: Any = "least-loaded",
    weights: Optional[Sequence[float]] = None,
) -> List[List[Any]]:
    """Partition an arrival-ordered trace across ``n_shards`` shards.

    ``policy`` is a :data:`~repro.cluster.policies.ROUTING_POLICIES` name
    (or instance) ranking shards by load; each request goes to the policy's
    first choice (:meth:`~repro.cluster.policies.RoutingPolicy.first`, the
    head of its ``order``), where a shard's load is its assigned
    prompt+output tokens divided by its ``weights`` entry (shard capacity —
    defaults to equal).
    The default ``"least-loaded"`` keeps shards token-balanced;
    ``"round-robin"`` stripes; ``"index-order"`` sends everything to shard
    0 (degenerate, but honest to the policy's semantics).

    Deterministic: a fresh policy instance plus an ordered fold over the
    trace means the same inputs always produce the same partition.  Each
    shard's sub-trace preserves arrival order; request ids are untouched
    (they are globally unique already).
    """
    if n_shards < 1:
        raise SpecError("n_shards must be at least 1")
    if weights is not None and len(weights) != n_shards:
        raise SpecError("weights must have one entry per shard")
    router = _resolve_routing(policy)
    scale = [float(w) for w in weights] if weights is not None else [1.0] * n_shards
    if any(w <= 0 for w in scale):
        raise SpecError("shard weights must be positive")
    shards: List[List[Any]] = [[] for _ in range(n_shards)]
    loads = [0.0] * n_shards
    for request in trace:
        target = router.first(loads)
        shards[target].append(request)
        tokens = request.prompt_tokens + request.output_tokens
        loads[target] += tokens / scale[target]
    return shards


def _split(count: int, n_shards: int) -> List[int]:
    """``count`` instances divided as evenly as possible, earlier shards first."""
    base, rem = divmod(count, n_shards)
    return [base + (1 if i < rem else 0) for i in range(n_shards)]


def shard_deployment(deployment: Any, n_shards: int) -> List[Any]:
    """Split a deployment's instances into ``n_shards`` sub-deployments.

    Instances are divided as evenly as possible (earlier shards take the
    remainder).  Every shard must keep at least one instance of each pool,
    so ``n_shards`` is bounded by the smallest pool.
    """
    if n_shards < 1:
        raise SpecError("n_shards must be at least 1")
    if isinstance(deployment, PhasePools):
        if n_shards > min(deployment.n_prefill, deployment.n_decode):
            raise SpecError(
                "n_shards cannot exceed the smallest pool "
                f"(min(n_prefill={deployment.n_prefill}, "
                f"n_decode={deployment.n_decode}))"
            )
        return [
            replace(deployment, n_prefill=p, n_decode=d)
            for p, d in zip(
                _split(deployment.n_prefill, n_shards), _split(deployment.n_decode, n_shards)
            )
        ]
    if isinstance(deployment, ColocatedPool):
        if n_shards > deployment.n_instances:
            raise SpecError(
                f"n_shards cannot exceed n_instances={deployment.n_instances}"
            )
        return [
            replace(deployment, n_instances=n) for n in _split(deployment.n_instances, n_shards)
        ]
    raise SpecError("deployment must be a PhasePools or ColocatedPool")


def _shard_scripted_failures(
    deployment: Any, n_shards: int, failures: Sequence[Tuple[float, str, int, float]]
) -> List[List[Tuple[float, str, int, float]]]:
    """Map whole-deployment scripted failures onto shard-local indices.

    Uses the same even split as :func:`shard_deployment`, so global
    instance ``index`` of ``pool`` lands on exactly the shard that owns
    that instance — a parity prerequisite: ``shards=N`` must hit the same
    hardware at the same times as ``shards=1``.
    """
    sizes = {
        shape.name: _split(shape.n_instances, n_shards) for shape in deployment.pool_shapes()
    }
    out: List[List[Tuple[float, str, int, float]]] = [[] for _ in range(n_shards)]
    for time, pool, index, duration in failures:
        if pool not in sizes:
            pools = "/".join(f"'{name}'" for name in sizes)
            raise SpecError(f"unknown failure pool '{pool}' (expected {pools})")
        remaining = index
        for shard, size in enumerate(sizes[pool]):
            if remaining < size:
                out[shard].append((time, pool, remaining, duration))
                break
            remaining -= size
        else:
            raise SpecError(f"failure index {index} out of range for pool '{pool}'")
    return out


def _run_shard(
    deployment: Any,
    trace: Sequence,
    config: Any,
    policies: Any,
    failure_model: Any,
    failure_seed: int,
    failures: Sequence[Tuple[float, str, int, float]] = (),
) -> Dict[str, Any]:
    """Simulate one shard; module-level so worker processes can pickle it.

    The engine reads the sub-trace as an iterator, one arrival ahead of its
    clock, so its event heap never holds the shard's whole backlog.
    """
    sim = simulator_for(deployment)(
        deployment,
        config,
        policies=policies,
        failure_model=failure_model,
        failure_seed=failure_seed,
        failures=failures,
    )
    report = sim.run(iter(trace))
    shapes = deployment.pool_shapes()
    return {
        "report": report,
        "metrics": sim.last_metrics,
        # First and last pool: a colocated pool counts as both.
        "prefill_n": shapes[0].n_instances,
        "decode_n": shapes[-1].n_instances,
    }


#: SimReport fields a sharded run sums over its shard reports, in shard order.
_SUMMED_FIELDS = (
    "requeued_on_failure", "restarted_requests", "gpu_seconds", "energy_joules", "usd_cost",
    "spawned_instances", "retired_instances", "deadline_missed", "timed_out", "load_shed",
    "truncated", "retries", "abandoned", "goodput_tokens", "slo_violations", "failure_hits",
)


def merge_shard_results(parts: Sequence[Dict[str, Any]]) -> SimReport:
    """Fold per-shard results into one :class:`SimReport`.

    Counters and economics totals (``_SUMMED_FIELDS``) sum in shard
    order; integer sums are exact, and so are the distinct-request counts
    (``restarted_requests``) because shard request-id sets are disjoint.
    ``completed`` and the output tokens come from the merged sketches,
    ``duration`` is the latest shard clock, utilizations recombine from
    reconstructed busy time, ``mttr_s`` is the failure-hit-weighted mean
    and ``availability`` the instance-second-weighted mean.  The report
    assembler derives the rest (latencies, rates, $/Mtoken) from these.
    """
    if not parts:
        raise SpecError("cannot merge zero shard results")
    metrics = StreamingMetrics.merged([p["metrics"] for p in parts])
    reports = [p["report"] for p in parts]
    duration = max(max(r.duration for r in reports), 1e-9)
    prefill_n = sum(p["prefill_n"] for p in parts)
    decode_n = sum(p["decode_n"] for p in parts)
    prefill_busy = sum(
        r.prefill_utilization * r.duration * p["prefill_n"]
        for r, p in zip(reports, parts)
    )
    decode_busy = sum(
        r.decode_utilization * r.duration * p["decode_n"]
        for r, p in zip(reports, parts)
    )
    sums = {name: sum(getattr(r, name) for r in reports) for name in _SUMMED_FIELDS}
    failure_hits = sums["failure_hits"]
    # Weighted means: MTTR by each shard's failure hits; availability by
    # instance-seconds (duration × instances — the same scale the shards
    # normalized their own downtime by).
    mttr_s = (
        sum(r.mttr_s * r.failure_hits for r in reports) / failure_hits
        if failure_hits
        else 0.0
    )
    inst_seconds = [
        r.duration * (p["prefill_n"] + p["decode_n"]) for r, p in zip(reports, parts)
    ]
    total_inst_seconds = sum(inst_seconds)
    availability = (
        sum(r.availability * w for r, w in zip(reports, inst_seconds)) / total_inst_seconds
        if total_inst_seconds > 0
        else 1.0
    )
    return assemble_report(
        completed=metrics.completed,
        arrivals=metrics.completed + sum(r.dropped for r in reports),
        duration=duration,
        latencies=partial(sketch_latencies, metrics),
        output_tokens=metrics.output_tokens,
        prefill_busy=prefill_busy / (duration * max(prefill_n, 1)),
        decode_busy=decode_busy / (duration * max(decode_n, 1)),
        priced_tokens=metrics.output_tokens,
        mttr_s=mttr_s,
        availability=availability,
        **sums,
    )


def run_sharded(
    deployment: Any,
    trace: Iterable,
    config: Any = None,
    *,
    shards: int,
    policies: Any = None,
    failure_model: Any = None,
    failure_seed: int = 0,
    shard_policy: Union[str, Any] = "least-loaded",
    workers: int = 1,
    failures: Sequence[Tuple[float, str, int, float]] = (),
) -> Any:
    """Simulate ``trace`` as ``shards`` independent sub-runs and merge.

    The deployment's instances and the trace's requests are partitioned
    (see :func:`shard_deployment` / :func:`shard_requests`), each shard
    runs its own engine with ``metrics="streaming"`` and a failure seed
    derived as ``derive_seed(failure_seed, "shard", i)``, and the results
    merge via :func:`merge_shard_results`.  ``workers > 1`` fans shards
    across processes through :func:`~repro.exec.runner.run_many` — results
    are bit-identical to ``workers=1`` because the merge consumes shard
    results in shard order regardless of scheduling.

    ``failures`` accepts the simulators' scripted ``(time, pool, index,
    duration)`` tuples with *whole-deployment* indices; each maps onto the
    shard owning that instance (:func:`_shard_scripted_failures`), so
    restart/retry counters match the unsharded run exactly.  ``trace`` may
    be any iterable (e.g. :func:`~repro.workloads.traces.iter_trace`); it
    is consumed once.  Topology and controller knobs remain whole-cluster
    concerns and are not supported here — use the unsharded simulators.

    Each shard engine reads its sub-trace as an iterator and so follows the
    engines' iterator-path tie rule: an arrival is pushed only when the one
    before it pops, so at an equal timestamp it replays after events pushed
    earlier (a materialized trace's arrivals, pushed up front, replay
    first).
    """
    config = config or SimConfig()
    check_composition(
        config, shards=shards, sharded=True, failure_model=failure_model, failures=failures
    )
    config = replace(config, metrics="streaming")
    sub_deployments = shard_deployment(deployment, shards)
    weights = [d.total_gpus for d in sub_deployments]
    sub_traces = shard_requests(trace, shards, policy=shard_policy, weights=weights)
    sub_failures = _shard_scripted_failures(deployment, shards, failures)
    jobs = [
        Job(
            fn=_run_shard,
            args=(
                sub_deployments[i],
                sub_traces[i],
                config,
                policies,
                failure_model,
                derive_seed(failure_seed, "shard", i),
                tuple(sub_failures[i]),
            ),
            label=f"shard-{i}",
        )
        for i in range(shards)
    ]
    outcomes = run_many(jobs, workers=workers)
    failed = [o for o in outcomes if not o.ok]
    if failed:
        raise SpecError(f"shard {failed[0].label} failed: {failed[0].error}")
    return merge_shard_results([o.value for o in outcomes])
