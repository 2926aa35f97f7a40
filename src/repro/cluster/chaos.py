"""Chaos harness: scripted failure scenarios that measure blast radius.

The resilience layer (:mod:`repro.cluster.resilience`) gives the engine a
vocabulary for surviving failures; this module turns it into the paper's
experiment.  Three canned scenarios, each pitting configurations against
the same deterministic trace and the same scripted hardware faults:

- :func:`blast_radius_scenario` — one 8-GPU rack power domain dies in a
  big-GPU fleet and in a Lite-GPU fleet of equal aggregate capacity.  The
  rack takes out 4 of 6 big decode instances but only 2 of 12 Lite ones,
  so the big fleet's surviving capacity drops below offered load while the
  Lite fleet shrugs — the HotOS claim ("smaller blast radius") as a
  measured goodput dip.
- :func:`checkpoint_scenario` — the same rack fault under a
  long-generation workload, with and without checkpointed restarts.
  Restart-from-prefill victims redo their entire generation inside an
  overloaded recovery window and miss deadlines; checkpointed victims
  resume and meet them — higher goodput and lower MTTR.
- :func:`retry_storm_scenario` — a 15-second arrival burst against a
  saturated deployment, replayed under three client retry policies.
  Naive fixed backoff re-offers timed-out work in lockstep and keeps the
  queues deep long after the burst (metastable overload: tail latency and
  SLO violations never recover inside the horizon); capped exponential
  backoff with jitter sheds the storm and recovers.

Every scenario is deterministic (seeded traces, scripted faults, no
global RNG), so the numbers in ``BENCH_chaos.json`` and the assertions in
``benchmarks/test_chaos_resilience.py`` are reproducible bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.roofline import RooflinePolicy
from ..hardware.gpu import H100, LITE
from ..network.topology import DirectConnectTopology, Topology
from ..workloads.models import LLAMA3_8B
from ..workloads.traces import (
    LengthDistribution,
    TraceConfig,
    generate_piecewise_trace,
    generate_trace,
)
from .failures import ComponentFailure
from .resilience import ExpJitterRetry, FixedRetry, ResilienceConfig
from .scheduler import InstanceSpec, PhasePools
from .simulator import ServingSimulator, SimConfig, SimReport

__all__ = [
    "big_fleet",
    "lite_fleet",
    "blast_radius_scenario",
    "checkpoint_scenario",
    "retry_storm_scenario",
]


def big_fleet(policy=None) -> "tuple[PhasePools, Topology, int]":
    """16 H100s: 2x TP2 prefill + 6x TP2 decode, one 16-GPU fabric.

    Returns ``(pools, topology, decode_rack)`` where ``decode_rack`` is the
    8-GPU rack power domain whose loss lands entirely on the decode pool
    (instances 2-5 of 6 — two thirds of decode capacity).
    """
    spec = InstanceSpec(LLAMA3_8B, H100, 2, policy or RooflinePolicy())
    pools = PhasePools(prefill=spec, n_prefill=2, decode=spec, n_decode=6, max_decode_batch=64)
    return pools, DirectConnectTopology(n_gpus=16, group=8), 1


def lite_fleet(policy=None) -> "tuple[PhasePools, Topology, int]":
    """64 Lite-GPUs (each 1/4 of an H100): equal aggregate capacity.

    4x TP4 prefill + 12x TP4 decode.  The same 8-GPU rack domain now holds
    only 2 of 12 decode instances (rack 2, GPUs 16-23) — one sixth of
    decode capacity instead of two thirds.
    """
    spec = InstanceSpec(LLAMA3_8B, LITE, 4, policy or RooflinePolicy())
    pools = PhasePools(prefill=spec, n_prefill=4, decode=spec, n_decode=12, max_decode_batch=64)
    return pools, DirectConnectTopology(n_gpus=64, group=4), 2


def _run(
    pools: PhasePools,
    topology: Topology,
    trace,
    resilience: ResilienceConfig,
    rack: Optional[int] = None,
    fail_at: float = 30.0,
    repair_s: float = 45.0,
    metrics: str = "exact",
) -> SimReport:
    faults = [ComponentFailure(fail_at, "rack", rack, repair_s)] if rack is not None else []
    sim = ServingSimulator(
        pools,
        config=SimConfig(resilience=resilience, metrics=metrics),
        topology=topology,
        component_failures=faults,
        # Round-robin keeps every decode instance loaded, so the rack's
        # victims are real in-flight work rather than idle spares.
        policies="round-robin",
    )
    return sim.run(trace)


def blast_radius_scenario(
    rate: float = 250.0,
    duration: float = 120.0,
    seed: int = 7,
    metrics: str = "exact",
) -> Dict[str, SimReport]:
    """Rack failure, big vs. Lite fleet at equal aggregate capacity.

    Both fleets serve the same decode-bound trace; at t=30s one 8-GPU rack
    dies for 45s.  Keys: ``big/base``, ``big/rack``, ``lite/base``,
    ``lite/rack`` — compare per-fleet dips with
    :func:`~repro.cluster.resilience.goodput_dip`.
    """
    trace = generate_trace(
        TraceConfig(
            rate=rate,
            duration=duration,
            prompt_tokens=512,
            output_tokens=400,
            max_output=1500,
        ),
        seed=seed,
    )
    resilience = ResilienceConfig(
        deadline_s=15.0,
        queue_timeout_s=6.0,
        retry="exp_jitter",
        slo_ttft_s=4.0,
    )
    out: Dict[str, SimReport] = {}
    for name, (pools, topology, rack) in (("big", big_fleet()), ("lite", lite_fleet())):
        out[f"{name}/base"] = _run(pools, topology, trace, resilience, metrics=metrics)
        out[f"{name}/rack"] = _run(pools, topology, trace, resilience, rack=rack, metrics=metrics)
    return out


def checkpoint_scenario(
    rate: float = 70.0,
    duration: float = 120.0,
    seed: int = 7,
    checkpoint_interval: int = 128,
    metrics: str = "exact",
) -> Dict[str, SimReport]:
    """Checkpointed restarts vs. restart-from-prefill under a rack fault.

    Long constant generations (1500 tokens) on the big fleet; the rack
    dies at t=45s for 30s, so victims carry substantial progress and the
    recovery window is overloaded.  Keys: ``plain``, ``ckpt``.
    """
    pools, topology, rack = big_fleet()
    trace = generate_trace(
        TraceConfig(
            rate=rate,
            duration=duration,
            prompt_tokens=512,
            output_dist=LengthDistribution.CONSTANT,
            output_tokens=1500,
        ),
        seed=seed,
    )

    def config(**kw) -> ResilienceConfig:
        return ResilienceConfig(
            deadline_s=12.0,
            queue_timeout_s=5.0,
            retry="exp_jitter",
            slo_ttft_s=5.0,
            **kw,
        )

    def run(cfg: ResilienceConfig) -> SimReport:
        return _run(
            pools, topology, trace, cfg, rack=rack, fail_at=45.0, repair_s=30.0, metrics=metrics
        )

    return {
        "plain": run(config()),
        # A fast checkpoint tier (1 TB/s aggregate) keeps the write tax
        # under 1% of decode throughput; the resume benefit dominates.
        "ckpt": run(config(checkpoint_interval=checkpoint_interval, checkpoint_bandwidth=1e12)),
    }


def retry_storm_scenario(
    seed: int = 11,
    metrics: str = "exact",
    only: Optional[Sequence[str]] = None,
) -> Dict[str, SimReport]:
    """Metastable overload: a burst plus naive clients vs. backoff+jitter.

    A small deployment (1 prefill + 2 decode TP2 H100s) runs near
    saturation at 35 req/s; a 15-second 400 req/s burst floods it.  Keys:
    ``none`` (shed and give up), ``fixed`` (1s lockstep backoff, 40
    attempts — the naive client), ``exp_jitter`` (capped, jittered).
    Goodput counts only completions inside a 10s end-to-end SLO, so work
    the storm delays past usefulness is wasted capacity.  ``only`` limits
    the run to a subset of those keys (the memory benchmark traces just
    the worst-case ``fixed`` client).
    """
    spec = InstanceSpec(LLAMA3_8B, H100, 2, RooflinePolicy())
    pools = PhasePools(prefill=spec, n_prefill=1, decode=spec, n_decode=2, max_decode_batch=32)
    trace = generate_piecewise_trace(
        [(35.0, 20.0), (400.0, 15.0), (35.0, 300.0)],
        base=TraceConfig(prompt_tokens=512, output_tokens=300, max_output=1200),
        seed=seed,
    )
    out: Dict[str, SimReport] = {}
    for name, retry in (
        ("none", "none"),
        ("fixed", FixedRetry(delay=1.0, max_attempts=40)),
        ("exp_jitter", ExpJitterRetry(max_attempts=5)),
    ):
        if only is not None and name not in only:
            continue
        resilience = ResilienceConfig(queue_timeout_s=4.0, retry=retry, slo_e2e_s=10.0)
        sim = ServingSimulator(
            pools,
            config=SimConfig(resilience=resilience, metrics=metrics),
            policies="round-robin",
        )
        out[name] = sim.run(trace)
    return out
