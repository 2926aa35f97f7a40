"""Roofline engine: turn per-stage resource costs into stage times.

Section 4: *"Compute, memory I/O, and network I/O can overlap within each
stage"* — so a stage's time is the **max** of its compute, memory, and
network components (an additive mode is provided for sensitivity studies).

The network component prices the tensor-parallel collectives.  Three
charging models are implemented because the choice materially changes the
Lite-GPU story (see DESIGN.md §4 and the network-charging ablation):

- :attr:`CommModel.FLAT_RING` — textbook ring collectives across all ranks:
  per-GPU wire volume ~ the full activation tensor, priced at per-GPU
  injection bandwidth.  Most pessimistic for large tensor-parallel degrees.
- :attr:`CommModel.HIERARCHICAL` — the library default, matching the paper's
  own deployment model (Figure 2): ranks form direct-connect scale-up
  domains (Lite-groups of 4; the H100's NVLink domain of 8).  Collectives
  reduce-scatter inside the domain over the extra mesh shoreline, run the
  inter-domain phase on 1/group-sized shards concurrently across the group's
  uplinks, then all-gather inside the domain.
- :attr:`CommModel.SHARDED` — optimistic full-bisection charging: per-GPU
  wire volume scales with the activation *shard* (S / degree).  Upper bound;
  reproduces the paper's decode bars most aggressively.

All bandwidths are derated by the policy's efficiency factors; every hop
pays the latency ``alpha``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from ..errors import SpecError
from ..hardware.gpu import GPUSpec
from ..units import US
from .parallelism import KVPlacement


class CommModel(enum.Enum):
    """Collective-communication charging models (see module docstring)."""

    FLAT_RING = "flat_ring"
    HIERARCHICAL = "hierarchical"
    SHARDED = "sharded"


@dataclass(frozen=True)
class RooflinePolicy:
    """Modeling constants of the roofline evaluation.

    ``mfu``: achievable fraction of peak FLOPS within a compute stage;
    ``mem_efficiency`` / ``net_efficiency``: achievable bandwidth fractions;
    ``alpha``: per-hop collective latency; ``overlap``: "max" (paper) or
    "sum"; byte widths: FP8 weights and KV cache, FP16 activations on the
    wire (DESIGN.md §4.1).
    """

    mfu: float = 0.85
    mem_efficiency: float = 0.90
    net_efficiency: float = 0.90
    alpha: float = 1.0 * US
    comm_model: CommModel = CommModel.HIERARCHICAL
    overlap: str = "max"
    weight_bytes: float = 1.0
    kv_bytes: float = 1.0
    act_bytes: float = 2.0
    kv_placement: KVPlacement = KVPlacement.SHARDED
    causal_discount: float = 0.5  # prefill attention FLOPs under causal mask
    memory_reserve_fraction: float = 0.05

    def __post_init__(self) -> None:
        for name in ("mfu", "mem_efficiency", "net_efficiency"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise SpecError(f"{name} must be in (0, 1]")
        if self.alpha < 0:
            raise SpecError("alpha must be non-negative")
        if self.overlap not in ("max", "sum"):
            raise SpecError("overlap must be 'max' or 'sum'")
        if min(self.weight_bytes, self.kv_bytes, self.act_bytes) <= 0:
            raise SpecError("byte widths must be positive")
        if not 0.0 < self.causal_discount <= 1.0:
            raise SpecError("causal_discount must be in (0, 1]")

    @classmethod
    def paper(cls) -> "RooflinePolicy":
        """The configuration used for the Figure 3 reproduction."""
        return cls()

    @classmethod
    def pessimistic(cls) -> "RooflinePolicy":
        """Flat-ring charging — the honest-physics lower bound."""
        return cls(comm_model=CommModel.FLAT_RING)

    @classmethod
    def optimistic(cls) -> "RooflinePolicy":
        """Shard-proportional charging — the full-bisection upper bound."""
        return cls(comm_model=CommModel.SHARDED)


def _ring_time(size: float, ranks: int, bandwidth: float, alpha: float, factor: float) -> float:
    """One ring pass over ``ranks`` moving ``factor * (r-1)/r * size`` bytes
    per rank at ``bandwidth`` (``factor`` = 2 for all-reduce, 1 for
    all-gather / reduce-scatter)."""
    if ranks <= 1:
        return 0.0
    steps = factor * (ranks - 1)
    volume = factor * (ranks - 1) / ranks * size
    return steps * alpha + volume / bandwidth


def _domain_split(degree: int, gpu: GPUSpec) -> Tuple[int, int]:
    """(group size, group count) for hierarchical collectives."""
    g = min(gpu.scaleup_domain, degree)
    if degree % g != 0:
        return degree, 1  # ragged degree: treat as one flat domain
    return g, degree // g


def tp_allreduce_time(size_bytes: float, degree: int, gpu: GPUSpec, policy: RooflinePolicy) -> float:
    """Time of one tensor-parallel all-reduce of ``size_bytes`` (logical).

    >>> from repro.hardware import H100
    >>> tp_allreduce_time(0.0, 8, H100, RooflinePolicy()) >= 0
    True
    """
    if size_bytes < 0:
        raise SpecError("size_bytes must be non-negative")
    if degree <= 0:
        raise SpecError("degree must be positive")
    if degree == 1 or size_bytes == 0.0:
        return 0.0 if degree == 1 else _dispatch_allreduce(size_bytes, degree, gpu, policy)
    return _dispatch_allreduce(size_bytes, degree, gpu, policy)


def _dispatch_allreduce(size: float, degree: int, gpu: GPUSpec, policy: RooflinePolicy) -> float:
    if degree == 1:
        return 0.0
    mesh = gpu.mesh_bandwidth * policy.net_efficiency
    net = gpu.net_bandwidth * policy.net_efficiency
    alpha = policy.alpha
    g, groups = _domain_split(degree, gpu)
    if policy.comm_model is CommModel.FLAT_RING:
        bandwidth = mesh if degree <= gpu.scaleup_domain else net
        return _ring_time(size, degree, bandwidth, alpha, factor=2.0)
    if policy.comm_model is CommModel.SHARDED:
        bandwidth = mesh if degree <= gpu.scaleup_domain else net
        steps = 2 * (degree - 1)
        volume = 2.0 * (degree - 1) / degree * size / degree
        return steps * alpha + volume / bandwidth
    # HIERARCHICAL: reduce-scatter in-domain, all-reduce across domains on
    # 1/g shards (all g uplinks of a domain work concurrently), all-gather
    # in-domain.
    if groups == 1:
        return _ring_time(size, g, mesh, alpha, factor=2.0)
    intra = 2.0 * _ring_time(size, g, mesh, alpha, factor=1.0)  # RS + AG
    inter = _ring_time(size / g, groups, net, alpha, factor=2.0)
    return intra + inter


def tp_allgather_time(size_bytes: float, degree: int, gpu: GPUSpec, policy: RooflinePolicy) -> float:
    """Time of one all-gather whose *gathered* size is ``size_bytes``."""
    if size_bytes < 0:
        raise SpecError("size_bytes must be non-negative")
    if degree <= 1:
        return 0.0
    mesh = gpu.mesh_bandwidth * policy.net_efficiency
    net = gpu.net_bandwidth * policy.net_efficiency
    alpha = policy.alpha
    g, groups = _domain_split(degree, gpu)
    if policy.comm_model is CommModel.FLAT_RING:
        bandwidth = mesh if degree <= gpu.scaleup_domain else net
        return _ring_time(size_bytes, degree, bandwidth, alpha, factor=1.0)
    if policy.comm_model is CommModel.SHARDED:
        bandwidth = mesh if degree <= gpu.scaleup_domain else net
        steps = degree - 1
        volume = (degree - 1) / degree * size_bytes / degree
        return steps * alpha + volume / bandwidth
    if groups == 1:
        return _ring_time(size_bytes, g, mesh, alpha, factor=1.0)
    inter = _ring_time(size_bytes / g, groups, net, alpha, factor=1.0)
    intra = _ring_time(size_bytes, g, mesh, alpha, factor=1.0)
    return inter + intra


def tp_alltoall_time(size_bytes: float, degree: int, gpu: GPUSpec, policy: RooflinePolicy) -> float:
    """Time of one all-to-all whose *global* payload is ``size_bytes``.

    Expert-parallel MoE dispatch/combine: each rank holds ``S/degree`` of
    the tokens and re-sends the ``(degree-1)/degree`` fraction destined for
    other ranks.  Unlike all-reduce, the volume genuinely shrinks with the
    degree, so hierarchical scheduling buys nothing; the inter-domain link
    rate applies beyond one scale-up domain.
    """
    if size_bytes < 0:
        raise SpecError("size_bytes must be non-negative")
    if degree <= 1:
        return 0.0
    mesh = gpu.mesh_bandwidth * policy.net_efficiency
    net = gpu.net_bandwidth * policy.net_efficiency
    bandwidth = mesh if degree <= gpu.scaleup_domain else net
    per_gpu = (degree - 1) / degree * size_bytes / degree
    return (degree - 1) * policy.alpha + per_gpu / bandwidth


@dataclass(frozen=True)
class StageTime:
    """Timed stage: the three roofline components and the composed total."""

    name: str
    compute: float
    memory: float
    network: float
    total: float

    @property
    def bound(self) -> str:
        """Which resource limits this stage ('compute'|'memory'|'network')."""
        components = {"compute": self.compute, "memory": self.memory, "network": self.network}
        return max(components, key=components.get)


def compose_stage_time(
    name: str,
    compute: float,
    memory: float,
    network: float,
    policy: RooflinePolicy,
) -> StageTime:
    """Combine the three components under the policy's overlap mode."""
    if min(compute, memory, network) < 0:
        raise SpecError("stage component times must be non-negative")
    if policy.overlap == "max":
        total = max(compute, memory, network)
    else:
        total = compute + memory + network
    return StageTime(name=name, compute=compute, memory=memory, network=network, total=total)
