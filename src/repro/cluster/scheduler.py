"""Deployment shapes: phase-split (Splitwise-style) and colocated pools.

The paper's case study assumes *"different phases can execute on different
Lite-GPU clusters"* (citing Splitwise / DistServe).  This module provides the
static description of the deployments the simulator can run — how many
instances of which GPU type serve which phase; the scheduling decisions
live in :mod:`repro.cluster.policies` and the dynamics in
:mod:`repro.cluster.engine` and :mod:`repro.cluster.simulator`.

Two shapes:

- :class:`PhasePools` — dedicated prefill and decode pools (Splitwise);
- :class:`ColocatedPool` — one pool whose instances interleave chunked
  prefill with decode (SARATHI-style, via :mod:`repro.core.chunked`).

An **instance** is one tensor-parallel replica of the model (``n_gpus`` GPUs
of one type).  Its performance envelope comes straight from the analytical
model: prefill time as a function of batch, decode iteration time as a
function of (batch, context), and the KV-token capacity bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from ..core.inference import (
    DecodeWorkload,
    PrefillWorkload,
    decode_iteration,
    prefill_pass,
)
from ..core.parallelism import TensorParallel
from ..core.roofline import RooflinePolicy
from ..errors import SpecError
from ..hardware.gpu import GPUSpec
from ..workloads.transformer import ModelSpec
from .placement import PoolShape


@dataclass(frozen=True)
class InstanceSpec:
    """One model replica: GPU type and tensor-parallel degree."""

    model: ModelSpec
    gpu: GPUSpec
    n_gpus: int
    policy: RooflinePolicy = field(default_factory=RooflinePolicy)

    def __post_init__(self) -> None:
        if self.n_gpus <= 0:
            raise SpecError("n_gpus must be positive")
        tp = TensorParallel(self.model, self.n_gpus, self.policy.kv_placement)
        if not tp.fits(self.gpu.mem_capacity, self.policy.weight_bytes):
            raise SpecError(
                f"{self.model.name} weights do not fit {self.n_gpus}x {self.gpu.name}"
            )

    @property
    def tp(self) -> TensorParallel:
        """The tensor-parallel layout of this instance."""
        return TensorParallel(self.model, self.n_gpus, self.policy.kv_placement)

    def kv_token_capacity(self) -> int:
        """Maximum cached tokens this instance can hold."""
        return self.tp.max_cached_tokens(
            self.gpu.mem_capacity,
            self.policy.weight_bytes,
            self.policy.memory_reserve_fraction,
        )

    def prefill_time(self, batch: int, prompt_len: int) -> float:
        """Prefill latency of a batch on this instance."""
        result = prefill_pass(
            self.model, self.gpu, self.n_gpus, PrefillWorkload(batch, prompt_len), self.policy
        )
        return result.latency

    def decode_time(self, batch: int, context_len: int) -> float:
        """One decode iteration's latency at a given batch/context."""
        result = decode_iteration(
            self.model, self.gpu, self.n_gpus, DecodeWorkload(batch, context_len), self.policy
        )
        return result.latency


@dataclass(frozen=True)
class PhasePools:
    """A phase-split deployment: prefill instances + decode instances."""

    prefill: InstanceSpec
    n_prefill: int
    decode: InstanceSpec
    n_decode: int
    max_prefill_batch: int = 8
    max_decode_batch: int = 256

    def __post_init__(self) -> None:
        if self.n_prefill <= 0 or self.n_decode <= 0:
            raise SpecError("instance counts must be positive")
        if self.max_prefill_batch <= 0 or self.max_decode_batch <= 0:
            raise SpecError("batch bounds must be positive")
        if self.prefill.model is not self.decode.model:
            raise SpecError("prefill and decode pools must serve the same model")

    @property
    def total_gpus(self) -> int:
        """All GPUs across both pools."""
        return self.n_prefill * self.prefill.n_gpus + self.n_decode * self.decode.n_gpus

    @property
    def total_sms(self) -> int:
        """All SMs across both pools (for efficiency normalization)."""
        return (
            self.n_prefill * self.prefill.n_gpus * self.prefill.gpu.sms
            + self.n_decode * self.decode.n_gpus * self.decode.gpu.sms
        )

    def pool_shapes(self) -> Tuple[PoolShape, ...]:
        """The placement-layer description of this deployment's pools."""
        return (
            PoolShape("prefill", self.n_prefill, self.prefill.n_gpus),
            PoolShape("decode", self.n_decode, self.decode.n_gpus),
        )

    def describe(self) -> str:
        """One-line deployment summary."""
        return (
            f"prefill {self.n_prefill}x[{self.prefill.n_gpus}x {self.prefill.gpu.name}] + "
            f"decode {self.n_decode}x[{self.decode.n_gpus}x {self.decode.gpu.name}] "
            f"for {self.prefill.model.name}"
        )


@dataclass(frozen=True)
class ColocatedPool:
    """A colocated deployment: one pool interleaving prefill and decode.

    Every instance runs SARATHI-style mixed iterations — a continuous decode
    batch plus up to ``chunk_tokens`` of one queued prompt — so prefill work
    rides in decode's memory-bound shadow instead of occupying a dedicated
    pool.  ``max_decode_batch`` bounds concurrent sequences per instance
    (admitted prefills count against it).
    """

    instance: InstanceSpec
    n_instances: int
    max_decode_batch: int = 256
    chunk_tokens: int = 512

    def __post_init__(self) -> None:
        if self.n_instances <= 0:
            raise SpecError("instance count must be positive")
        if self.max_decode_batch <= 0:
            raise SpecError("max_decode_batch must be positive")
        if self.chunk_tokens <= 0:
            raise SpecError("chunk_tokens must be positive")

    @property
    def total_gpus(self) -> int:
        """All GPUs in the pool."""
        return self.n_instances * self.instance.n_gpus

    @property
    def total_sms(self) -> int:
        """All SMs in the pool (for efficiency normalization)."""
        return self.total_gpus * self.instance.gpu.sms

    def pool_shapes(self) -> Tuple[PoolShape, ...]:
        """The placement-layer description of this deployment's pool."""
        return (PoolShape("colocated", self.n_instances, self.instance.n_gpus),)

    def describe(self) -> str:
        """One-line deployment summary."""
        return (
            f"colocated {self.n_instances}x[{self.instance.n_gpus}x "
            f"{self.instance.gpu.name}] for {self.instance.model.name} "
            f"(chunk {self.chunk_tokens} tok)"
        )
