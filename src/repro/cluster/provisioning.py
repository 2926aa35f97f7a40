"""Pool provisioning: size phase-split pools for a target workload.

Splitwise-style deployments must decide *how many* prefill and decode
instances to buy for an expected traffic level.  This module computes the
minimal pool sizes from the analytical model:

- prefill demand: ``rate * prompt_tokens`` tokens/s, served at each
  instance's prefill throughput;
- decode demand: ``rate * output_tokens`` tokens/s, served at each
  instance's decode throughput at its best feasible batch;
- a headroom factor keeps queueing delays in check (M/D/c intuition:
  ~70% utilization for p99-sensitive serving).

The output feeds directly into :class:`~repro.cluster.scheduler.PhasePools`
and the simulator, closing the loop from analytical model to deployment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.search import SearchConstraints, search_best_config
from ..errors import InfeasibleError, SpecError
from ..hardware.gpu import GPUSpec
from ..workloads.transformer import ModelSpec
from .scheduler import InstanceSpec, PhasePools


@dataclass(frozen=True)
class WorkloadForecast:
    """Expected traffic: request rate and token shape."""

    rate: float  # requests/second
    prompt_tokens: int = 1500
    output_tokens: int = 250

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise SpecError("rate must be positive")
        if self.prompt_tokens <= 0 or self.output_tokens <= 0:
            raise SpecError("token counts must be positive")

    @property
    def prefill_tokens_per_s(self) -> float:
        """Prompt tokens arriving per second."""
        return self.rate * self.prompt_tokens

    @property
    def decode_tokens_per_s(self) -> float:
        """Output tokens demanded per second."""
        return self.rate * self.output_tokens


@dataclass(frozen=True)
class ProvisioningPlan:
    """A sized deployment with its expected utilizations."""

    pools: PhasePools
    prefill_throughput: float  # tokens/s per prefill instance
    decode_throughput: float  # tokens/s per decode instance
    prefill_utilization: float
    decode_utilization: float

    def describe(self) -> str:
        """One-line summary."""
        return (
            f"{self.pools.describe()} | util prefill {self.prefill_utilization:.2f}, "
            f"decode {self.decode_utilization:.2f}"
        )


def provision_pools(
    model: ModelSpec,
    prefill_gpu: GPUSpec,
    decode_gpu: GPUSpec,
    forecast: WorkloadForecast,
    constraints: SearchConstraints | None = None,
    headroom: float = 0.7,
) -> ProvisioningPlan:
    """Size a phase-split deployment for ``forecast``.

    Instance shapes (GPUs per instance, batches) come from the Section 4
    search; instance *counts* from demand / (throughput * headroom).

    >>> from repro.workloads import LLAMA3_8B
    >>> from repro.hardware import H100
    >>> plan = provision_pools(LLAMA3_8B, H100, H100, WorkloadForecast(rate=5.0))
    >>> plan.pools.n_prefill >= 1 and plan.pools.n_decode >= 1
    True
    """
    if not 0.0 < headroom <= 1.0:
        raise SpecError("headroom must be in (0, 1]")
    constraints = constraints or SearchConstraints(
        prompt_len=forecast.prompt_tokens,
        context_len=forecast.prompt_tokens + forecast.output_tokens // 2,
    )

    prefill_best = search_best_config(model, prefill_gpu, "prefill", constraints).best
    decode_best = search_best_config(model, decode_gpu, "decode", constraints).best
    if prefill_best is None or decode_best is None:
        raise InfeasibleError("no feasible instance shape under the constraints")

    prefill_tput = prefill_best.result.tokens_per_s
    decode_tput = decode_best.result.tokens_per_s
    n_prefill = max(1, math.ceil(forecast.prefill_tokens_per_s / (prefill_tput * headroom)))
    n_decode = max(1, math.ceil(forecast.decode_tokens_per_s / (decode_tput * headroom)))

    pools = PhasePools(
        prefill=InstanceSpec(model, prefill_gpu, prefill_best.n_gpus),
        n_prefill=n_prefill,
        decode=InstanceSpec(model, decode_gpu, decode_best.n_gpus),
        n_decode=n_decode,
        max_prefill_batch=max(1, prefill_best.batch),
        max_decode_batch=max(1, decode_best.batch),
    )
    return ProvisioningPlan(
        pools=pools,
        prefill_throughput=prefill_tput,
        decode_throughput=decode_tput,
        prefill_utilization=forecast.prefill_tokens_per_s / (n_prefill * prefill_tput),
        decode_utilization=forecast.decode_tokens_per_s / (n_decode * decode_tput),
    )


def phase_gpu_ratio(plan: ProvisioningPlan) -> float:
    """Prefill-to-decode GPU ratio of a plan — the Splitwise pool-balance
    statistic (depends on the prompt/output token mix)."""
    pools = plan.pools
    prefill_gpus = pools.n_prefill * pools.prefill.n_gpus
    decode_gpus = pools.n_decode * pools.decode.n_gpus
    return prefill_gpus / decode_gpus
