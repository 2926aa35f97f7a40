"""Pipeline parallelism and hybrid TP x PP execution.

The paper's workload-management section notes that large models "are already
distributed over many GPUs" and that Lite-GPUs multiply the device count;
tensor parallelism alone then drives collectives to high degrees.  Pipeline
parallelism is the standard escape: split the *layers* across ``stages``
groups, keep tensor parallelism *within* a group, and stream microbatches.

Cost model (GPipe-style synchronous pipeline):

- **prefill**: a batch is split into ``microbatches``; the pass takes
  ``(microbatches + stages - 1) * T_stage`` where ``T_stage`` is one
  microbatch's time through one stage (layers/stages of the usual per-layer
  stage times) — the classic ``(stages - 1) / (microbatches + stages - 1)``
  bubble fraction.
- **decode**: each new token crosses every stage in sequence, so TBT is the
  *sum* of stage times plus ``stages - 1`` activation hand-offs.  Pipelining
  across decode iterations is reflected in throughput, not TBT: with enough
  concurrent load every stage can be kept busy, so the iteration *rate* is
  set by the slowest stage.  We report both (latency-bound and
  throughput-bound views).

Hybrid search: :func:`search_hybrid_config` extends the paper's sweep with a
stage dimension, which is how a 32-GPU Lite cluster can run Llama3-405B as
8-way TP x 4-way PP instead of 32-way TP — cutting the all-reduce degree by
4x at the price of a pipeline bubble.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import InfeasibleError, SpecError
from ..hardware.gpu import GPUSpec
from ..workloads.transformer import ModelSpec
from .inference import DecodeWorkload, Phase, PrefillWorkload
from .parallelism import TensorParallel, valid_tp_degrees
from .roofline import RooflinePolicy
from .search import SearchConstraints
from .stages import decode_stage_costs, prefill_stage_costs
from .inference import _pass_time  # shared stage-timing engine


@dataclass(frozen=True)
class HybridParallel:
    """A TP x PP layout: ``tensor`` ranks per stage, ``stages`` stages."""

    model: ModelSpec
    tensor: int
    stages: int

    def __post_init__(self) -> None:
        if self.tensor <= 0 or self.stages <= 0:
            raise SpecError("tensor and stages must be positive")
        if self.stages > self.model.layers:
            raise InfeasibleError(
                f"{self.stages} stages exceed {self.model.layers} layers"
            )

    @property
    def n_gpus(self) -> int:
        """Total GPUs in the layout."""
        return self.tensor * self.stages

    @property
    def layers_per_stage(self) -> float:
        """Layers hosted by each pipeline stage (fractional allowed: the
        model rounds internally via per-layer costs)."""
        return self.model.layers / self.stages


@dataclass(frozen=True)
class PipelineResult:
    """Evaluation of one hybrid configuration point."""

    phase: Phase
    model: str
    gpu: str
    tensor: int
    stages: int
    microbatches: int
    batch: int
    latency: float  # TTFT or latency-bound TBT
    throughput_latency: float  # 1/rate view for decode (slowest stage)
    tokens_per_s: float
    fits_memory: bool
    bubble_fraction: float
    sms: int

    @property
    def n_gpus(self) -> int:
        """Total GPUs."""
        return self.tensor * self.stages

    @property
    def tokens_per_s_per_sm(self) -> float:
        """The paper's efficiency metric."""
        return self.tokens_per_s / self.sms


def _stage_pass_time(
    model: ModelSpec,
    gpu: GPUSpec,
    tensor: int,
    stages: int,
    batch: int,
    seq: int,
    phase: Phase,
    policy: RooflinePolicy,
):
    """(time of one microbatch through ONE pipeline stage, lm-head time).

    Layer stages scale by layers/stages; the LM head runs on the last stage
    only.
    """
    tp = TensorParallel(model, tensor, policy.kv_placement)
    if phase is Phase.PREFILL:
        costs = prefill_stage_costs(tp, batch, seq, policy)
    else:
        costs = decode_stage_costs(tp, batch, seq, policy)
    total, stage_times = _pass_time(costs, gpu, tensor, policy)
    tail = sum(st.total for st in stage_times[len(costs.layer_stages):])
    per_layer = (total - tail) / costs.layers
    return per_layer * (model.layers / stages), tail, tp


def _interstage_time(batch: int, hidden: int, gpu: GPUSpec, policy: RooflinePolicy, tokens: float) -> float:
    """Point-to-point activation hand-off between adjacent stages."""
    nbytes = tokens * hidden * policy.act_bytes
    return policy.alpha + nbytes / (gpu.net_bandwidth * policy.net_efficiency)


def pipeline_prefill(
    model: ModelSpec,
    gpu: GPUSpec,
    tensor: int,
    stages: int,
    workload: PrefillWorkload,
    policy: RooflinePolicy | None = None,
    microbatches: int | None = None,
) -> PipelineResult:
    """Evaluate a prefill pass under TP x PP.

    ``microbatches`` defaults to ``max(batch, stages)`` capped at 4 * stages
    (deep pipelining with per-request microbatches).
    """
    policy = policy or RooflinePolicy()
    if microbatches is None:
        microbatches = 1 if stages == 1 else max(stages, min(workload.batch, 4 * stages))
    if microbatches <= 0:
        raise SpecError("microbatches must be positive")
    micro_batch = max(1, workload.batch // microbatches)
    stage_time, tail, tp = _stage_pass_time(
        model, gpu, tensor, stages, micro_batch, workload.prompt_len, Phase.PREFILL, policy
    )
    # One pipeline has no hand-offs; deeper ones pay a point-to-point
    # activation transfer per stage boundary.
    hop = 0.0 if stages == 1 else _interstage_time(
        micro_batch, model.hidden, gpu, policy, micro_batch * workload.prompt_len
    )
    slot = stage_time + hop
    latency = (microbatches + stages - 1) * slot + tail
    bubble = (stages - 1) / (microbatches + stages - 1)
    weights = tp.weight_bytes_per_gpu(policy.weight_bytes) / stages
    kv = tp.kv_bytes_per_gpu(workload.tokens, policy.kv_bytes) / stages
    fits = weights + kv <= gpu.mem_capacity * (1.0 - policy.memory_reserve_fraction)
    total_tokens = micro_batch * microbatches * workload.prompt_len
    return PipelineResult(
        phase=Phase.PREFILL,
        model=model.name,
        gpu=gpu.name,
        tensor=tensor,
        stages=stages,
        microbatches=microbatches,
        batch=micro_batch * microbatches,
        latency=latency,
        throughput_latency=slot * microbatches + tail,
        tokens_per_s=total_tokens / latency,
        fits_memory=fits,
        bubble_fraction=bubble,
        sms=tensor * stages * gpu.sms,
    )


def pipeline_decode(
    model: ModelSpec,
    gpu: GPUSpec,
    tensor: int,
    stages: int,
    workload: DecodeWorkload,
    policy: RooflinePolicy | None = None,
) -> PipelineResult:
    """Evaluate one decode iteration under TP x PP.

    Latency view (TBT): token crosses all stages -> sum of stage times plus
    hand-offs.  Throughput view: with saturating load, iterations pipeline
    and the rate is one batch per stage time.
    """
    policy = policy or RooflinePolicy()
    stage_time, tail, tp = _stage_pass_time(
        model, gpu, tensor, stages, workload.batch, workload.context_len, Phase.DECODE, policy
    )
    hop = 0.0 if stages == 1 else _interstage_time(
        workload.batch, model.hidden, gpu, policy, workload.batch
    )
    tbt = stages * stage_time + (stages - 1) * hop + tail
    rate_latency = stage_time + hop + (tail if stages == 1 else max(0.0, tail - stage_time))
    weights = tp.weight_bytes_per_gpu(policy.weight_bytes) / stages
    kv = tp.kv_bytes_per_gpu(workload.cached_tokens, policy.kv_bytes) / stages
    fits = weights + kv <= gpu.mem_capacity * (1.0 - policy.memory_reserve_fraction)
    return PipelineResult(
        phase=Phase.DECODE,
        model=model.name,
        gpu=gpu.name,
        tensor=tensor,
        stages=stages,
        microbatches=1,
        batch=workload.batch,
        latency=tbt,
        throughput_latency=max(rate_latency, 1e-12),
        tokens_per_s=workload.batch / tbt,
        fits_memory=fits,
        bubble_fraction=0.0,
        sms=tensor * stages * gpu.sms,
    )


def valid_stage_counts(model: ModelSpec, max_stages: int) -> List[int]:
    """Stage counts that divide the layer count reasonably (<= max)."""
    if max_stages <= 0:
        raise SpecError("max_stages must be positive")
    return [s for s in range(1, max_stages + 1) if model.layers % s == 0]


def search_hybrid_config(
    model: ModelSpec,
    gpu: GPUSpec,
    phase: Phase | str,
    constraints: SearchConstraints | None = None,
    policy: RooflinePolicy | None = None,
    max_gpus: int | None = None,
) -> Optional[PipelineResult]:
    """Best TP x PP configuration by tokens/s/SM under the paper's SLOs.

    Extends the Section 4 sweep with the pipeline dimension; TP-only is the
    ``stages == 1`` slice, so the result is never worse than the paper's.
    """
    if isinstance(phase, str):
        phase = Phase(phase)
    constraints = constraints or SearchConstraints()
    policy = policy or RooflinePolicy()
    limit = max_gpus or gpu.max_cluster
    slo = constraints.ttft_slo if phase is Phase.PREFILL else constraints.tbt_slo
    best: Optional[PipelineResult] = None
    for stages in valid_stage_counts(model, min(8, limit)):
        for tensor in valid_tp_degrees(model, limit // stages, gpu.scaleup_domain):
            result = _best_batch_for(
                model, gpu, tensor, stages, phase, constraints, policy, slo
            )
            if result and (best is None or result.tokens_per_s_per_sm > best.tokens_per_s_per_sm):
                best = result
    return best


def _evaluate_hybrid(
    model, gpu, tensor, stages, phase, batch, constraints, policy
) -> PipelineResult:
    if phase is Phase.PREFILL:
        return pipeline_prefill(
            model, gpu, tensor, stages, PrefillWorkload(batch, constraints.prompt_len), policy
        )
    return pipeline_decode(
        model, gpu, tensor, stages, DecodeWorkload(batch, constraints.context_len), policy
    )


def _best_batch_for(
    model, gpu, tensor, stages, phase, constraints, policy, slo
) -> Optional[PipelineResult]:
    """Binary-search the largest feasible batch, as in core.search."""

    def feasible(batch: int) -> Optional[PipelineResult]:
        try:
            result = _evaluate_hybrid(
                model, gpu, tensor, stages, phase, batch, constraints, policy
            )
        except (InfeasibleError, SpecError):
            return None
        if result.fits_memory and result.latency <= slo:
            return result
        return None

    lo, hi = 1, constraints.max_batch
    best = feasible(1)
    if best is None:
        return None
    top = feasible(hi)
    if top is not None:
        return top
    while hi - lo > 1:
        mid = (lo + hi) // 2
        candidate = feasible(mid)
        if candidate is not None:
            lo, best = mid, candidate
        else:
            hi = mid
    return best
