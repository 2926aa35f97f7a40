"""Chunked prefill: piggybacking prompt work on decode iterations.

The paper cites SARATHI ("Efficient LLM Inference by Piggybacking Decodes
with Chunked Prefills") among the systems whose techniques complement
Lite-GPUs.  Chunked prefill is the main *alternative* to the Splitwise
phase-split the case study assumes: instead of separate prefill and decode
pools, one pool runs mixed iterations — a decode batch plus a bounded chunk
of prompt tokens — so prefill work rides along in decode's memory-bound
shadow.

Model: a mixed iteration over ``decode_batch`` sequences (context ``L``)
plus a ``chunk`` of prompt tokens:

- projection / MLP stages process ``decode_batch + chunk`` tokens;
- attention reads the decode KV (``decode_batch * L``) plus the chunk's
  causal window (``chunk`` tokens against an average prefix);
- the tensor-parallel all-reduces carry ``(decode_batch + chunk) * hidden``.

Outputs: the mixed iteration's TBT (what decode users feel) and the prefill
throughput smuggled in (chunk tokens per iteration), and
:func:`chunk_for_tbt` — the largest chunk that keeps TBT within the SLO.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SpecError
from ..hardware.gpu import GPUSpec
from ..workloads.transformer import ModelSpec
from .inference import PrefillWorkload, _pass_time, prefill_pass
from .parallelism import TensorParallel
from .roofline import RooflinePolicy
from .stages import PhaseCosts, StageCost, _attention_cost, _lm_head_cost, _mlp_cost, _projection_cost


@dataclass(frozen=True)
class MixedIteration:
    """One chunked-prefill iteration's shape."""

    decode_batch: int
    context_len: int
    chunk: int
    prompt_len: int = 1500

    def __post_init__(self) -> None:
        if self.decode_batch < 0 or self.chunk < 0:
            raise SpecError("decode_batch and chunk must be non-negative")
        if self.decode_batch == 0 and self.chunk == 0:
            raise SpecError("iteration must contain some work")
        if self.context_len <= 0 or self.prompt_len <= 0:
            raise SpecError("context/prompt lengths must be positive")


@dataclass(frozen=True)
class MixedResult:
    """Evaluation of one mixed iteration."""

    iteration_time: float
    decode_tokens_per_s: float
    prefill_tokens_per_s: float
    fits_memory: bool
    tbt: float

    @property
    def total_tokens_per_s(self) -> float:
        """Combined token throughput of the pool."""
        return self.decode_tokens_per_s + self.prefill_tokens_per_s


def mixed_iteration_costs(
    tp: TensorParallel,
    iteration: MixedIteration,
    policy: RooflinePolicy,
) -> PhaseCosts:
    """Stage costs of one mixed decode+chunk iteration (per GPU)."""
    m = tp.model
    tokens = float(iteration.decode_batch + iteration.chunk)
    proj = _projection_cost(tp, tokens, policy)
    # Attention: decode part reads each sequence's full context; the chunk
    # attends causally to its (average half-filled) prefix.
    parts = []
    if iteration.decode_batch:
        parts.append(
            _attention_cost(
                tp, iteration.decode_batch, 1.0, iteration.context_len, policy, causal=False
            )
        )
    if iteration.chunk:
        prefix = max(1, iteration.prompt_len // 2)
        parts.append(
            _attention_cost(tp, 1, float(iteration.chunk), prefix, policy, causal=True)
        )
    attention = StageCost(
        name="attention",
        flops=sum(p.flops for p in parts),
        mem_bytes=sum(p.mem_bytes for p in parts),
    )
    mlp = _mlp_cost(tp, tokens, policy)
    tail = (_lm_head_cost(tp, float(max(1, iteration.decode_batch)), policy),)
    return PhaseCosts(layers=m.layers, layer_stages=(proj, attention, mlp), tail_stages=tail)


def mixed_iteration_time(
    model: ModelSpec,
    gpu: GPUSpec,
    n_gpus: int,
    iteration: MixedIteration,
    policy: RooflinePolicy | None = None,
) -> MixedResult:
    """Evaluate one mixed iteration on a cluster.

    >>> from repro.workloads import LLAMA3_70B
    >>> from repro.hardware import H100
    >>> r = mixed_iteration_time(LLAMA3_70B, H100, 2,
    ...                          MixedIteration(decode_batch=64, context_len=1750, chunk=256))
    >>> r.prefill_tokens_per_s > 0 and r.tbt > 0
    True
    """
    policy = policy or RooflinePolicy()
    tp = TensorParallel(model, n_gpus, policy.kv_placement)
    costs = mixed_iteration_costs(tp, iteration, policy)
    time, _ = _pass_time(costs, gpu, n_gpus, policy)
    kv_tokens = iteration.decode_batch * iteration.context_len
    if iteration.chunk:
        # The in-flight prefill sequence also holds cache (half-filled on
        # average while its prompt is being chunked through).
        kv_tokens += iteration.prompt_len // 2
    weights = tp.weight_bytes_per_gpu(policy.weight_bytes)
    kv = tp.kv_bytes_per_gpu(int(kv_tokens), policy.kv_bytes)
    fits = weights + kv <= gpu.mem_capacity * (1.0 - policy.memory_reserve_fraction)
    return MixedResult(
        iteration_time=time,
        decode_tokens_per_s=iteration.decode_batch / time,
        prefill_tokens_per_s=iteration.chunk / time,
        fits_memory=fits,
        tbt=time,
    )


def chunk_for_tbt(
    model: ModelSpec,
    gpu: GPUSpec,
    n_gpus: int,
    decode_batch: int,
    context_len: int,
    tbt_slo: float = 0.050,
    policy: RooflinePolicy | None = None,
    max_chunk: int = 8192,
) -> int:
    """Largest prefill chunk that keeps the mixed TBT within the SLO.

    Returns 0 if even a pure-decode iteration misses the SLO.
    """
    if tbt_slo <= 0:
        raise SpecError("tbt_slo must be positive")
    policy = policy or RooflinePolicy()

    def tbt(chunk: int) -> float:
        iteration = MixedIteration(decode_batch, context_len, chunk)
        return mixed_iteration_time(model, gpu, n_gpus, iteration, policy).tbt

    if decode_batch > 0 and tbt(0) > tbt_slo:
        return 0
    lo, hi = 0, max_chunk
    if tbt(hi) <= tbt_slo:
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tbt(mid) <= tbt_slo:
            lo = mid
        else:
            hi = mid
    return lo


def chunked_vs_split_throughput(
    model: ModelSpec,
    gpu: GPUSpec,
    n_gpus: int,
    decode_batch: int,
    context_len: int = 1750,
    tbt_slo: float = 0.050,
    policy: RooflinePolicy | None = None,
) -> dict:
    """Prefill throughput a pool can smuggle under the decode SLO, vs what
    the same GPUs would do as a dedicated prefill pool.

    The comparison behind "Splitwise vs SARATHI at Lite scale": chunked
    prefill reuses decode's memory-bound shadow (good for compute-rich
    GPUs), a dedicated pool runs prefill flat-out (good when you can buy
    prefill-specialized Lite-GPUs).
    """
    policy = policy or RooflinePolicy()
    chunk = chunk_for_tbt(model, gpu, n_gpus, decode_batch, context_len, tbt_slo, policy)
    mixed = None
    if chunk > 0:
        mixed = mixed_iteration_time(
            model, gpu, n_gpus, MixedIteration(decode_batch, context_len, chunk), policy
        )

    dedicated = prefill_pass(model, gpu, n_gpus, PrefillWorkload(batch=1), policy)
    return {
        "chunk": chunk,
        "piggyback_prefill_tokens_per_s": mixed.prefill_tokens_per_s if mixed else 0.0,
        "dedicated_prefill_tokens_per_s": dedicated.tokens_per_s,
        "decode_tokens_per_s": mixed.decode_tokens_per_s if mixed else 0.0,
        "tbt": mixed.tbt if mixed else None,
    }
