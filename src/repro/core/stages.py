"""Per-stage FLOP / byte / collective accounting for transformer inference.

The paper models three compute stages per transformer layer — projection
(QKV + attention output), fused FlashAttention, and MLP — plus the LM head
at the end of the network.  For each stage this module computes, *per GPU*
under tensor parallelism:

- FLOPs executed,
- bytes moved to/from HBM (weight shards, KV cache, activations), and
- the collectives issued (the two Megatron all-reduces per layer are
  attributed to the projection and MLP stages respectively; the LM head
  gathers vocabulary-sharded logits).

Prefill processes ``batch * prompt_len`` tokens per pass and writes the KV
cache; decode processes ``batch`` tokens per iteration, appends to the KV
cache, and — the crux of Figure 3b — *reads the entire cached context* in
the attention stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..errors import SpecError
from ..workloads.moe import MoEModelSpec
from .parallelism import TensorParallel
from .roofline import RooflinePolicy


@dataclass(frozen=True)
class StageCost:
    """Per-GPU resource cost of one stage.

    ``comm`` lists the collectives the stage issues, as ``(op, logical_size)``
    pairs with ``op`` in {"all_reduce", "all_gather"} and ``logical_size`` the
    full (unsharded) tensor size in bytes.
    """

    name: str
    flops: float
    mem_bytes: float
    comm: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.flops < 0 or self.mem_bytes < 0:
            raise SpecError(f"{self.name}: flops/mem_bytes must be non-negative")
        for op, size in self.comm:
            if op not in ("all_reduce", "all_gather", "all_to_all"):
                raise SpecError(f"{self.name}: unknown collective '{op}'")
            if size < 0:
                raise SpecError(f"{self.name}: collective size must be non-negative")


@dataclass(frozen=True)
class PhaseCosts:
    """A full forward pass: per-layer stages (repeated ``layers`` times)
    plus tail stages executed once (LM head)."""

    layers: int
    layer_stages: Tuple[StageCost, ...]
    tail_stages: Tuple[StageCost, ...]

    def all_stage_names(self) -> List[str]:
        """Stage names in execution order (one layer + tail)."""
        return [s.name for s in self.layer_stages] + [s.name for s in self.tail_stages]


def _projection_cost(
    tp: TensorParallel,
    tokens: float,
    policy: RooflinePolicy,
) -> StageCost:
    """QKV projections + attention output projection (+ KV-cache append)."""
    m = tp.model
    t = tp.degree
    kv_width = _kv_width_per_gpu(tp)
    # Q and output projections shard cleanly by heads; K/V projections
    # compute the columns materialized on this rank.
    flops = 2.0 * tokens * m.hidden * (2.0 * m.q_dim / t + 2.0 * kv_width)
    weights = (2.0 * m.hidden * m.q_dim / t + 2.0 * m.hidden * kv_width) * policy.weight_bytes
    act = policy.act_bytes
    activations = tokens * (
        m.hidden  # input read
        + (m.q_dim / t + 2.0 * kv_width)  # QKV write
        + m.q_dim / t  # output-projection input read
        + m.hidden  # output write (all-reduce operand)
    ) * act
    kv_append = tokens * 2.0 * kv_width * policy.kv_bytes
    mem = weights + activations + kv_append
    comm = (("all_reduce", tokens * m.hidden * act),)
    return StageCost(name="projection", flops=flops, mem_bytes=mem, comm=comm)


def _attention_cost(
    tp: TensorParallel,
    batch: int,
    query_len: float,
    context_len: float,
    policy: RooflinePolicy,
    causal: bool,
) -> StageCost:
    """Fused FlashAttention: QK^T and PV over the cached context.

    ``query_len`` is tokens per sequence in this pass (prompt length for
    prefill, 1 for decode); ``context_len`` the KV length attended to.
    """
    m = tp.model
    t = tp.degree
    kv_width = _kv_width_per_gpu(tp)
    discount = policy.causal_discount if causal else 1.0
    flops = 4.0 * batch * query_len * context_len * (m.q_dim / t) * discount
    tokens = batch * query_len
    act = policy.act_bytes
    # Flash kernels stream K/V once and keep the running softmax in SRAM.
    kv_read = batch * context_len * 2.0 * kv_width * policy.kv_bytes
    q_read = tokens * (m.q_dim / t) * act
    out_write = tokens * (m.q_dim / t) * act
    return StageCost(
        name="attention",
        flops=flops,
        mem_bytes=kv_read + q_read + out_write,
    )


def _mlp_cost(tp: TensorParallel, tokens: float, policy: RooflinePolicy) -> StageCost:
    """The MLP block: dense (sharded GEMMs + all-reduce) or MoE
    (expert-parallel: all-to-all dispatch, top-k expert GEMMs, all-to-all
    combine)."""
    m = tp.model
    t = tp.degree
    act = policy.act_bytes
    n_mat = 3 if m.mlp_kind.name == "GATED" else 2
    if isinstance(m, MoEModelSpec):
        # Experts are sharded across the same ranks (EP = TP degree); each
        # token runs top-k experts, so active FLOPs use the routed width.
        flops = 2.0 * tokens * n_mat * m.hidden * m.ffn_hidden * m.experts_per_token / t
        resident = (m.mlp_params_per_layer / t) * policy.weight_bytes
        # Weight traffic: the share of this rank's resident experts that the
        # batch actually activates (all of them once tokens*k >> experts).
        touched_fraction = min(1.0, m.experts_touched(tokens) / m.n_experts)
        weights = resident * touched_fraction
        activations = tokens * (
            m.hidden
            + m.experts_per_token * n_mat * m.ffn_hidden / t
            + m.hidden
        ) * act
        payload = tokens * m.hidden * act * m.experts_per_token
        comm = (("all_to_all", payload), ("all_to_all", payload))
        return StageCost(name="moe_mlp", flops=flops, mem_bytes=weights + activations, comm=comm)
    flops = 2.0 * tokens * n_mat * m.hidden * m.ffn_hidden / t
    weights = (n_mat * m.hidden * m.ffn_hidden / t) * policy.weight_bytes
    activations = tokens * (
        m.hidden  # input read
        + n_mat * m.ffn_hidden / t  # intermediate write/read traffic
        + m.hidden  # output write
    ) * act
    comm = (("all_reduce", tokens * m.hidden * act),)
    return StageCost(name="mlp", flops=flops, mem_bytes=weights + activations, comm=comm)


def _lm_head_cost(tp: TensorParallel, out_tokens: float, policy: RooflinePolicy) -> StageCost:
    """Vocabulary-sharded LM head producing logits for ``out_tokens``."""
    m = tp.model
    t = tp.degree
    flops = 2.0 * out_tokens * m.hidden * m.vocab / t
    weights = (m.hidden * m.vocab / t) * policy.weight_bytes
    act = policy.act_bytes
    activations = out_tokens * (m.hidden + m.vocab / t) * act
    comm = (("all_gather", out_tokens * m.vocab * act),)
    return StageCost(name="lm_head", flops=flops, mem_bytes=weights + activations, comm=comm)


def _kv_width_per_gpu(tp: TensorParallel) -> float:
    """K (or V) columns materialized per rank under the KV placement."""
    return tp.kv_width_per_gpu


def prefill_stage_costs(
    tp: TensorParallel,
    batch: int,
    prompt_len: int,
    policy: RooflinePolicy | None = None,
) -> PhaseCosts:
    """Stage costs of one prefill pass over ``batch`` prompts.

    The prefill processes ``batch * prompt_len`` tokens, builds the KV cache,
    and emits logits for the last position of each sequence.

    >>> from repro.workloads import LLAMA3_70B
    >>> costs = prefill_stage_costs(TensorParallel(LLAMA3_70B, 8), 4, 1500)
    >>> [s.name for s in costs.layer_stages]
    ['projection', 'attention', 'mlp']
    """
    policy = policy or RooflinePolicy()
    _check_batch_and_len(batch, prompt_len)
    tokens = float(batch * prompt_len)
    layer_stages = (
        _projection_cost(tp, tokens, policy),
        _attention_cost(tp, batch, prompt_len, prompt_len, policy, causal=True),
        _mlp_cost(tp, tokens, policy),
    )
    tail = (_lm_head_cost(tp, float(batch), policy),)
    return PhaseCosts(layers=tp.model.layers, layer_stages=layer_stages, tail_stages=tail)


def decode_stage_costs(
    tp: TensorParallel,
    batch: int,
    context_len: int,
    policy: RooflinePolicy | None = None,
) -> PhaseCosts:
    """Stage costs of one decode iteration (one new token per sequence).

    ``context_len`` is the KV length attended to (prompt + tokens generated
    so far); the attention stage reads the whole cached context, which is
    what makes decode memory-bound.
    """
    policy = policy or RooflinePolicy()
    _check_batch_and_len(batch, context_len)
    tokens = float(batch)
    layer_stages = (
        _projection_cost(tp, tokens, policy),
        _attention_cost(tp, batch, 1.0, context_len, policy, causal=False),
        _mlp_cost(tp, tokens, policy),
    )
    tail = (_lm_head_cost(tp, tokens, policy),)
    return PhaseCosts(layers=tp.model.layers, layer_stages=layer_stages, tail_stages=tail)


def phase_totals(costs: PhaseCosts) -> dict:
    """Aggregate FLOPs / bytes / collective volume of a pass (per GPU)."""
    flops = 0.0
    mem = 0.0
    comm = 0.0
    for stage in costs.layer_stages:
        flops += stage.flops * costs.layers
        mem += stage.mem_bytes * costs.layers
        comm += sum(size for _, size in stage.comm) * costs.layers
    for stage in costs.tail_stages:
        flops += stage.flops
        mem += stage.mem_bytes
        comm += sum(size for _, size in stage.comm)
    return {"flops": flops, "mem_bytes": mem, "comm_logical_bytes": comm}


def _check_batch_and_len(batch: int, length: int) -> None:
    if batch <= 0:
        raise SpecError("batch must be positive")
    if length <= 0:
        raise SpecError("sequence length must be positive")
