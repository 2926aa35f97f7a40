"""Decoder-only transformer geometry: parameters, KV cache, activation sizes.

The paper's roofline study (Section 4) models LLM inference stage by stage;
that requires exact knowledge of each model's layer geometry.  This module
captures the geometry in :class:`ModelSpec` and derives from it everything the
performance model needs:

- parameter counts (attention, MLP, embeddings, total),
- weight bytes under a given numeric format,
- KV-cache bytes per token (the quantity that separates GPT-3-style MHA from
  Llama3-style GQA — the effect Figure 3b hinges on),
- per-token activation sizes used for collective volumes.

FLOP and byte counting *per stage per phase* lives in :mod:`repro.core.stages`
so that the workload description stays independent of the execution model.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ..errors import SpecError


class AttentionKind(enum.Enum):
    """Attention variants distinguished by their KV-head count.

    ``MHA``: one KV head per query head (GPT-3); maximal KV cache.
    ``GQA``: KV heads shared by groups of query heads (Llama3); small KV cache.
    ``MQA``: a single KV head shared by all query heads.
    """

    MHA = "mha"
    GQA = "gqa"
    MQA = "mqa"


class MLPKind(enum.Enum):
    """MLP variants distinguished by their weight-matrix count.

    ``PLAIN``: two matrices (up, down) with a pointwise nonlinearity (GPT-3).
    ``GATED``: three matrices (gate, up, down) as in SwiGLU (Llama3).
    """

    PLAIN = "plain"
    GATED = "gated"


@dataclass(frozen=True)
class ModelSpec:
    """Immutable description of a decoder-only transformer.

    Parameters follow standard naming: ``hidden`` is the residual-stream
    width, ``ffn_hidden`` the MLP intermediate width, ``heads`` the query-head
    count and ``kv_heads`` the key/value-head count (equal to ``heads`` for
    MHA).  ``head_dim`` defaults to ``hidden // heads``.

    >>> from repro.workloads import LLAMA3_70B
    >>> round(LLAMA3_70B.param_count / 1e9)  # nominal "70B" (70.6 actual)
    71
    """

    name: str
    layers: int
    hidden: int
    heads: int
    kv_heads: int
    ffn_hidden: int
    vocab: int
    mlp_kind: MLPKind = MLPKind.GATED
    head_dim: int = 0  # 0 -> derived as hidden // heads
    tie_embeddings: bool = False
    max_seq_len: int = 131072

    def __post_init__(self) -> None:
        if self.layers <= 0 or self.hidden <= 0 or self.heads <= 0:
            raise SpecError(f"{self.name}: layers/hidden/heads must be positive")
        if self.kv_heads <= 0 or self.kv_heads > self.heads:
            raise SpecError(f"{self.name}: kv_heads must be in [1, heads]")
        if self.heads % self.kv_heads != 0:
            raise SpecError(f"{self.name}: heads must be a multiple of kv_heads")
        if self.ffn_hidden <= 0 or self.vocab <= 0:
            raise SpecError(f"{self.name}: ffn_hidden/vocab must be positive")
        if self.head_dim == 0:
            if self.hidden % self.heads != 0:
                raise SpecError(
                    f"{self.name}: hidden ({self.hidden}) not divisible by heads "
                    f"({self.heads}); pass head_dim explicitly"
                )
            object.__setattr__(self, "head_dim", self.hidden // self.heads)
        if self.head_dim <= 0:
            raise SpecError(f"{self.name}: head_dim must be positive")

    # --- derived geometry ---------------------------------------------------

    @property
    def attention_kind(self) -> AttentionKind:
        """Classify the attention variant from the KV-head count."""
        if self.kv_heads == self.heads:
            return AttentionKind.MHA
        if self.kv_heads == 1:
            return AttentionKind.MQA
        return AttentionKind.GQA

    @property
    def q_dim(self) -> int:
        """Total query projection width (heads * head_dim)."""
        return self.heads * self.head_dim

    @property
    def kv_dim(self) -> int:
        """Total key (or value) projection width (kv_heads * head_dim)."""
        return self.kv_heads * self.head_dim

    @property
    def gqa_group(self) -> int:
        """Query heads per KV head (1 for MHA)."""
        return self.heads // self.kv_heads

    # --- parameter counting ---------------------------------------------------

    @property
    def attn_params_per_layer(self) -> int:
        """Parameters of one attention block: Q, K, V and output projections."""
        q = self.hidden * self.q_dim
        kv = 2 * self.hidden * self.kv_dim
        out = self.q_dim * self.hidden
        return q + kv + out

    @property
    def mlp_params_per_layer(self) -> int:
        """Parameters of one MLP block (two or three matrices)."""
        matrices = 3 if self.mlp_kind is MLPKind.GATED else 2
        return matrices * self.hidden * self.ffn_hidden

    @property
    def params_per_layer(self) -> int:
        """Parameters of one transformer layer (attention + MLP)."""
        return self.attn_params_per_layer + self.mlp_params_per_layer

    @property
    def embedding_params(self) -> int:
        """Token embedding (+ untied LM head) parameters."""
        table = self.vocab * self.hidden
        return table if self.tie_embeddings else 2 * table

    @property
    def param_count(self) -> int:
        """Total parameter count (ignoring norms/biases, <0.1% of the total)."""
        return self.layers * self.params_per_layer + self.embedding_params

    def weight_bytes(self, bytes_per_param: float = 1.0) -> float:
        """Total weight footprint under ``bytes_per_param`` (default FP8)."""
        if bytes_per_param <= 0:
            raise SpecError("bytes_per_param must be positive")
        return self.param_count * bytes_per_param

    # --- KV cache ---------------------------------------------------------------

    def kv_bytes_per_token_layer(self, bytes_per_elem: float = 1.0) -> float:
        """KV-cache bytes one token adds to one layer (K and V)."""
        return 2.0 * self.kv_dim * bytes_per_elem

    def kv_bytes_per_token(self, bytes_per_elem: float = 1.0) -> float:
        """KV-cache bytes one token adds across all layers.

        This is the number that makes GPT-3 175B (MHA, 96 KV heads) roughly
        12x more KV-hungry per token than Llama3-70B (GQA, 8 KV heads) and
        drives the decode-phase differences in Figure 3b.
        """
        return self.layers * self.kv_bytes_per_token_layer(bytes_per_elem)

    def kv_bytes(self, tokens: int, bytes_per_elem: float = 1.0) -> float:
        """KV-cache bytes for ``tokens`` total cached tokens."""
        if tokens < 0:
            raise SpecError("tokens must be non-negative")
        return tokens * self.kv_bytes_per_token(bytes_per_elem)

    # --- activations ---------------------------------------------------------

    def activation_bytes_per_token(self, bytes_per_elem: float = 2.0) -> float:
        """Residual-stream bytes per token (the tensor-parallel all-reduce
        payload per token, per collective)."""
        return self.hidden * bytes_per_elem

    # --- misc -----------------------------------------------------------------

    def flops_per_token_dense(self) -> float:
        """Classic 2*N FLOPs/token estimate for sanity checks (weights only)."""
        return 2.0 * (self.layers * self.params_per_layer)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name}: {self.layers}L x {self.hidden}h, "
            f"{self.heads}q/{self.kv_heads}kv heads ({self.attention_kind.value}), "
            f"ffn {self.ffn_hidden} ({self.mlp_kind.value}), vocab {self.vocab}, "
            f"{self.param_count / 1e9:.1f}B params"
        )

    def scaled(self, layer_factor: float, name: str | None = None) -> "ModelSpec":
        """A copy with the layer count scaled (used by sweep utilities)."""
        layers = max(1, math.ceil(self.layers * layer_factor))
        return ModelSpec(
            name=name or f"{self.name}-x{layer_factor:g}",
            layers=layers,
            hidden=self.hidden,
            heads=self.heads,
            kv_heads=self.kv_heads,
            ffn_hidden=self.ffn_hidden,
            vocab=self.vocab,
            mlp_kind=self.mlp_kind,
            head_dim=self.head_dim,
            tie_embeddings=self.tie_embeddings,
            max_seq_len=self.max_seq_len,
        )
