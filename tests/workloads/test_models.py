"""Model-catalogue tests: the exact geometries the paper evaluates."""

from __future__ import annotations

import pytest

from repro.errors import RegistryError
from repro.workloads.models import (
    GPT3_175B,
    LLAMA3_70B,
    LLAMA3_405B,
    MODELS,
    PAPER_MODELS,
    get_model,
)
from repro.workloads.transformer import AttentionKind, MLPKind


class TestCatalogue:
    def test_paper_models_order(self):
        assert [m.name for m in PAPER_MODELS] == ["Llama3-70B", "GPT3-175B", "Llama3-405B"]

    def test_lookup_is_normalizing(self):
        assert get_model("llama3-70b") is LLAMA3_70B
        assert get_model("GPT3_175B") is GPT3_175B

    def test_unknown_model_raises(self):
        with pytest.raises(RegistryError):
            get_model("gpt5")

    def test_registry_contains_extras(self):
        assert "llama3-8b" in MODELS


class TestLlama70B:
    def test_geometry(self):
        assert LLAMA3_70B.layers == 80
        assert LLAMA3_70B.hidden == 8192
        assert LLAMA3_70B.heads == 64
        assert LLAMA3_70B.kv_heads == 8
        assert LLAMA3_70B.ffn_hidden == 28672

    def test_gqa_and_gated(self):
        assert LLAMA3_70B.attention_kind is AttentionKind.GQA
        assert LLAMA3_70B.mlp_kind is MLPKind.GATED


class TestGPT3:
    def test_geometry(self):
        assert GPT3_175B.layers == 96
        assert GPT3_175B.hidden == 12288
        assert GPT3_175B.heads == 96

    def test_mha_structure(self):
        """GPT-3 is MHA — the paper's 'more KV-heads' observation."""
        assert GPT3_175B.kv_heads == GPT3_175B.heads
        assert GPT3_175B.attention_kind is AttentionKind.MHA

    def test_plain_4h_mlp(self):
        assert GPT3_175B.mlp_kind is MLPKind.PLAIN
        assert GPT3_175B.ffn_hidden == 4 * GPT3_175B.hidden


class TestLlama405B:
    def test_geometry(self):
        assert LLAMA3_405B.layers == 126
        assert LLAMA3_405B.hidden == 16384
        assert LLAMA3_405B.heads == 128
        assert LLAMA3_405B.kv_heads == 8

    def test_needs_multiple_h100s_fp8(self):
        """405 GB of FP8 weights exceed one H100 but fit 8 (DESIGN.md 4.1)."""
        weights = LLAMA3_405B.weight_bytes(1.0)
        assert weights > 80e9
        assert weights < 8 * 80e9


class TestDescribe:
    def test_describe_mentions_params(self, ):
        text = LLAMA3_70B.describe()
        assert "70.6B" in text or "70." in text
        assert "gqa" in text
