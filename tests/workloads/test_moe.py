"""MoE model-spec tests and expert-parallel stage accounting."""

from __future__ import annotations

import pytest

from repro.core.inference import DecodeWorkload, PrefillWorkload, decode_iteration, prefill_pass
from repro.core.parallelism import TensorParallel
from repro.core.roofline import RooflinePolicy
from repro.core.search import search_best_config
from repro.core.stages import decode_stage_costs
from repro.errors import SpecError
from repro.hardware.gpu import H100, LITE_MEMBW
from repro.workloads.moe import MIXTRAL_8X7B, MoEModelSpec
from repro.workloads.models import get_model


def tiny_moe(**overrides) -> MoEModelSpec:
    base = dict(
        name="tiny-moe", layers=4, hidden=256, heads=8, kv_heads=4,
        ffn_hidden=512, vocab=1000, n_experts=8, experts_per_token=2,
    )
    base.update(overrides)
    return MoEModelSpec(**base)


class TestSpec:
    def test_registered_in_catalogue(self):
        assert get_model("mixtral-8x7b") is MIXTRAL_8X7B

    def test_total_vs_active_params(self):
        assert MIXTRAL_8X7B.param_count == pytest.approx(46.7e9, rel=0.02)
        assert MIXTRAL_8X7B.active_param_count == pytest.approx(12.9e9, rel=0.03)
        assert MIXTRAL_8X7B.sparsity == pytest.approx(3.6, rel=0.05)

    def test_expert_params(self):
        spec = tiny_moe()
        assert spec.expert_params == 3 * 256 * 512  # gated
        assert spec.mlp_params_per_layer == 8 * spec.expert_params + 256 * 8

    def test_validation(self):
        with pytest.raises(SpecError):
            tiny_moe(n_experts=0)
        with pytest.raises(SpecError):
            tiny_moe(experts_per_token=9)

    def test_experts_touched_limits(self):
        spec = tiny_moe()
        assert spec.experts_touched(0) == 0.0
        assert spec.experts_touched(10_000) == pytest.approx(8.0, rel=1e-3)
        assert 0 < spec.experts_touched(1) <= 2.0


class TestStageAccounting:
    def test_moe_mlp_stage_name_and_alltoall(self):
        tp = TensorParallel(tiny_moe(), 4)
        costs = decode_stage_costs(tp, 16, 100, RooflinePolicy())
        mlp = costs.layer_stages[2]
        assert mlp.name == "moe_mlp"
        ops = [op for op, _ in mlp.comm]
        assert ops == ["all_to_all", "all_to_all"]

    def test_active_flops_below_dense_equivalent(self):
        """Top-2 of 8 experts: MLP FLOPs are 2/8 of the all-experts dense
        equivalent."""
        moe = tiny_moe()
        dense_like = tiny_moe(n_experts=1, experts_per_token=1, ffn_hidden=512 * 8)
        tp_moe = TensorParallel(moe, 4)
        tp_dense = TensorParallel(dense_like, 4)
        policy = RooflinePolicy()
        f_moe = decode_stage_costs(tp_moe, 16, 100, policy).layer_stages[2].flops
        f_dense = decode_stage_costs(tp_dense, 16, 100, policy).layer_stages[2].flops
        assert f_moe == pytest.approx(f_dense * 2 / 8, rel=1e-6)

    def test_small_batch_touches_few_experts(self):
        """At batch 1 the weight read covers ~top-k experts, not all 8."""
        tp = TensorParallel(tiny_moe(), 1)
        policy = RooflinePolicy()
        small = decode_stage_costs(tp, 1, 100, policy).layer_stages[2].mem_bytes
        large = decode_stage_costs(tp, 256, 100, policy).layer_stages[2].mem_bytes
        assert small < large
        assert small < 0.5 * large


class TestMoEThroughModel:
    def test_prefill_and_decode_run(self):
        p = prefill_pass(MIXTRAL_8X7B, H100, 2, PrefillWorkload(4))
        d = decode_iteration(MIXTRAL_8X7B, H100, 2, DecodeWorkload(32))
        assert p.fits_memory and d.fits_memory
        assert p.latency > 0 and d.latency > 0

    def test_search_feasible(self):
        result = search_best_config(MIXTRAL_8X7B, H100, "decode")
        assert result.feasible

    def test_membw_advantage_amplified_for_moe(self):
        """MoE decode reads ALL resident experts at large batch while only
        top-k contribute FLOPs — even more memory-bound than dense, so the
        Lite+MemBW advantage grows (extension finding)."""
        from repro.workloads.models import LLAMA3_70B

        h100_moe = search_best_config(MIXTRAL_8X7B, H100, "decode").best_tokens_per_s_per_sm
        lite_moe = search_best_config(MIXTRAL_8X7B, LITE_MEMBW, "decode").best_tokens_per_s_per_sm
        h100_dense = search_best_config(LLAMA3_70B, H100, "decode").best_tokens_per_s_per_sm
        lite_dense = search_best_config(LLAMA3_70B, LITE_MEMBW, "decode").best_tokens_per_s_per_sm
        assert lite_moe / h100_moe > lite_dense / h100_dense
