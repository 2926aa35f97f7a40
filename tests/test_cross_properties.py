"""Cross-module property tests: invariants that tie the library together.

These complement the per-module hypothesis tests with end-to-end invariants
the whole model rests on — resource monotonicity, conservation, and
normalization consistency.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.inference import DecodeWorkload, PrefillWorkload, decode_iteration, prefill_pass
from repro.core.training import TrainingConfig, train_step
from repro.hardware.gpu import GPUSpec, H100, LITE
from repro.hardware.scaling import LiteScaling, derive_lite_gpu
from repro.hardware.tco import TCOAssumptions, cluster_tco
from repro.cluster.spec import ClusterSpec
from repro.network.traffic import TrafficPattern, traffic_matrix
from repro.workloads.models import LLAMA3_8B, LLAMA3_70B


def _boosted(gpu: GPUSpec, mem: float = 1.0, net: float = 1.0, flops: float = 1.0) -> GPUSpec:
    """A GPU with scaled resources (keeps everything else fixed)."""
    from dataclasses import replace

    return replace(
        gpu,
        name=f"{gpu.name}*",
        mem_bandwidth=gpu.mem_bandwidth * mem,
        net_bandwidth=gpu.net_bandwidth * net,
        mesh_bandwidth=gpu.mesh_bandwidth * net,
        peak_flops=gpu.peak_flops * flops,
    )


class TestResourceMonotonicity:
    """More of any resource never slows any phase down."""

    @given(
        batch=st.sampled_from([1, 8, 64]),
        resource=st.sampled_from(["mem", "net", "flops"]),
        factor=st.floats(1.1, 3.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_decode_latency_monotone_in_resources(self, batch, resource, factor):
        boosted = _boosted(LITE, **{resource: factor})
        base = decode_iteration(LLAMA3_70B, LITE, 8, DecodeWorkload(batch))
        fast = decode_iteration(LLAMA3_70B, boosted, 8, DecodeWorkload(batch))
        assert fast.latency <= base.latency + 1e-12

    @given(
        batch=st.sampled_from([1, 4]),
        factor=st.floats(1.1, 2.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_prefill_latency_monotone_in_flops(self, batch, factor):
        boosted = _boosted(H100, flops=factor)
        base = prefill_pass(LLAMA3_70B, H100, 8, PrefillWorkload(batch))
        fast = prefill_pass(LLAMA3_70B, boosted, 8, PrefillWorkload(batch))
        assert fast.latency <= base.latency + 1e-12


class TestConservationUnderSplit:
    """Splitting a GPU conserves every aggregate the economics rest on."""

    @given(split=st.sampled_from([2, 4, 8]))
    @settings(max_examples=10, deadline=None)
    def test_cluster_aggregates_conserved(self, split):
        base = ClusterSpec(H100, 8)
        lite_gpu = derive_lite_gpu(H100, LiteScaling(split=split), validate_shoreline=False)
        lite = ClusterSpec(lite_gpu, 8 * split)
        assert lite.total_flops == pytest.approx(base.total_flops)
        assert lite.total_mem_capacity == pytest.approx(base.total_mem_capacity)
        assert lite.gpu_power == pytest.approx(base.gpu_power)


class TestTrafficConservation:
    @given(
        pattern=st.sampled_from(list(TrafficPattern)),
        total=st.floats(1e6, 1e12),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_matrices_conserve_bytes(self, pattern, total, seed):
        m = traffic_matrix(pattern, 16, total, group=4, seed=seed)
        assert m.sum() == pytest.approx(total, rel=1e-9)
        assert (m >= 0).all()


class TestTrainingInvariants:
    @given(dp=st.sampled_from([2, 4, 8]), tp=st.sampled_from([2, 4, 8]))
    @settings(max_examples=15, deadline=None)
    def test_mfu_bounded(self, dp, tp):
        cfg = TrainingConfig(data_parallel=dp, tensor=tp, micro_batch=1)
        result = train_step(LLAMA3_8B, H100, cfg)
        assert 0.0 < result.mfu < 1.0

    @given(seq=st.sampled_from([1024, 2048, 4096, 8192]))
    @settings(max_examples=10, deadline=None)
    def test_tokens_per_step_consistent(self, seq):
        cfg = TrainingConfig(data_parallel=4, tensor=4, micro_batch=1, seq_len=seq)
        result = train_step(LLAMA3_8B, H100, cfg)
        assert result.tokens_per_s == pytest.approx(cfg.tokens_per_step / result.step_time)


class TestTCOInvariants:
    @given(
        price=st.floats(0.03, 0.30),
        pue=st.floats(1.05, 2.0),
        years=st.floats(2.0, 8.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_tco_positive_and_decomposes(self, price, pue, years):
        assumptions = TCOAssumptions(
            electricity_usd_per_kwh=price, pue=pue, amortization_years=years
        )
        bd = cluster_tco(ClusterSpec(H100, 8), assumptions)
        assert bd.total_per_hour == pytest.approx(bd.capex_per_hour + bd.opex_per_hour)
        assert bd.total_per_hour > 0

    @given(pue=st.floats(1.05, 1.9))
    @settings(max_examples=15, deadline=None)
    def test_power_scales_with_pue(self, pue):
        base = cluster_tco(ClusterSpec(H100, 8), TCOAssumptions(pue=1.0 + 1e-9))
        worse = cluster_tco(ClusterSpec(H100, 8), TCOAssumptions(pue=pue))
        assert worse.power_opex >= base.power_opex


class TestNormalizationConsistency:
    def test_per_sm_metric_silicon_invariant(self):
        """Two layouts with identical per-SM resources and no network
        difference score identically: 1x H100 vs itself at doubled count
        and halved batch share."""
        one = decode_iteration(LLAMA3_8B, H100, 1, DecodeWorkload(32))
        # Same aggregate on 2 GPUs with TP=2 incurs only collective overhead:
        two = decode_iteration(LLAMA3_8B, H100, 2, DecodeWorkload(32))
        assert two.tokens_per_s_per_sm <= one.tokens_per_s_per_sm * 1.05
