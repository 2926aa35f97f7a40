"""Cross-module integration tests: full pipelines through the library."""

from __future__ import annotations

import pytest

from repro.cluster.scheduler import InstanceSpec, PhasePools
from repro.cluster.simulator import ServingSimulator, SimConfig
from repro.cluster.spec import ClusterSpec, lite_equivalent
from repro.core.inference import DecodeWorkload, PrefillWorkload, decode_iteration, prefill_pass
from repro.core.roofline import CommModel, RooflinePolicy
from repro.core.search import search_best_config
from repro.hardware.cost import CostModel
from repro.hardware.gpu import H100, LITE, LITE_MEMBW, LITE_NETBW_FLOPS
from repro.hardware.scaling import LiteScaling, derive_lite_gpu
from repro.workloads.models import LLAMA3_8B, LLAMA3_70B
from repro.workloads.traces import TraceConfig, generate_trace


class TestDerivedGPUThroughModel:
    """A GPU derived by the scaling module must run through the entire
    performance model, not just the pre-registered Table 1 rows."""

    def test_derived_lite_in_search(self):
        custom = derive_lite_gpu(H100, LiteScaling(split=2, mem_bw_boost=1.4))
        result = search_best_config(LLAMA3_70B, custom, "decode")
        assert result.feasible

    def test_split_2_between_h100_and_lite(self):
        """A 2-way split's decode efficiency lands between H100 and the
        4-way Lite at the same aggregate silicon."""
        half = derive_lite_gpu(H100, LiteScaling(split=2))
        h100 = search_best_config(LLAMA3_70B, H100, "decode").best_tokens_per_s_per_sm
        mid = search_best_config(LLAMA3_70B, half, "decode").best_tokens_per_s_per_sm
        assert mid == pytest.approx(h100, rel=0.25)


class TestSearchToSimulatorConsistency:
    """The simulator's service times must agree with the analytical model
    it is built on."""

    def test_decode_time_matches_model(self):
        inst = InstanceSpec(LLAMA3_70B, H100, 2)
        direct = decode_iteration(LLAMA3_70B, H100, 2, DecodeWorkload(32, 1750))
        assert inst.decode_time(32, 1750) == pytest.approx(direct.latency)

    def test_prefill_time_matches_model(self):
        inst = InstanceSpec(LLAMA3_70B, H100, 2)
        direct = prefill_pass(LLAMA3_70B, H100, 2, PrefillWorkload(4, 1500))
        assert inst.prefill_time(4, 1500) == pytest.approx(direct.latency)

    def test_simulated_tbt_matches_analytical_band(self):
        """Steady-state simulated TBT should sit inside the analytical
        range for the batches the instance actually runs."""
        pools = PhasePools(
            prefill=InstanceSpec(LLAMA3_8B, H100, 1),
            n_prefill=2,
            decode=InstanceSpec(LLAMA3_8B, H100, 1),
            n_decode=1,
            max_prefill_batch=4,
            max_decode_batch=32,
        )
        trace = generate_trace(TraceConfig(rate=4.0, duration=20.0, output_tokens=100), seed=2)
        report = ServingSimulator(pools, SimConfig(max_sim_time=600.0)).run(trace)
        lo = pools.decode.decode_time(1, 1500)
        hi = pools.decode.decode_time(32, 2100)
        assert lo <= report.tbt_mean <= hi


class TestSplitwiseDeployment:
    """Phase-specialized Lite variants end-to-end: the paper's Splitwise-at-
    finer-scale story."""

    def test_specialized_beats_generic_pools(self):
        trace = generate_trace(
            TraceConfig(rate=12.0, duration=20.0, output_tokens=150), seed=5
        )

        def run(prefill_gpu, decode_gpu):
            pools = PhasePools(
                prefill=InstanceSpec(LLAMA3_8B, prefill_gpu, 2),
                n_prefill=2,
                decode=InstanceSpec(LLAMA3_8B, decode_gpu, 2),
                n_decode=2,
                max_prefill_batch=4,
                max_decode_batch=64,
            )
            return ServingSimulator(pools, SimConfig(max_sim_time=300.0)).run(trace)

        generic = run(LITE, LITE)
        specialized = run(LITE_NETBW_FLOPS, LITE_MEMBW)
        assert specialized.completed >= generic.completed
        assert specialized.tbt_mean < generic.tbt_mean
        assert specialized.ttft_p50 <= generic.ttft_p50 * 1.05


class TestEconomicsPipeline:
    def test_equal_compute_cheaper_lite_cluster(self):
        """Cluster-level Figure 2: same FLOPS/memory, lower GPU capex."""
        base = ClusterSpec(H100, 8)
        lite = lite_equivalent(base)
        assert lite.total_flops == pytest.approx(base.total_flops)
        assert lite.gpu_capex(CostModel()) < base.gpu_capex(CostModel())

    def test_perf_per_dollar_improves_for_decode(self):
        """The paper's bottom line: matching performance at lower cost.
        Lite+MemBW decode throughput per (modeled) dollar beats H100."""
        cm = CostModel()
        h100 = search_best_config(LLAMA3_70B, H100, "decode").best
        lite = search_best_config(LLAMA3_70B, LITE_MEMBW, "decode").best
        h100_cost = ClusterSpec(H100, h100.n_gpus).gpu_capex(cm)
        lite_cost = ClusterSpec(LITE_MEMBW, lite.n_gpus).gpu_capex(cm)
        h100_eff = h100.result.tokens_per_s / h100_cost
        lite_eff = lite.result.tokens_per_s / lite_cost
        assert lite_eff > h100_eff


class TestPolicySensitivity:
    """The comm-model ablation: conclusions under the three charging models."""

    @pytest.mark.parametrize("comm", list(CommModel), ids=lambda c: c.value)
    def test_all_models_produce_feasible_results(self, comm):
        policy = RooflinePolicy(comm_model=comm)
        result = search_best_config(LLAMA3_70B, LITE, "decode", policy=policy)
        assert result.feasible

    def test_flat_ring_harshest_on_lite(self):
        """Under honest flat-ring physics the Lite decode story weakens —
        the reproduction's headline sensitivity finding."""
        h100 = search_best_config(LLAMA3_70B, H100, "decode").best_tokens_per_s_per_sm
        results = {}
        for comm in CommModel:
            policy = RooflinePolicy(comm_model=comm)
            lite = search_best_config(LLAMA3_70B, LITE_MEMBW, "decode", policy=policy)
            results[comm] = lite.best_tokens_per_s_per_sm / h100
        assert results[CommModel.FLAT_RING] <= results[CommModel.HIERARCHICAL]
        assert results[CommModel.HIERARCHICAL] <= results[CommModel.SHARDED] + 1e-9
