"""Pool-provisioning tests."""

from __future__ import annotations

import pytest

from repro.cluster.provisioning import (
    WorkloadForecast,
    phase_gpu_ratio,
    provision_pools,
)
from repro.cluster.simulator import ServingSimulator, SimConfig
from repro.errors import SpecError
from repro.hardware.gpu import H100, LITE_MEMBW, LITE_NETBW_FLOPS
from repro.workloads.models import LLAMA3_8B, LLAMA3_70B
from repro.workloads.traces import TraceConfig, generate_trace


class TestForecast:
    def test_token_rates(self):
        f = WorkloadForecast(rate=10.0, prompt_tokens=1500, output_tokens=250)
        assert f.prefill_tokens_per_s == 15000
        assert f.decode_tokens_per_s == 2500

    def test_validation(self):
        with pytest.raises(SpecError):
            WorkloadForecast(rate=0.0)


class TestProvisioning:
    def test_utilization_within_headroom(self):
        plan = provision_pools(
            LLAMA3_8B, H100, H100, WorkloadForecast(rate=20.0), headroom=0.7
        )
        assert plan.prefill_utilization <= 0.7 + 1e-9
        assert plan.decode_utilization <= 0.7 + 1e-9

    def test_higher_rate_more_instances(self):
        low = provision_pools(LLAMA3_8B, H100, H100, WorkloadForecast(rate=5.0))
        high = provision_pools(LLAMA3_8B, H100, H100, WorkloadForecast(rate=100.0))
        assert high.pools.n_prefill >= low.pools.n_prefill
        assert high.pools.n_decode > low.pools.n_decode

    def test_prompt_heavy_mix_shifts_ratio(self):
        """More prompt tokens per request -> relatively more prefill GPUs
        (at rates high enough that instance-count quantization is small)."""
        chatty = provision_pools(
            LLAMA3_8B, H100, H100,
            WorkloadForecast(rate=400.0, prompt_tokens=500, output_tokens=500),
        )
        coding = provision_pools(
            LLAMA3_8B, H100, H100,
            WorkloadForecast(rate=400.0, prompt_tokens=4000, output_tokens=100),
        )
        assert phase_gpu_ratio(coding) > phase_gpu_ratio(chatty)

    def test_headroom_validation(self):
        with pytest.raises(SpecError):
            provision_pools(LLAMA3_8B, H100, H100, WorkloadForecast(rate=1.0), headroom=0.0)

    def test_specialized_pools(self):
        plan = provision_pools(
            LLAMA3_70B, LITE_NETBW_FLOPS, LITE_MEMBW, WorkloadForecast(rate=4.0)
        )
        assert plan.pools.prefill.gpu is LITE_NETBW_FLOPS
        assert plan.pools.decode.gpu is LITE_MEMBW


class TestClosedLoop:
    def test_provisioned_deployment_meets_slos_in_simulation(self):
        """The loop: forecast -> provision -> simulate -> SLOs hold."""
        forecast = WorkloadForecast(rate=8.0, prompt_tokens=1500, output_tokens=150)
        plan = provision_pools(LLAMA3_8B, H100, H100, forecast, headroom=0.6)
        trace = generate_trace(
            TraceConfig(rate=forecast.rate, duration=30.0,
                        output_tokens=forecast.output_tokens, output_spread=0.3),
            seed=21,
        )
        report = ServingSimulator(plan.pools, SimConfig(max_sim_time=300.0)).run(trace)
        assert report.completed == len(trace)
        assert report.ttft_p99 <= 1.5  # SLO plus queueing slack
        assert report.tbt_mean <= 0.050
