"""Streaming-vs-exact engine parity and iterator trace feeding.

``metrics="exact"`` bit-identity to the seed goldens is pinned separately
in ``benchmarks/test_serving_simulation.py``; this file pins what the
streaming mode promises instead: exact counters, ≤1% p50/p99 latency
quantiles, bounded state, and identical behaviour for list and iterator
traces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.scheduler import ColocatedPool, InstanceSpec, PhasePools
from repro.cluster.simulator import ColocatedSimulator, ServingSimulator, SimConfig
from repro.errors import SpecError
from repro.hardware.gpu import H100
from repro.workloads.models import LLAMA3_8B
from repro.workloads.traces import TraceConfig, generate_trace, iter_trace


def _pools(n_prefill=2, n_decode=2):
    return PhasePools(
        prefill=InstanceSpec(LLAMA3_8B, H100, 1),
        n_prefill=n_prefill,
        decode=InstanceSpec(LLAMA3_8B, H100, 1),
        n_decode=n_decode,
        max_prefill_batch=4,
        max_decode_batch=64,
    )


def _colocated(n_instances=2):
    return ColocatedPool(
        instance=InstanceSpec(LLAMA3_8B, H100, 1),
        n_instances=n_instances,
        max_decode_batch=64,
    )


def _trace(rate=40.0, duration=60.0, seed=3):
    return generate_trace(
        TraceConfig(rate=rate, duration=duration, output_tokens=60, output_spread=0.5),
        seed=seed,
    )


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-12)


class TestStreamingParity:
    @pytest.mark.parametrize("shape", ["phase-split", "colocated"])
    def test_counters_exact_and_quantiles_within_one_percent(self, shape):
        trace = _trace()
        if shape == "phase-split":
            exact = ServingSimulator(_pools(), SimConfig(max_sim_time=600)).run(trace)
            stream = ServingSimulator(
                _pools(), SimConfig(max_sim_time=600, metrics="streaming")
            ).run(trace)
        else:
            exact = ColocatedSimulator(_colocated(), SimConfig(max_sim_time=600)).run(trace)
            stream = ColocatedSimulator(
                _colocated(), SimConfig(max_sim_time=600, metrics="streaming")
            ).run(trace)
        # Counters, throughput, utilization, and economics are exact sums
        # over the same event sequence: identical, not approximate.
        assert stream.completed == exact.completed == len(trace)
        assert stream.dropped == exact.dropped
        assert stream.duration == exact.duration
        assert stream.output_tokens_per_s == exact.output_tokens_per_s
        assert stream.prefill_utilization == exact.prefill_utilization
        assert stream.decode_utilization == exact.decode_utilization
        assert stream.usd_cost == exact.usd_cost
        # The mean folds through the sketch's exact running sum.
        assert stream.tbt_mean == pytest.approx(exact.tbt_mean, rel=1e-12)
        # Percentiles are sketch estimates: the acceptance bar is 1% on
        # TTFT p50/p99 (measured ≤0.6% at ~2.4k requests); E2E gets the
        # same bar at p50 and 2% slack at p99, where a few-sample tail
        # makes the interpolation noisier.
        assert _rel(stream.ttft_p50, exact.ttft_p50) <= 0.01
        assert _rel(stream.ttft_p99, exact.ttft_p99) <= 0.01
        assert _rel(stream.e2e_p50, exact.e2e_p50) <= 0.01
        assert _rel(stream.e2e_p99, exact.e2e_p99) <= 0.02
        assert _rel(stream.tbt_p99, exact.tbt_p99) <= 0.01

    def test_streaming_keeps_no_completion_list(self):
        trace = _trace(rate=8, duration=20)
        sim = ColocatedSimulator(
            _colocated(), SimConfig(max_sim_time=600, metrics="streaming")
        )
        report = sim.run(trace)
        assert report.completed == len(trace)
        assert sim.last_metrics is not None
        assert sim.last_metrics.completed == len(trace)
        # The constant-memory contract: sketch state, not per-request rows.
        assert sim.last_metrics.ttft.centroid_count() <= 4 * 200

    def test_exact_mode_has_no_metrics_object(self):
        sim = ColocatedSimulator(_colocated(), SimConfig(max_sim_time=600))
        sim.run(_trace(rate=4, duration=10))
        assert sim.last_metrics is None

    def test_rejects_unknown_metrics_mode(self):
        with pytest.raises(SpecError):
            SimConfig(metrics="approximate")


class TestIteratorTraces:
    # A 10 s horizon cuts the 25 s trace: the requests the iterator never
    # fed still count as dropped, exactly as for the list.
    @pytest.mark.parametrize("max_sim_time", [600, 10], ids=["drained", "horizon-cut"])
    @pytest.mark.parametrize("shape", ["phase-split", "colocated"])
    def test_iterator_trace_matches_list_trace(self, shape, max_sim_time):
        trace = _trace(rate=10, duration=25)
        config = SimConfig(max_sim_time=max_sim_time, metrics="streaming")
        if shape == "phase-split":
            from_list = ServingSimulator(_pools(), config).run(trace)
            from_iter = ServingSimulator(_pools(), config).run(iter(trace))
        else:
            from_list = ColocatedSimulator(_colocated(), config).run(trace)
            from_iter = ColocatedSimulator(_colocated(), config).run(iter(trace))
        assert from_iter == from_list

    def test_lazy_trace_runs_end_to_end(self):
        config = TraceConfig(rate=10, duration=30, output_tokens=50)
        lazy = iter_trace(config, seed=7, window=10.0)
        report = ColocatedSimulator(
            _colocated(), SimConfig(max_sim_time=600, metrics="streaming")
        ).run(lazy)
        assert report.completed == len(list(iter_trace(config, seed=7, window=10.0)))
        assert report.dropped == 0
        assert np.isfinite(report.ttft_p99)

    def test_exact_mode_accepts_iterators_too(self):
        trace = _trace(rate=6, duration=15)
        config = SimConfig(max_sim_time=600)
        from_list = ColocatedSimulator(_colocated(), config).run(trace)
        from_iter = ColocatedSimulator(_colocated(), config).run(iter(trace))
        assert from_iter == from_list
