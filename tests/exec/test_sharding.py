"""Sharded simulation: partitioning, deterministic merge, worker parity."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cluster.engine import EventQueue
from repro.cluster.resilience import ResilienceConfig
from repro.cluster.scheduler import ColocatedPool, InstanceSpec, PhasePools
from repro.cluster.simulator import SimConfig, SimReport
from repro.errors import SpecError
from repro.exec import sharding
from repro.exec.sharding import (
    merge_shard_results,
    run_sharded,
    shard_deployment,
    shard_requests,
)
from repro.hardware.gpu import H100
from repro.workloads.models import LLAMA3_8B
from repro.workloads.traces import TraceConfig, generate_trace, iter_trace


def _pools(n_prefill=4, n_decode=4):
    return PhasePools(
        prefill=InstanceSpec(LLAMA3_8B, H100, 1),
        n_prefill=n_prefill,
        decode=InstanceSpec(LLAMA3_8B, H100, 1),
        n_decode=n_decode,
        max_prefill_batch=4,
        max_decode_batch=64,
    )


def _colocated(n_instances=4):
    return ColocatedPool(
        instance=InstanceSpec(LLAMA3_8B, H100, 1),
        n_instances=n_instances,
        max_decode_batch=64,
    )


def _trace(rate=12.0, duration=40.0, seed=7):
    return generate_trace(
        TraceConfig(rate=rate, duration=duration, output_tokens=50), seed=seed
    )


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-12)


class TestShardRequests:
    def test_least_loaded_balances_tokens(self):
        trace = _trace()
        shards = shard_requests(trace, 4)
        assert sum(len(s) for s in shards) == len(trace)
        loads = [sum(r.prompt_tokens + r.output_tokens for r in s) for s in shards]
        assert max(loads) - min(loads) < 0.05 * max(loads)
        # Arrival order preserved within every shard.
        for shard in shards:
            assert all(a.arrival <= b.arrival for a, b in zip(shard, shard[1:]))

    def test_round_robin_stripes(self):
        trace = _trace(rate=5, duration=10)
        shards = shard_requests(trace, 3, policy="round-robin")
        assert [r.request_id for r in shards[0]] == [r.request_id for r in trace][::3]

    def test_deterministic(self):
        trace = _trace()
        assert shard_requests(trace, 3) == shard_requests(trace, 3)

    def test_weights_skew_assignment(self):
        trace = _trace()
        light, heavy = shard_requests(trace, 2, weights=[1.0, 3.0])
        tokens = lambda s: sum(r.prompt_tokens + r.output_tokens for r in s)  # noqa: E731
        assert 2.0 < tokens(heavy) / tokens(light) < 4.0

    def test_validation(self):
        with pytest.raises(SpecError):
            shard_requests([], 0)
        with pytest.raises(SpecError):
            shard_requests([], 2, weights=[1.0])
        with pytest.raises(SpecError):
            shard_requests([], 2, weights=[1.0, -1.0])
        with pytest.raises(SpecError):
            shard_requests([], 2, policy=42)


class TestShardDeployment:
    def test_phase_split_even_division(self):
        subs = shard_deployment(_pools(5, 7), 3)
        assert [d.n_prefill for d in subs] == [2, 2, 1]
        assert [d.n_decode for d in subs] == [3, 2, 2]
        assert all(d.max_decode_batch == 64 for d in subs)

    def test_colocated_division(self):
        subs = shard_deployment(_colocated(5), 2)
        assert [d.n_instances for d in subs] == [3, 2]

    def test_rejects_more_shards_than_instances(self):
        with pytest.raises(SpecError):
            shard_deployment(_pools(2, 8), 3)
        with pytest.raises(SpecError):
            shard_deployment(_colocated(2), 3)
        with pytest.raises(SpecError):
            shard_deployment("not-a-deployment", 1)


class TestRunSharded:
    def test_shards_n_matches_shards_1_within_tolerance(self):
        trace = _trace()
        config = SimConfig(max_sim_time=600)
        one = run_sharded(_pools(), trace, config, shards=1)
        four = run_sharded(_pools(), trace, config, shards=4)
        # Counters are bit-exact: every request completes in both factorings.
        assert one.completed == four.completed == len(trace)
        assert one.dropped == four.dropped == 0
        assert one.requeued_on_failure == four.requeued_on_failure == 0
        # Latency quantiles agree within the merge tolerance.
        assert _rel(four.ttft_p50, one.ttft_p50) <= 0.02
        assert _rel(four.ttft_p99, one.ttft_p99) <= 0.05
        assert np.isfinite(four.e2e_p99)

    def test_factoring_is_exact_when_routing_is_preserved(self):
        # Under "index-order" the unsharded engine fills instance 0 first
        # and the shard router sends every request to shard 0 — the same
        # event sequence on the same instance, so every latency quantile
        # must match to the sketch's determinism, not a tolerance.
        trace = _trace(rate=3, duration=40)
        config = SimConfig(max_sim_time=600)
        one = run_sharded(_colocated(), trace, config, shards=1,
                          shard_policy="index-order")
        four = run_sharded(_colocated(), trace, config, shards=4,
                           shard_policy="index-order")
        assert one.completed == four.completed == len(trace)
        assert four.ttft_p50 == one.ttft_p50
        assert four.ttft_p99 == one.ttft_p99
        assert four.e2e_p99 == one.e2e_p99

    def test_workers_bit_identical_to_serial(self):
        trace = _trace()
        config = SimConfig(max_sim_time=600)
        serial = run_sharded(_pools(), trace, config, shards=4, workers=1)
        pooled = run_sharded(_pools(), trace, config, shards=4, workers=4)
        assert serial == pooled

    def test_deterministic_across_runs(self):
        trace = _trace()
        config = SimConfig(max_sim_time=600)
        a = run_sharded(_colocated(), trace, config, shards=2)
        b = run_sharded(_colocated(), trace, config, shards=2)
        assert a == b

    def test_accepts_lazy_traces(self):
        config = SimConfig(max_sim_time=600)
        trace_config = TraceConfig(rate=10, duration=30, output_tokens=40)
        report = run_sharded(
            _colocated(), iter_trace(trace_config, seed=1, window=10.0),
            config, shards=2,
        )
        assert report.completed == len(list(iter_trace(trace_config, seed=1, window=10.0)))

    def test_failure_seeds_derive_per_shard(self):
        from repro.cluster.failures import FailureModel

        trace = _trace(rate=8, duration=30)
        config = SimConfig(max_sim_time=600)
        model = FailureModel(mtbf=120.0, mttr=30.0)
        a = run_sharded(_pools(), trace, config, shards=2,
                        failure_model=model, failure_seed=0)
        b = run_sharded(_pools(), trace, config, shards=2,
                        failure_model=model, failure_seed=1)
        assert a == run_sharded(_pools(), trace, config, shards=2,
                                failure_model=model, failure_seed=0)
        assert a != b  # different base seeds draw different shard schedules

    def test_economics_sum_across_shards(self):
        trace = _trace()
        config = SimConfig(max_sim_time=600)
        report = run_sharded(_pools(), trace, config, shards=4)
        assert report.gpu_seconds > 0
        assert report.usd_cost > 0
        assert report.usd_per_mtoken == pytest.approx(
            report.usd_cost / (report.output_tokens_per_s * report.duration / 1e6),
            rel=1e-6,
        )

    def test_rejects_bad_shard_count(self):
        with pytest.raises(SpecError):
            run_sharded(_pools(), [], shards=0)

    @pytest.mark.parametrize("deployment", [_pools, _colocated], ids=["phase-split", "colocated"])
    def test_shard_engines_hold_no_arrival_backlog(self, deployment):
        # Each shard engine reads its sub-trace one arrival ahead of its
        # clock, so its event heap never holds a second pending arrival.
        pending = {}  # event queue -> [pending arrivals, most ever pending]
        push, pop = EventQueue.push, EventQueue.pop

        def spy_push(queue, time, kind, payload=()):
            if kind == "arrival":
                count = pending.setdefault(queue, [0, 0])
                count[0] += 1
                count[1] = max(count)
            push(queue, time, kind, payload)

        def spy_pop(queue):
            event = pop(queue)
            if event[1] == "arrival":
                pending[queue][0] -= 1
            return event

        trace = _trace()
        EventQueue.push, EventQueue.pop = spy_push, spy_pop
        try:
            report = run_sharded(
                deployment(), trace, SimConfig(max_sim_time=600), shards=2, workers=1
            )
        finally:
            EventQueue.push, EventQueue.pop = push, pop
        assert report.completed == len(trace)
        assert len(pending) == 2  # one engine per shard
        assert [most for _, most in pending.values()] == [1, 1]


class TestResilienceParity:
    """Satellite: shards=N and shards=1 agree on restart/retry counters."""

    CONFIG_KW = dict(
        deadline_s=20.0,
        queue_timeout_s=3.0,
        retry="fixed",
        checkpoint_interval=16,
    )
    #: One scripted outage per decode instance half, in whole-deployment
    #: indices: shard 0 owns decode 0-1, shard 1 owns decode 2-3.
    FAILURES = ((6.0, "decode", 0, 15.0), (9.0, "decode", 3, 15.0))

    @staticmethod
    def _heavy_trace():
        # Decode-heavy enough that every instance holds live work when its
        # scripted outage lands — real victims in both factorings.
        return generate_trace(
            TraceConfig(rate=20, duration=25, output_tokens=300), seed=7
        )

    def _run(self, shards, shard_policy="round-robin"):
        from repro.cluster.resilience import ResilienceConfig

        return run_sharded(
            _pools(2, 4),
            self._heavy_trace(),
            SimConfig(max_sim_time=600, resilience=ResilienceConfig(**self.CONFIG_KW)),
            shards=shards,
            shard_policy=shard_policy,
            failures=self.FAILURES,
        )

    def test_shards_1_matches_unsharded_exactly(self):
        from repro.cluster.resilience import ResilienceConfig
        from repro.cluster.simulator import ServingSimulator

        sharded = self._run(1)
        direct = ServingSimulator(
            _pools(2, 4),
            SimConfig(
                max_sim_time=600,
                metrics="streaming",
                resilience=ResilienceConfig(**self.CONFIG_KW),
            ),
            failures=list(self.FAILURES),
        ).run(self._heavy_trace())
        for field in (
            "completed", "restarted_requests", "requeued_on_failure", "retries",
            "timed_out", "deadline_missed", "abandoned", "goodput_tokens",
            "failure_hits", "slo_violations",
        ):
            assert getattr(sharded, field) == getattr(direct, field), field
        assert sharded.mttr_s == pytest.approx(direct.mttr_s)
        assert sharded.availability == pytest.approx(direct.availability)

    def test_restart_counters_consistent_across_shardings(self):
        one = self._run(1)
        two = self._run(2)
        # Request-id sets per shard are disjoint, so the distinct-request
        # restart counter genuinely sums; both factorings must see real
        # victims from their scripted outage.
        assert one.failure_hits == two.failure_hits == len(self.FAILURES)
        assert one.restarted_requests > 0 and two.restarted_requests > 0
        assert two.restarted_requests <= two.requeued_on_failure
        assert one.completed == two.completed
        assert one.mttr_s > 0 and two.mttr_s > 0
        assert 0 < two.availability < 1

    def test_scripted_failures_reject_bad_indices(self):
        with pytest.raises(SpecError):
            run_sharded(
                _pools(2, 4), [], shards=2, failures=[(1.0, "decode", 9, 5.0)]
            )
        with pytest.raises(SpecError):
            run_sharded(
                _pools(2, 4), [], shards=2, failures=[(1.0, "gpu", 0, 5.0)]
            )


class TestMergeShardResults:
    def test_rejects_empty(self):
        with pytest.raises(SpecError):
            merge_shard_results([])

    @pytest.mark.parametrize("shape", ["phase-split", "colocated"])
    def test_counters_and_costs_are_shard_sums(self, shape, monkeypatch):
        parts = []

        def keep_parts(shard_parts):
            parts.extend(shard_parts)
            return merge_shard_results(shard_parts)

        monkeypatch.setattr(sharding, "merge_shard_results", keep_parts)
        if shape == "phase-split":
            resilience = ResilienceConfig(
                deadline_s=10.0, queue_timeout_s=1.0, retry="exp_jitter",
                checkpoint_interval=16, slo_ttft_s=0.1,
            )
            report = run_sharded(
                _pools(2, 4),
                generate_trace(TraceConfig(rate=30, duration=20, output_tokens=300), seed=7),
                SimConfig(max_sim_time=600, resilience=resilience), shards=2,
                failures=TestResilienceParity.FAILURES,
            )
        else:
            report = run_sharded(
                _colocated(), _trace(), SimConfig(max_sim_time=600), shards=3,
                shard_policy="round-robin",
            )
        shards = [part["report"] for part in parts]
        assert len(shards) == (2 if shape == "phase-split" else 3)
        # Every integer field, so a counter the merge forgets to sum fails here.
        names = [f.name for f in dataclasses.fields(SimReport) if f.type in (int, "int")]
        for name in names + ["gpu_seconds", "energy_joules", "usd_cost"]:
            assert getattr(report, name) == sum(getattr(r, name) for r in shards), name
        if shape == "phase-split":
            assert report.restarted_requests and report.retries and report.slo_violations
