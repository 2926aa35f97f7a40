"""Discrete-event serving-simulator tests."""

from __future__ import annotations

import math

import pytest

from repro.cluster.scheduler import InstanceSpec, PhasePools
from repro.cluster.simulator import ServingSimulator, SimConfig
from repro.errors import SpecError
from repro.exec import RunSpec
from repro.hardware.gpu import H100, LITE, LITE_MEMBW, LITE_NETBW_FLOPS
from repro.workloads.models import LLAMA3_8B, LLAMA3_70B
from repro.workloads.traces import Request, TraceConfig, generate_trace


def pools(n_prefill=1, n_decode=1, **kw) -> PhasePools:
    base = dict(
        prefill=InstanceSpec(LLAMA3_8B, H100, 1),
        n_prefill=n_prefill,
        decode=InstanceSpec(LLAMA3_8B, H100, 1),
        n_decode=n_decode,
        max_prefill_batch=4,
        max_decode_batch=64,
    )
    base.update(kw)
    return PhasePools(**base)


def trace(rate=5.0, duration=10.0, seed=0, output_tokens=50):
    return generate_trace(
        TraceConfig(rate=rate, duration=duration, output_tokens=output_tokens, output_spread=0.3),
        seed=seed,
    )


class TestBasics:
    def test_all_requests_complete_under_light_load(self):
        t = trace(rate=2.0, duration=10.0)
        report = ServingSimulator(pools(), SimConfig(max_sim_time=600.0)).run(t)
        assert report.completed == len(t)
        assert report.dropped == 0

    def test_deterministic(self):
        t = trace(seed=3)
        a = ServingSimulator(pools(), SimConfig(max_sim_time=300.0)).run(t)
        b = ServingSimulator(pools(), SimConfig(max_sim_time=300.0)).run(t)
        assert a == b

    def test_latency_ordering(self):
        t = trace(rate=2.0)
        report = ServingSimulator(pools(), SimConfig(max_sim_time=600.0)).run(t)
        assert 0 < report.ttft_p50 <= report.ttft_p99
        assert 0 < report.e2e_p50 <= report.e2e_p99
        assert report.ttft_p50 < report.e2e_p50

    def test_throughput_positive(self):
        report = ServingSimulator(pools(), SimConfig(max_sim_time=600.0)).run(trace())
        assert report.output_tokens_per_s > 0
        assert 0 <= report.decode_utilization <= 1

    def test_describe(self):
        report = ServingSimulator(pools(), SimConfig(max_sim_time=100.0)).run(trace(rate=1.0, duration=3.0))
        assert "completed" in report.describe()

    @pytest.mark.parametrize(
        "config, shards",
        [
            (SimConfig(max_sim_time=10.0), 1),
            (SimConfig(max_sim_time=10.0, metrics="streaming"), 1),
            (SimConfig(max_sim_time=10.0, backend="fluid"), 1),
            (SimConfig(max_sim_time=10.0), 2),
        ],
        ids=["event-exact", "event-streaming", "fluid", "shards-2"],
    )
    def test_empty_trace(self, config, shards):
        report = RunSpec(pools(n_prefill=2, n_decode=2), config, shards=shards).run([])
        assert report.completed == 0
        assert report.dropped == 0
        latencies = (
            report.ttft_p50, report.ttft_p99, report.tbt_mean,
            report.tbt_p99, report.e2e_p50, report.e2e_p99,
        )
        assert all(math.isnan(value) for value in latencies)
        assert report.usd_per_mtoken == 0.0


class TestCapacityEffects:
    def test_overload_queues_grow_ttft(self):
        light = ServingSimulator(pools(), SimConfig(max_sim_time=900.0)).run(
            trace(rate=1.0, duration=20.0)
        )
        heavy = ServingSimulator(pools(), SimConfig(max_sim_time=900.0)).run(
            trace(rate=30.0, duration=20.0)
        )
        assert heavy.ttft_p99 > light.ttft_p99

    def test_more_decode_instances_raise_throughput_under_load(self):
        """With abundant prefill capacity and a decode-saturating load, the
        decode pool size sets output throughput."""
        t = trace(rate=60.0, duration=15.0, output_tokens=400)
        one = ServingSimulator(pools(n_prefill=4, n_decode=1), SimConfig(max_sim_time=60.0)).run(t)
        four = ServingSimulator(pools(n_prefill=4, n_decode=4), SimConfig(max_sim_time=60.0)).run(t)
        assert four.output_tokens_per_s > one.output_tokens_per_s

    def test_horizon_cuts_completions(self):
        t = trace(rate=5.0, duration=30.0)
        short = ServingSimulator(pools(), SimConfig(max_sim_time=5.0)).run(t)
        assert short.dropped > 0


class TestPhaseSplitting:
    def test_specialized_pools_run(self):
        """Splitwise deployment: +FLOPS prefill pool, +MemBW decode pool."""
        split = PhasePools(
            prefill=InstanceSpec(LLAMA3_8B, LITE_NETBW_FLOPS, 1),
            n_prefill=2,
            decode=InstanceSpec(LLAMA3_8B, LITE_MEMBW, 1),
            n_decode=2,
            max_prefill_batch=4,
            max_decode_batch=64,
        )
        report = ServingSimulator(split, SimConfig(max_sim_time=600.0)).run(trace(rate=3.0))
        assert report.completed > 0
        assert report.tbt_mean < 0.05


class TestFailures:
    def test_decode_failure_requeues_requests(self):
        t = trace(rate=5.0, duration=10.0, output_tokens=200)
        sim = ServingSimulator(
            pools(n_decode=2),
            SimConfig(max_sim_time=900.0),
            failures=[(3.0, "decode", 0, 30.0)],
        )
        report = sim.run(t)
        assert report.requeued_on_failure > 0
        # Work still completes after recovery.
        assert report.completed == len(t)

    def test_failure_hurts_tail_latency(self):
        t = trace(rate=5.0, duration=10.0, output_tokens=100, seed=9)
        clean = ServingSimulator(pools(), SimConfig(max_sim_time=900.0)).run(t)
        faulty = ServingSimulator(
            pools(), SimConfig(max_sim_time=900.0), failures=[(2.0, "decode", 0, 60.0)]
        ).run(t)
        assert faulty.e2e_p99 > clean.e2e_p99

    def test_prefill_failure_delays_ttft(self):
        t = trace(rate=5.0, duration=10.0, seed=4)
        clean = ServingSimulator(pools(), SimConfig(max_sim_time=900.0)).run(t)
        faulty = ServingSimulator(
            pools(), SimConfig(max_sim_time=900.0), failures=[(1.0, "prefill", 0, 120.0)]
        ).run(t)
        assert faulty.ttft_p99 > clean.ttft_p99

    def test_failure_validation(self):
        with pytest.raises(SpecError):
            ServingSimulator(pools(), failures=[(1.0, "decode", 9, 10.0)])
        with pytest.raises(SpecError):
            ServingSimulator(pools(), failures=[(1.0, "gpu", 0, 10.0)])
        with pytest.raises(SpecError):
            ServingSimulator(pools(), failures=[(1.0, "decode", 0, -5.0)])


class TestStochasticFailures:
    def fm(self, mtbf=40.0, mttr=15.0):
        from repro.cluster.failures import FailureModel

        return FailureModel(mtbf=mtbf, mttr=mttr)

    def test_deterministic_given_seeds(self):
        """Same trace + trace seed + failure seed => identical SimReport."""
        t = trace(rate=5.0, duration=10.0, seed=3, output_tokens=150)
        kw = dict(failure_model=self.fm(), failure_seed=11)
        a = ServingSimulator(pools(n_decode=2), SimConfig(max_sim_time=600.0), **kw).run(t)
        b = ServingSimulator(pools(n_decode=2), SimConfig(max_sim_time=600.0), **kw).run(t)
        assert a == b

    def test_different_seed_different_schedule(self):
        t = trace(rate=5.0, duration=10.0, seed=3, output_tokens=150)
        a = ServingSimulator(
            pools(n_decode=2), SimConfig(max_sim_time=600.0),
            failure_model=self.fm(), failure_seed=1,
        ).run(t)
        b = ServingSimulator(
            pools(n_decode=2), SimConfig(max_sim_time=600.0),
            failure_model=self.fm(), failure_seed=2,
        ).run(t)
        assert a != b

    def test_stochastic_failures_cause_requeues(self):
        t = trace(rate=5.0, duration=10.0, seed=3, output_tokens=300)
        report = ServingSimulator(
            pools(n_decode=2), SimConfig(max_sim_time=900.0),
            failure_model=self.fm(mtbf=20.0, mttr=5.0), failure_seed=1,
        ).run(t)
        assert report.requeued_on_failure > 0
        assert report.restarted_requests > 0

    def test_idle_failures_do_not_dilute_duration(self):
        """Repair bookkeeping after the workload drains must not extend the
        reported duration (it would deflate tok/s and utilization)."""
        t = trace(rate=2.0, duration=5.0, seed=1, output_tokens=100)
        clean = ServingSimulator(pools(), SimConfig(max_sim_time=600.0)).run(t)
        faulty = ServingSimulator(
            pools(), SimConfig(max_sim_time=600.0),
            failure_model=self.fm(mtbf=200.0, mttr=60.0), failure_seed=3,
        ).run(t)
        assert faulty.completed == clean.completed == len(t)
        if faulty.requeued_on_failure == 0:
            # No failure touched live work: the reports must agree exactly.
            assert faulty.duration == clean.duration
            assert faulty.output_tokens_per_s == clean.output_tokens_per_s

    def test_composes_with_scripted_failures(self):
        t = trace(rate=2.0, duration=5.0, seed=1)
        report = ServingSimulator(
            pools(n_decode=2), SimConfig(max_sim_time=600.0),
            failures=[(1.0, "decode", 0, 10.0)],
            failure_model=self.fm(mtbf=1e9),  # stochastic part ~never fires
        ).run(t)
        assert report.completed == len(t)

    def test_failure_after_arrival_stream_ends_does_not_strand_victims(self):
        """A decode failure once arrivals have stopped must still re-serve
        the victims: the requeue itself wakes the idle prefill pool."""
        t = trace(rate=5.0, duration=3.0, seed=2, output_tokens=400)
        last_arrival = max(r.arrival for r in t)
        report = ServingSimulator(
            pools(), SimConfig(max_sim_time=900.0),
            failures=[(last_arrival + 0.5, "decode", 0, 20.0)],
        ).run(t)
        assert report.requeued_on_failure > 0
        assert report.completed == len(t)
        assert report.dropped == 0

    def test_overlapping_failure_does_not_shorten_outage(self):
        """A short failure landing mid-outage must not resurrect the
        instance before the longer repair completes."""
        t = trace(rate=5.0, duration=10.0, seed=4)
        long_only = ServingSimulator(
            pools(), SimConfig(max_sim_time=900.0),
            failures=[(1.0, "prefill", 0, 120.0)],
        ).run(t)
        overlapped = ServingSimulator(
            pools(), SimConfig(max_sim_time=900.0),
            failures=[(1.0, "prefill", 0, 120.0), (2.0, "prefill", 0, 1.0)],
        ).run(t)
        # The nested 1 s failure is subsumed by the 120 s outage: TTFT tails
        # must be as bad as the long outage alone, not reset at t=3.
        assert overlapped.ttft_p99 >= long_only.ttft_p99


class TestConservation:
    def test_failure_requeue_conserves_requests(self):
        """No request is lost or double-completed across failure requeues."""
        from repro.cluster.engine import PhaseSplitEngine, ServiceTimeProvider
        from repro.cluster.policies import get_policy_bundle

        t = trace(rate=5.0, duration=10.0, seed=7, output_tokens=200)
        p = pools(n_decode=2)
        config = SimConfig(max_sim_time=900.0)
        engine = PhaseSplitEngine(
            p, config, get_policy_bundle("fcfs"),
            ServiceTimeProvider(p.prefill), ServiceTimeProvider(p.decode),
            failures=[(2.0, "decode", 0, 20.0), (4.0, "decode", 1, 20.0)],
        )
        engine.run(t)
        assert engine.requeued > 0
        completed_ids = [c.request.request_id for c in engine.completed]
        assert len(completed_ids) == len(set(completed_ids)), "double completion"
        assert sorted(completed_ids) == sorted(r.request_id for r in t), "lost requests"

    def test_ttft_keeps_first_token_time(self):
        """A requeued request's TTFT is its first-ever token, not the restart's."""
        from repro.cluster.engine import PhaseSplitEngine, ServiceTimeProvider
        from repro.cluster.policies import get_policy_bundle

        t = trace(rate=5.0, duration=10.0, seed=7, output_tokens=200)
        p = pools(n_decode=2)
        fail_time = 3.0
        engine = PhaseSplitEngine(
            p, SimConfig(max_sim_time=900.0), get_policy_bundle("fcfs"),
            ServiceTimeProvider(p.prefill), ServiceTimeProvider(p.decode),
            failures=[(fail_time, "decode", 0, 30.0)],
        )
        engine.run(t)
        restarted = [c for c in engine.completed if c.restarts > 0]
        assert restarted, "scenario must requeue at least one request"
        for c in restarted:
            # The victim was decoding when the failure hit, so its first
            # token predates the failure; the restart must not overwrite it.
            assert c.request.arrival + c.ttft <= fail_time
            assert c.ttft < c.e2e

    def test_completed_plus_dropped_is_trace(self):
        t = trace(rate=10.0, duration=10.0, seed=2, output_tokens=300)
        report = ServingSimulator(pools(), SimConfig(max_sim_time=20.0)).run(t)
        assert report.completed + report.dropped == len(t)


class TestEmptyReport:
    def test_zero_completions_report_nan_not_zero(self):
        """Percentiles of an empty run must read NaN, not perfect 0.0 ms."""
        import math

        t = [Request(request_id=0, arrival=5.0, prompt_tokens=100, output_tokens=10)]
        report = ServingSimulator(pools(), SimConfig(max_sim_time=1.0)).run(t)
        assert report.completed == 0 and report.dropped == 1
        for value in (report.ttft_p50, report.ttft_p99, report.tbt_mean,
                      report.tbt_p99, report.e2e_p50, report.e2e_p99):
            assert math.isnan(value)
        assert report.output_tokens_per_s == 0.0
        assert "completed 0" in report.describe()


class TestPolicyBundles:
    def test_all_bundles_run_and_complete(self):
        from repro.cluster.policies import POLICY_BUNDLES

        t = trace(rate=3.0, duration=8.0, seed=5)
        for name in POLICY_BUNDLES.names():
            report = ServingSimulator(
                pools(n_prefill=2, n_decode=2), SimConfig(max_sim_time=600.0), policies=name
            ).run(t)
            assert report.completed == len(t), name

    def test_fcfs_matches_default(self):
        t = trace(rate=4.0, duration=10.0, seed=6)
        default = ServingSimulator(pools(), SimConfig(max_sim_time=600.0)).run(t)
        fcfs = ServingSimulator(pools(), SimConfig(max_sim_time=600.0), policies="fcfs").run(t)
        assert default == fcfs

    def test_sjf_prefill_reorders_under_contention(self):
        """SJF must favour short prompts when prompt lengths vary."""
        from repro.workloads.traces import LengthDistribution

        t = generate_trace(
            TraceConfig(
                rate=40.0, duration=5.0, output_tokens=50, output_spread=0.3,
                prompt_dist=LengthDistribution.LOGNORMAL, prompt_spread=0.8,
            ),
            seed=9,
        )
        fcfs = ServingSimulator(pools(), SimConfig(max_sim_time=600.0), policies="fcfs").run(t)
        sjf = ServingSimulator(pools(), SimConfig(max_sim_time=600.0), policies="sjf").run(t)
        assert fcfs.completed == sjf.completed == len(t)
        # Short prompts stop convoying behind long ones: median TTFT drops.
        assert sjf.ttft_p50 < fcfs.ttft_p50


class TestCachedServiceTimes:
    def test_exact_cache_is_bit_identical(self):
        """Every memo entry a run leaves equals a direct roofline evaluation,
        also in the one table two simulators of a spec fill inside a scope."""
        from repro.cluster.engine import shared_service_memos
        from repro.cluster.scheduler import ColocatedPool
        from repro.cluster.simulator import ColocatedSimulator
        from repro.core.chunked import MixedIteration, mixed_iteration_time

        t = trace(rate=4.0, duration=10.0, seed=8)

        def run_both():
            phase_split = ServingSimulator(pools(), SimConfig(max_sim_time=600.0))
            colocated = ColocatedSimulator(
                ColocatedPool(instance=InstanceSpec(LLAMA3_8B, H100, 1), n_instances=1),
                SimConfig(max_sim_time=600.0),
            )
            phase_split.run(t)
            colocated.run(t)
            return phase_split.prefill_provider, phase_split.decode_provider, colocated.provider

        providers = run_both()
        with shared_service_memos():
            shared = run_both()
        # Every pool runs the same spec, so the scope left one table.
        table = shared[0]._cache
        assert all(provider._cache is table for provider in shared)
        assert table == {k: v for provider in providers for k, v in provider._cache.items()}
        kinds = set()
        for provider in providers + shared[:1]:
            spec = provider.instance
            for key, value in provider._cache.items():
                kind, *args = key
                kinds.add(kind)
                if kind == "p":
                    assert value == spec.prefill_time(*args)
                elif kind == "d":
                    assert value == spec.decode_time(*args)
                else:
                    iteration = MixedIteration(*args)
                    assert value == mixed_iteration_time(
                        spec.model, spec.gpu, spec.n_gpus, iteration, spec.policy
                    ).iteration_time
        assert kinds == {"p", "d", "m"}

    def test_coarse_bucket_stays_close(self):
        t = trace(rate=4.0, duration=10.0, seed=8)
        exact = ServingSimulator(pools(), SimConfig(max_sim_time=600.0)).run(t)
        coarse = ServingSimulator(
            pools(), SimConfig(max_sim_time=600.0, context_bucket=64)
        ).run(t)
        assert coarse.completed == exact.completed
        assert coarse.tbt_mean == pytest.approx(exact.tbt_mean, rel=0.05)


class TestColocated:
    def pool(self, n_instances=2, **kw):
        from repro.cluster.scheduler import ColocatedPool

        base = dict(
            instance=InstanceSpec(LLAMA3_8B, H100, 1),
            n_instances=n_instances,
            max_decode_batch=64,
            chunk_tokens=512,
        )
        base.update(kw)
        return ColocatedPool(**base)

    def sim(self, n_instances=2, config=None, **kw):
        from repro.cluster.simulator import ColocatedSimulator

        return ColocatedSimulator(
            self.pool(n_instances=n_instances), config or SimConfig(max_sim_time=600.0), **kw
        )

    def test_completes_light_load(self):
        t = trace(rate=2.0, duration=10.0)
        report = self.sim().run(t)
        assert report.completed == len(t)
        assert 0 < report.ttft_p50 <= report.ttft_p99
        assert report.ttft_p50 < report.e2e_p50

    def test_deterministic(self):
        t = trace(seed=3)
        assert self.sim().run(t) == self.sim().run(t)

    def test_failure_requeues_and_recovers(self):
        t = trace(rate=5.0, duration=10.0, output_tokens=200)
        report = self.sim(
            failures=[(3.0, "colocated", 0, 30.0)], config=SimConfig(max_sim_time=900.0)
        ).run(t)
        assert report.requeued_on_failure > 0
        assert report.completed == len(t)

    def test_failure_hands_victims_to_idle_peer_immediately(self):
        """When one colocated instance fails, a healthy idle peer picks the
        victims up at failure time, not at the failed instance's repair."""
        t = trace(rate=5.0, duration=3.0, seed=2, output_tokens=400)
        report = self.sim(
            n_instances=2, config=SimConfig(max_sim_time=900.0),
            failures=[(8.0, "colocated", 0, 200.0)],
        ).run(t)
        assert report.completed == len(t)
        # Victims restart on the healthy peer well before the 200 s repair.
        assert report.e2e_p99 < 100.0

    def test_failure_validation(self):
        from repro.cluster.simulator import ColocatedSimulator

        with pytest.raises(SpecError):
            ColocatedSimulator(self.pool(), failures=[(1.0, "decode", 0, 10.0)])
        with pytest.raises(SpecError):
            ColocatedSimulator(self.pool(), failures=[(1.0, "colocated", 5, 10.0)])

    def test_pool_validation(self):
        with pytest.raises(SpecError):
            self.pool(n_instances=0)
        with pytest.raises(SpecError):
            self.pool(chunk_tokens=0)

    def test_describe_and_rollups(self):
        p = self.pool(n_instances=3)
        assert p.total_gpus == 3
        assert p.total_sms == 3 * H100.sms
        assert "colocated" in p.describe()

    def test_stochastic_failures_deterministic(self):
        from repro.cluster.failures import FailureModel

        t = trace(rate=5.0, duration=10.0, output_tokens=150)
        kw = dict(failure_model=FailureModel(mtbf=30.0, mttr=10.0), failure_seed=4)
        a = self.sim(config=SimConfig(max_sim_time=900.0), **kw).run(t)
        b = self.sim(config=SimConfig(max_sim_time=900.0), **kw).run(t)
        assert a == b

    def test_chunking_bounds_tbt_vs_full_prefill_batches(self):
        """Smaller chunks keep mixed-iteration TBT lower (SARATHI's point)."""
        t = trace(rate=4.0, duration=10.0, output_tokens=100)
        small = self.sim().run(t)
        from repro.cluster.simulator import ColocatedSimulator

        big = ColocatedSimulator(
            self.pool(chunk_tokens=4096), SimConfig(max_sim_time=600.0)
        ).run(t)
        assert small.tbt_mean <= big.tbt_mean


class TestFastEngine:
    """The engine's shared iteration logs and incremental counters.

    Each instance keeps one latency log and derives every resident
    sequence's token count from the iteration count, instead of per-sequence
    token counts and latency lists; the reports of runs through the failure
    paths are pinned to what the per-sequence bookkeeping produced.
    """

    def test_phase_split_bit_identical(self, assert_pinned):
        t = trace(rate=4.0, duration=20.0)
        report = ServingSimulator(
            pools(n_decode=2), SimConfig(max_sim_time=600.0),
            failures=[(10.0, "decode", 0, 30.0)],
        ).run(t)
        assert report.restarted_requests > 0  # the failure path was exercised
        assert_pinned("phase_split_failure", report)

    def test_colocated_bit_identical(self, assert_pinned):
        from repro.cluster.scheduler import ColocatedPool
        from repro.cluster.simulator import ColocatedSimulator

        pool = ColocatedPool(
            instance=InstanceSpec(LLAMA3_8B, H100, 1), n_instances=2, max_decode_batch=64
        )
        t = trace(rate=4.0, duration=20.0)
        report = ColocatedSimulator(
            pool, SimConfig(max_sim_time=600.0), failures=[(2.0, "colocated", 0, 15.0)]
        ).run(t)
        assert_pinned("colocated_failure", report)

    def test_counters_match_scans_through_a_run(self, recount_every_event):
        """The incremental counters equal a full recount at every event and tick."""
        from repro.cluster.engine import ColocatedEngine, PhaseSplitEngine, ServiceTimeProvider
        from repro.cluster.policies import get_policy_bundle
        from repro.cluster.scheduler import ColocatedPool

        p = pools(n_decode=2)
        config = SimConfig(max_sim_time=600.0)
        phase_split = PhaseSplitEngine(
            p, config, get_policy_bundle("fcfs"),
            ServiceTimeProvider(p.prefill), ServiceTimeProvider(p.decode),
            failures=[(2.0, "decode", 0, 10.0)],
        )
        pool = ColocatedPool(
            instance=InstanceSpec(LLAMA3_8B, H100, 1), n_instances=2, max_decode_batch=64
        )
        colocated = ColocatedEngine(
            pool, config, get_policy_bundle("fcfs"), ServiceTimeProvider(pool.instance),
            failures=[(2.0, "colocated", 0, 10.0)],
        )
        for engine in (phase_split, colocated):
            checked = recount_every_event(engine)
            engine.run(trace(rate=4.0, duration=10.0, seed=7, output_tokens=200))
            assert engine.requeued > 0  # the eviction path was exercised
            assert checked["events"] > 0
            decoding = engine.states[engine.pool_names[-1]]
            assert checked["ticks"] == sum(s.iter_count for s in decoding) > 0
