"""Resilience-layer tests: retries, deadlines, checkpoints, brown-out.

The golden guard lives in :class:`TestGoldenDefaults` — an all-default
:class:`ResilienceConfig` must leave the event stream bit-identical to
``resilience=None`` across both engines and both metric modes.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import replace

import pytest

from repro.cluster.policies import FrontOfQueueRequeue
from repro.cluster.resilience import (
    RESILIENCE_FIELDS,
    RETRY_POLICIES,
    BrownoutConfig,
    CheckpointWriteProvider,
    ExpJitterRetry,
    FixedRetry,
    NoRetry,
    ResilienceConfig,
    ResilienceRuntime,
    get_retry_policy,
    goodput_dip,
    wrap_checkpoint_writes,
)
from repro.cluster.scheduler import ColocatedPool, InstanceSpec, PhasePools
from repro.cluster.simulator import ColocatedSimulator, ServingSimulator, SimConfig
from repro.errors import RegistryError, SpecError
from repro.hardware.gpu import H100
from repro.workloads.models import LLAMA3_8B
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


def colocated(n_instances=2, **kw) -> ColocatedPool:
    base = dict(
        instance=InstanceSpec(LLAMA3_8B, H100, 1),
        n_instances=n_instances,
        max_decode_batch=64,
    )
    base.update(kw)
    return ColocatedPool(**base)


def trace(rate=5.0, duration=10.0, seed=0, output_tokens=50):
    return generate_trace(
        TraceConfig(
            rate=rate, duration=duration, output_tokens=output_tokens, output_spread=0.3
        ),
        seed=seed,
    )


def request(request_id=0, arrival=0.0, prompt=64, output=32, **kw) -> Request:
    return Request(request_id, arrival, prompt, output, **kw)


def runtime(**kw) -> ResilienceRuntime:
    rt = ResilienceRuntime(ResilienceConfig(**kw))
    rt.fired = []
    rt.bind(lambda at, req: rt.fired.append((at, req)))
    return rt


# --- retry policies ---------------------------------------------------------


class TestRetryPolicies:
    def test_none_never_retries(self):
        assert NoRetry().next_delay(0, 1) is None

    def test_fixed_delay_until_cap(self):
        policy = FixedRetry(delay=2.0, max_attempts=3)
        assert [policy.next_delay(7, n) for n in (1, 2, 3)] == [2.0, 2.0, 2.0]
        assert policy.next_delay(7, 4) is None

    def test_exp_jitter_deterministic(self):
        a = ExpJitterRetry().next_delay(42, 2)
        b = ExpJitterRetry().next_delay(42, 2)
        assert a == b

    def test_exp_jitter_within_envelope(self):
        policy = ExpJitterRetry(base=0.5, factor=2.0, cap=30.0, max_attempts=4, jitter=0.5)
        for attempt in (1, 2, 3, 4):
            raw = min(30.0, 0.5 * 2.0 ** (attempt - 1))
            delay = policy.next_delay(11, attempt)
            assert raw * (1 - 0.5) <= delay <= raw
        assert policy.next_delay(11, 5) is None

    def test_exp_jitter_desynchronizes_clients(self):
        policy = ExpJitterRetry()
        delays = {policy.next_delay(rid, 1) for rid in range(16)}
        assert len(delays) > 1

    def test_exp_jitter_caps_at_cap(self):
        policy = ExpJitterRetry(base=1.0, factor=10.0, cap=5.0, max_attempts=8, jitter=0.0)
        assert policy.next_delay(0, 8) == 5.0

    def test_registry_names(self):
        assert {"none", "fixed", "exp_jitter"} <= set(RETRY_POLICIES.names())

    def test_lookup_is_spelling_insensitive(self):
        assert isinstance(get_retry_policy("EXP-JITTER"), ExpJitterRetry)
        assert isinstance(get_retry_policy("Fixed"), FixedRetry)

    def test_lookup_passthrough_and_none(self):
        policy = FixedRetry()
        assert get_retry_policy(policy) is policy
        assert isinstance(get_retry_policy(None), NoRetry)

    def test_lookup_rejects_garbage(self):
        with pytest.raises(RegistryError):
            get_retry_policy("banana")
        with pytest.raises(SpecError):
            get_retry_policy(3.5)

    def test_validation(self):
        with pytest.raises(SpecError):
            FixedRetry(delay=0.0)
        with pytest.raises(SpecError):
            FixedRetry(max_attempts=0)
        with pytest.raises(SpecError):
            ExpJitterRetry(jitter=1.0)
        with pytest.raises(SpecError):
            ExpJitterRetry(base=1.0, cap=0.5)
        with pytest.raises(SpecError):
            ExpJitterRetry(factor=0.5)


# --- configuration ----------------------------------------------------------


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"deadline_s": 0.0},
            {"queue_timeout_s": -1.0},
            {"retry": "banana"},
            {"max_pending_retries": 0},
            {"checkpoint_interval": 0},
            {"checkpoint_bandwidth": 0.0},
            {"slo_ttft_s": 0.0},
            {"slo_tbt_s": -0.1},
            {"slo_e2e_s": 0.0},
            {"sweep_interval": 0.0},
        ],
    )
    def test_bad_resilience_config(self, kw):
        with pytest.raises((SpecError, RegistryError)):
            ResilienceConfig(**kw)

    @pytest.mark.parametrize(
        "kw",
        [
            {"queue_depth_high": 0},
            {"queue_depth_low": 100, "queue_depth_high": 10},
            {"ttft_p99_high": 1.0},  # one bound without the other
            {"ttft_p99_high": 1.0, "ttft_p99_low": 2.0},
            {"truncate_output_to": 0},
            {"window": 4},
        ],
    )
    def test_bad_brownout_config(self, kw):
        with pytest.raises(SpecError):
            BrownoutConfig(**kw)

    def test_simconfig_rejects_non_config(self):
        with pytest.raises(SpecError):
            SimConfig(resilience="yes please")


# --- deadlines and timeouts --------------------------------------------------


class TestDeadlinesAndTimeouts:
    def test_fleet_deadline_and_per_request_override(self):
        rt = runtime(deadline_s=5.0)
        assert rt.deadline_at(request(arrival=2.0)) == 7.0
        assert rt.deadline_at(request(arrival=2.0, deadline=1.0)) == 3.0
        assert runtime().deadline_at(request()) == math.inf

    def test_expire_reasons(self):
        rt = runtime(deadline_s=1.0, queue_timeout_s=0.5)
        assert rt.expire(request(arrival=0.0), now=2.0) == "deadline"
        assert rt.expire(request(arrival=0.0), now=0.8) == "timeout"
        assert rt.expire(request(arrival=0.0), now=0.3) is None

    def test_sweep_sheds_expired_head_preserving_order(self):
        rt = runtime(deadline_s=1.0)
        keep_a = request(1, arrival=2.0)
        keep_b = request(2, arrival=2.5)
        queue = deque([request(0, arrival=0.0), keep_a, keep_b])
        rt.sweep_queue(queue, now=2.0)
        assert list(queue) == [keep_a, keep_b]
        assert rt.deadline_missed == 1

    def test_full_sweep_sheds_mid_queue(self):
        rt = runtime(deadline_s=1.0, sweep_interval=0.01)
        rt._next_sweep = 0.0
        fresh = request(0, arrival=2.0)
        stale = request(1, arrival=0.0)
        queue = deque([fresh, stale])  # stale is *not* at the head
        rt.sweep_queue(queue, now=2.0)
        assert list(queue) == [fresh]
        assert rt.deadline_missed == 1

    def test_timeout_consults_retry_policy(self):
        rt = runtime(queue_timeout_s=1.0, retry=FixedRetry(delay=0.5, max_attempts=2))
        req = request(9)
        rt.shed(req, now=1.5, reason="timeout")
        assert rt.timed_out == 1 and rt.pending_retries == 1
        assert rt.fired == [(2.0, req)]
        rt.on_retry_fired()
        assert rt.retries == 1 and rt.pending_retries == 0

    def test_retry_attempts_exhaust_to_abandoned(self):
        rt = runtime(queue_timeout_s=1.0, retry=FixedRetry(delay=0.5, max_attempts=1))
        req = request(9)
        rt.shed(req, now=1.0, reason="timeout")  # attempt 1: granted
        rt.on_retry_fired()
        rt.shed(req, now=2.0, reason="timeout")  # attempt 2: exhausted
        assert rt.abandoned == 1
        assert len(rt.fired) == 1

    def test_retry_never_outlives_deadline(self):
        rt = runtime(
            deadline_s=1.0, queue_timeout_s=0.5, retry=FixedRetry(delay=10.0)
        )
        rt.shed(request(arrival=0.0), now=0.6, reason="timeout")
        assert rt.abandoned == 1 and rt.fired == []

    def test_pending_retry_buffer_is_bounded(self):
        rt = runtime(
            queue_timeout_s=1.0, retry=FixedRetry(delay=1.0), max_pending_retries=2
        )
        for rid in range(4):
            rt.shed(request(rid), now=2.0, reason="timeout")
        assert rt.pending_retries == 2 == rt.peak_pending_retries
        assert rt.abandoned == 2
        assert len(rt.fired) == 2

    def test_deadline_shed_is_terminal(self):
        rt = runtime(deadline_s=1.0, retry=FixedRetry(delay=0.01, max_attempts=99))
        rt.shed(request(arrival=0.0), now=5.0, reason="deadline")
        assert rt.deadline_missed == 1 and rt.fired == []


# --- checkpointed restarts ---------------------------------------------------


class TestCheckpointing:
    def test_no_checkpoint_restarts_from_prefill(self):
        rt = runtime()
        req = request(output=512)
        assert rt.resume_request(req, generated=300) is req

    def test_resume_skips_checkpointed_prefix(self):
        rt = runtime(checkpoint_interval=64)
        req = request(prompt=100, output=512)
        resumed = rt.resume_request(req, generated=150)
        assert resumed.prompt_tokens == 100 + 128  # last multiple of 64
        assert resumed.output_tokens == 512 - 128
        assert rt._credit[req.request_id] == 128

    def test_below_first_interval_is_a_full_restart(self):
        rt = runtime(checkpoint_interval=64)
        req = request(output=512)
        assert rt.resume_request(req, generated=63) is req

    def test_credit_paid_exactly_once_at_completion(self):
        rt = runtime(checkpoint_interval=64)
        req = request(prompt=100, output=512)
        resumed = rt.resume_request(req, generated=150)
        credit = rt.on_complete(resumed, finish=9.0, ttft=0.1, mean_tbt=0.01)
        assert credit == 128
        assert rt.goodput_tokens == resumed.output_tokens + 128 == 512
        # Resolved: a second completion of the same id earns nothing extra.
        assert rt.on_complete(resumed, finish=9.0, ttft=0.1, mean_tbt=0.01) == 0

    def test_write_provider_prices_decode_only(self):
        class Inner:
            frequency = 1.0

            def set_frequency(self, scalar):
                self.frequency = scalar

            def prefill_time(self, batch, prompt_len, instance=0):
                return 1.0

            def decode_time(self, batch, context_len, instance=0):
                return 2.0

            def mixed_time(self, decode_batch, context_len, chunk, prompt_len, instance=0):
                return 3.0

            def cache_info(self):
                return {}

        provider = CheckpointWriteProvider(Inner(), write_s_per_token=0.5)
        assert provider.prefill_time(8, 512) == 1.0
        assert provider.decode_time(8, 512) == 2.0 + 8 * 0.5
        assert provider.mixed_time(4, 512, 128, 512) == 3.0 + 4 * 0.5
        provider.set_frequency(0.5)
        assert provider.frequency == 0.5
        with pytest.raises(SpecError):
            CheckpointWriteProvider(Inner(), write_s_per_token=-1.0)

    def test_wrap_is_noop_unless_enabled(self):
        spec = InstanceSpec(LLAMA3_8B, H100, 1)
        inner = object.__new__(CheckpointWriteProvider)  # any provider-ish object
        assert wrap_checkpoint_writes(inner, spec, None) is inner
        assert (
            wrap_checkpoint_writes(inner, spec, ResilienceConfig()) is inner
        )  # no interval -> no wrapper
        wrapped = wrap_checkpoint_writes(
            inner, spec, ResilienceConfig(checkpoint_interval=64, checkpoint_bandwidth=1e9)
        )
        assert isinstance(wrapped, CheckpointWriteProvider)
        expected = LLAMA3_8B.kv_bytes_per_token(spec.policy.kv_bytes) / 1e9
        assert wrapped.write_s_per_token == pytest.approx(expected)


# --- brown-out ---------------------------------------------------------------


class TestBrownout:
    def guard(self, **kw) -> ResilienceRuntime:
        base = dict(
            queue_depth_high=4,
            queue_depth_low=1,
            shed_priority_floor=1,
            truncate_output_to=16,
            window=8,
        )
        base.update(kw)
        return runtime(brownout=BrownoutConfig(**base))

    def test_healthy_admission_is_transparent(self):
        rt = self.guard()
        req = request(output=100)
        assert rt.admit(req, now=0.0, queue_depth=0) is req

    def test_trips_on_queue_depth_and_sheds_low_priority(self):
        rt = self.guard()
        shed_me = request(1, output=100, priority=1)
        assert rt.admit(shed_me, now=0.0, queue_depth=4) is None
        assert rt.load_shed == 1 and rt.brownouts == 1

    def test_tripped_mode_truncates_survivors(self):
        rt = self.guard()
        rt.admit(request(1, priority=1), now=0.0, queue_depth=4)  # trip
        kept = rt.admit(request(2, output=100, priority=0), now=0.1, queue_depth=4)
        assert kept.output_tokens == 16
        assert rt.truncated == 1

    def test_hysteresis_holds_then_clears(self):
        rt = self.guard()
        rt.admit(request(1, priority=1), now=0.0, queue_depth=4)  # trip
        assert rt.brownout_active
        rt.admit(request(2, priority=0), now=0.1, queue_depth=2)  # low < 2 < high
        assert rt.brownout_active
        req = request(3, output=100, priority=1)
        assert rt.admit(req, now=0.2, queue_depth=1) is req  # cleared at low
        assert not rt.brownout_active

    def test_ttft_window_trips_too(self):
        rt = self.guard(ttft_p99_high=1.0, ttft_p99_low=0.1)
        for _ in range(8):
            rt.note_ttft(5.0)
        assert rt.admit(request(1, priority=1), now=0.0, queue_depth=0) is None


# --- SLOs and goodput --------------------------------------------------------


class TestGoodput:
    def test_slo_classification(self):
        rt = runtime(slo_ttft_s=1.0, slo_tbt_s=0.05, slo_e2e_s=10.0)
        good = request(1, output=32)
        rt.on_complete(good, finish=5.0, ttft=0.5, mean_tbt=0.01)
        assert rt.slo_violations == 0 and rt.goodput_tokens == 32
        rt.on_complete(request(2, output=32), finish=5.0, ttft=2.0, mean_tbt=0.01)
        rt.on_complete(request(3, output=32), finish=5.0, ttft=0.5, mean_tbt=0.1)
        rt.on_complete(request(4, output=32), finish=11.0, ttft=0.5, mean_tbt=0.01)
        assert rt.slo_violations == 3 and rt.goodput_tokens == 32

    def test_deadline_late_completion_earns_no_goodput(self):
        rt = runtime(deadline_s=1.0)
        rt.on_complete(request(1, output=32), finish=5.0, ttft=0.1, mean_tbt=0.01)
        assert rt.goodput_tokens == 0 and rt.slo_violations == 0

    def test_goodput_dip(self):
        base = replace(
            ServingSimulator(pools(), SimConfig()).run([]),
            goodput_tokens_per_s=100.0,
        )
        faulted = replace(base, goodput_tokens_per_s=90.0)
        assert goodput_dip(base, faulted) == pytest.approx(0.1)
        assert goodput_dip(faulted, base) == 0.0  # improvements clamp to 0
        assert goodput_dip(replace(base, goodput_tokens_per_s=0.0), faulted) == 0.0


# --- requeue x deadline (satellite) -----------------------------------------


class TestRequeueDeadlineInteraction:
    def test_requeue_all_preserves_batch_order(self):
        a, b = request(10), request(11)
        v1, v2, v3 = request(1), request(2), request(3)
        queue = deque([a, b])
        FrontOfQueueRequeue().requeue_all([v1, v2, v3], queue)
        assert list(queue) == [v1, v2, v3, a, b]

    def test_requeue_single_jumps_queue(self):
        a, v = request(10), request(1)
        queue = deque([a])
        FrontOfQueueRequeue().requeue(v, queue)
        assert list(queue) == [v, a]

    def test_expired_victims_are_shed_not_requeued(self):
        """A failure victim with a spent deadline never re-enters the queue."""
        # One long request: decoding at t=5 when its instance dies, and
        # (in the tight run) minutes past its 1-second deadline by then.
        t = [request(0, arrival=0.0, prompt=64, output=5000)]
        failures = [(5.0, "decode", 0, 30.0)]
        no_deadline = ServingSimulator(
            pools(), SimConfig(resilience=ResilienceConfig()), failures=failures
        ).run(t)
        assert no_deadline.restarted_requests == 1  # victims normally requeue
        tight = ServingSimulator(
            pools(),
            SimConfig(resilience=ResilienceConfig(deadline_s=1.0)),
            failures=failures,
        ).run(t)
        assert tight.restarted_requests == 0
        assert tight.deadline_missed == 1


# --- golden guard (satellite) ------------------------------------------------


class TestGoldenDefaults:
    """All-default resilience knobs leave the simulation bit-identical."""

    DEFAULTS = dict(RESILIENCE_FIELDS)

    @pytest.mark.parametrize("metrics", ["exact", "streaming"])
    def test_phase_split(self, metrics):
        t = trace(rate=4.0, duration=8.0)
        golden = ServingSimulator(pools(), SimConfig(metrics=metrics)).run(t)
        report = ServingSimulator(
            pools(), SimConfig(metrics=metrics, resilience=ResilienceConfig())
        ).run(t)
        # With no deadline/SLO every completion is goodput: the only fields
        # allowed to differ are the goodput tallies themselves.
        assert replace(report, **self.DEFAULTS) == golden
        assert report.goodput_tokens_per_s == golden.output_tokens_per_s
        assert report.retries == report.timed_out == report.load_shed == 0
        assert report.deadline_missed == report.abandoned == 0
        assert report.availability == 1.0

    @pytest.mark.parametrize("metrics", ["exact", "streaming"])
    def test_colocated(self, metrics):
        t = trace(rate=4.0, duration=8.0)
        golden = ColocatedSimulator(colocated(), SimConfig(metrics=metrics)).run(t)
        report = ColocatedSimulator(
            colocated(), SimConfig(metrics=metrics, resilience=ResilienceConfig())
        ).run(t)
        assert replace(report, **self.DEFAULTS) == golden
        assert report.goodput_tokens_per_s == golden.output_tokens_per_s

    def test_default_simconfig_reports_inert_fields(self):
        report = ServingSimulator(pools(), SimConfig()).run(trace(rate=2.0, duration=4.0))
        for name, default in RESILIENCE_FIELDS:
            assert getattr(report, name) == default


# --- end-to-end smoke --------------------------------------------------------


class TestEndToEnd:
    def test_retries_recover_timed_out_work(self):
        t = trace(rate=6.0, duration=10.0, output_tokens=120)
        failures = [(3.0, "decode", 0, 10.0)]
        config = ResilienceConfig(queue_timeout_s=2.0, retry=FixedRetry(delay=1.0))
        report = ServingSimulator(
            pools(), SimConfig(resilience=config), failures=failures
        ).run(t)
        assert report.timed_out > 0
        assert report.retries > 0
        assert report.failure_hits >= 1
        assert report.availability < 1.0
        assert report.mttr_s > 0.0

    def test_colocated_failure_path(self):
        t = trace(rate=6.0, duration=10.0, output_tokens=120)
        config = ResilienceConfig(deadline_s=60.0, checkpoint_interval=16)
        report = ColocatedSimulator(
            colocated(), SimConfig(resilience=config), failures=[(3.0, "colocated", 0, 10.0)]
        ).run(t)
        assert report.failure_hits >= 1
        assert report.completed > 0
        assert report.goodput_tokens > 0

    def test_checkpointed_restarts_match_pins(self, assert_pinned):
        """Victims resume past their last checkpoint: the restored token split
        reads each sequence's generated count at failure time."""
        t = trace(rate=6.0, duration=10.0, output_tokens=120)
        config = SimConfig(
            resilience=ResilienceConfig(deadline_s=60.0, checkpoint_interval=16)
        )
        phase_split = ServingSimulator(
            pools(n_decode=2), config, failures=[(3.0, "decode", 0, 10.0)]
        ).run(t)
        colocated_run = ColocatedSimulator(
            colocated(), config, failures=[(3.0, "colocated", 0, 10.0)]
        ).run(t)
        for report in (phase_split, colocated_run):
            assert report.restarted_requests > 0
        assert_pinned("checkpoint_phase_split", phase_split)
        assert_pinned("checkpoint_colocated", colocated_run)

    def test_describe_mentions_resilience(self):
        t = trace(rate=6.0, duration=8.0, output_tokens=120)
        config = ResilienceConfig(queue_timeout_s=1.0, retry="fixed")
        report = ServingSimulator(
            pools(), SimConfig(resilience=config), failures=[(2.0, "decode", 0, 20.0)]
        ).run(t)
        assert "goodput" in report.describe()
