"""Engine-core tests: event queue ordering, memoized service times, and
ticks run inline against the same ticks replayed through the heap."""

from __future__ import annotations

import dataclasses
import math
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.control import ReactiveController
from repro.cluster.engine import (
    _SHARED_MEMOS,
    ActiveSequence,
    DecodeState,
    EventQueue,
    ServiceTimeProvider,
    _EngineBase,
    _tail_mean,
    shared_service_memos,
)
from repro.cluster.failures import FailureModel
from repro.cluster.resilience import ResilienceConfig
from repro.cluster.scheduler import ColocatedPool, InstanceSpec, PhasePools
from repro.cluster.simulator import ColocatedSimulator, ServingSimulator, SimConfig
from repro.errors import SpecError
from repro.hardware.gpu import H100
from repro.workloads.models import LLAMA3_8B
from repro.workloads.traces import Request, TraceConfig, generate_trace


def instance() -> InstanceSpec:
    return InstanceSpec(LLAMA3_8B, H100, 1)


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        q.push(3.0, "c")
        q.push(1.0, "a")
        q.push(2.0, "b")
        assert [q.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_fifo_tie_breaking(self):
        q = EventQueue()
        for kind in ("first", "second", "third"):
            q.push(1.0, kind)
        assert [q.pop()[1] for _ in range(3)] == ["first", "second", "third"]

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q and len(q) == 0
        q.push(0.0, "x", (1, 2))
        assert q and len(q) == 1
        assert q.pop() == (0.0, "x", (1, 2))

    def test_due_by(self):
        q = EventQueue()
        assert not q.due_by(math.inf)
        q.push(2.0, "b")
        q.push(1.0, "a")
        assert not q.due_by(0.5)
        assert q.due_by(1.0) and q.due_by(1.5)


class TestServiceTimeProvider:
    def test_exact_bucket_matches_direct_evaluation(self):
        spec = instance()
        provider = ServiceTimeProvider(spec, context_bucket=1)
        assert provider.decode_time(8, 777) == spec.decode_time(8, 777)
        assert provider.prefill_time(2, 1500) == spec.prefill_time(2, 1500)

    def test_cache_hits_on_repeat(self):
        provider = ServiceTimeProvider(instance(), context_bucket=1)
        first = provider.decode_time(4, 100)
        second = provider.decode_time(4, 100)
        assert first == second
        info = provider.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1 and info["entries"] == 1

    def test_bucket_rounds_context_up(self):
        spec = instance()
        provider = ServiceTimeProvider(spec, context_bucket=64)
        # 100 and 128 land in the same bucket (128); 129 does not.
        assert provider.decode_time(4, 100) == spec.decode_time(4, 128)
        assert provider.decode_time(4, 128) == provider.decode_time(4, 100)
        assert provider.decode_time(4, 129) == spec.decode_time(4, 192)
        assert provider.cache_info()["entries"] == 2

    def test_bucketed_latency_is_conservative(self):
        spec = instance()
        provider = ServiceTimeProvider(spec, context_bucket=256)
        assert provider.decode_time(4, 100) >= spec.decode_time(4, 100)

    def test_mixed_time_cached(self):
        provider = ServiceTimeProvider(instance(), context_bucket=1)
        a = provider.mixed_time(8, 500, 256, 1500)
        b = provider.mixed_time(8, 500, 256, 1500)
        assert a == b > 0
        assert provider.cache_info()["hits"] == 1

    def test_invalid_bucket(self):
        with pytest.raises(SpecError):
            ServiceTimeProvider(instance(), context_bucket=0)

    @staticmethod
    def _evaluate(provider):
        return (
            provider.decode_time(4, 100), provider.decode_time(8, 777),
            provider.prefill_time(2, 1500), provider.mixed_time(8, 500, 256, 1500),
        )

    def test_scope_shares_the_memo_of_equal_specs(self):
        with shared_service_memos():
            first = ServiceTimeProvider(instance())
            values = self._evaluate(first)
            # Equal but distinct spec: it hits every key the first one evaluated.
            second = ServiceTimeProvider(instance())
            assert second.instance is not first.instance
            assert self._evaluate(second) == values
            assert (second.hits, second.misses) == (4, 0)
            assert (first.hits, first.misses) == (0, 4)
            assert first.cache_info()["entries"] == second.cache_info()["entries"] == 4
            other_spec = ServiceTimeProvider(InstanceSpec(LLAMA3_8B, H100, 2))
            assert other_spec.cache_info()["entries"] == 0

    def test_outside_a_scope_a_provider_starts_empty(self):
        with shared_service_memos():
            self._evaluate(ServiceTimeProvider(instance()))
        provider = ServiceTimeProvider(instance())
        assert provider.cache_info() == {"hits": 0, "misses": 0, "entries": 0}
        self._evaluate(provider)
        assert provider.misses == 4

    def test_nested_scopes_reuse_the_outer_table(self):
        with shared_service_memos():
            self._evaluate(ServiceTimeProvider(instance()))
            with shared_service_memos():
                inner = ServiceTimeProvider(instance())
                self._evaluate(inner)
            # Leaving the inner scope keeps the outer one open.
            after = ServiceTimeProvider(instance())
            self._evaluate(after)
        assert inner.misses == after.misses == 0
        assert _SHARED_MEMOS.get() is None

    def test_scope_closes_after_an_exception(self):
        with pytest.raises(RuntimeError, match="inside"):
            with shared_service_memos():
                self._evaluate(ServiceTimeProvider(instance()))
                raise RuntimeError("raised inside the scope")
        assert _SHARED_MEMOS.get() is None
        assert ServiceTimeProvider(instance()).cache_info()["entries"] == 0


@settings(max_examples=200, deadline=None)
@given(
    latencies=st.lists(
        st.floats(min_value=1e-6, max_value=10.0, allow_nan=False), min_size=1, max_size=600
    ),
    log_base=st.integers(min_value=0, max_value=10_000),
    data=st.data(),
)
def test_tail_mean_equals_np_mean_of_the_tail_bitwise(latencies, log_base, data):
    offset = data.draw(st.integers(min_value=0, max_value=len(latencies) - 1))
    inst = DecodeState(iter_log=array("d", latencies), log_base=log_base)
    seq = ActiveSequence(Request(0, 0.0, 1, 1), start_iter=log_base + offset)
    assert _tail_mean(inst, seq).hex() == float(np.mean(latencies[offset:])).hex()
    inst.iter_log.append(1.0)  # no buffer export outlives the call


# --- ticks run inline vs the same ticks through the heap --------------------


@contextmanager
def _patched(owner, name, value):
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


def _simulate(shape, seed, rate, output_tokens, scripted, mtbf, controller, resilience,
              metrics, horizon):
    """One small run of either shape; ``scripted`` holds ``(time, pool, index,
    duration)`` with ``pool`` 0 or 1 (prefill or decode on phase-split)."""
    config = SimConfig(max_sim_time=horizon, metrics=metrics, resilience=resilience)
    trace = generate_trace(
        TraceConfig(rate=rate, duration=15.0, output_tokens=output_tokens, output_spread=0.5),
        seed=seed,
    )
    names = ("prefill", "decode") if shape == "phase_split" else ("colocated", "colocated")
    options = dict(
        failures=[(t, names[pool], index, d) for t, pool, index, d in scripted],
        failure_model=FailureModel(mtbf=mtbf, mttr=8.0) if mtbf is not None else None,
        failure_seed=seed,
        controller=controller,
    )
    if shape == "phase_split":
        pools = PhasePools(
            prefill=instance(), n_prefill=2, decode=instance(), n_decode=2,
            max_prefill_batch=4, max_decode_batch=32,
        )
        return ServingSimulator(pools, config, **options).run(trace)
    pool = ColocatedPool(instance=instance(), n_instances=2, max_decode_batch=32)
    return ColocatedSimulator(pool, config, **options).run(trace)


def _assert_same_report(shipped, heap) -> None:
    for f in dataclasses.fields(shipped):
        a, b = getattr(shipped, f.name), getattr(heap, f.name)
        assert a == b or (a != a and b != b), f.name  # NaN == NaN


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from(["phase_split", "colocated"]),
    seed=st.integers(min_value=0, max_value=2**16),
    rate=st.floats(min_value=1.0, max_value=30.0),
    output_tokens=st.integers(min_value=10, max_value=200),
    scripted=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=30.0), st.integers(0, 1), st.integers(0, 1),
            st.floats(min_value=0.5, max_value=15.0),
        ),
        max_size=3,
    ),
    mtbf=st.none() | st.floats(min_value=30.0, max_value=300.0),
    controller=st.none() | st.builds(
        ReactiveController,
        epoch=st.sampled_from([2.0, 4.0]), warmup_s=st.floats(min_value=0.0, max_value=10.0),
        calm_epochs=st.just(2), queue_high=st.just(1.5), max_instances=st.just(5),
    ),
    resilience=st.none() | st.builds(
        ResilienceConfig,
        deadline_s=st.none() | st.floats(min_value=3.0, max_value=30.0),
        queue_timeout_s=st.none() | st.floats(min_value=0.5, max_value=5.0),
        retry=st.sampled_from(["none", "fixed", "exp_jitter"]),
        checkpoint_interval=st.none() | st.sampled_from([16, 64]),
    ),
    metrics=st.sampled_from(["exact", "streaming"]),
    horizon=st.floats(min_value=2.0, max_value=60.0) | st.just(600.0),
)
def test_inline_ticks_match_heap_ticks(**draw):
    """Running a tick inline only when it is the event due next is the
    one-event-per-step engine, report for report: with ``due_by`` always
    True every step goes through the heap, as it did before inlining."""
    shipped = _simulate(**draw)
    with _patched(EventQueue, "due_by", lambda queue, time: True):
        heap = _simulate(**draw)
    _assert_same_report(shipped, heap)


def test_ticks_run_inline():
    """The property above would also pass with inlining switched off: on one
    fixed draw the shipped run must push fewer tick events than it runs ticks."""
    kinds: Counter = Counter()
    push, charge = EventQueue.push, _EngineBase._charge

    def counting_push(queue, time, kind, payload=()):
        kinds[kind] += 1
        push(queue, time, kind, payload)

    def counting_charge(engine, *args):
        kinds["ticks"] += 1
        return charge(engine, *args)

    with _patched(EventQueue, "push", counting_push), \
            _patched(_EngineBase, "_charge", counting_charge):
        report = _simulate(
            "phase_split", seed=7, rate=4.0, output_tokens=100, scripted=[], mtbf=None,
            controller=None, resilience=None, metrics="exact", horizon=600.0,
        )
    assert report.completed > 0
    assert kinds["decode_iter"] + kinds["decode_admit"] < kinds["ticks"]
