"""Engine-core tests: event queue ordering and memoized service times."""

from __future__ import annotations

import pytest

from repro.cluster.engine import EventQueue, ServiceTimeProvider
from repro.cluster.scheduler import InstanceSpec
from repro.errors import SpecError
from repro.hardware.gpu import H100
from repro.workloads.models import LLAMA3_8B


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
