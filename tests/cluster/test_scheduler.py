"""Deployment-shape tests: instance specs, phase-split pools and the
scheduling decisions made within their bounds."""

from __future__ import annotations

from collections import deque

import pytest

from repro.cluster.engine import require_kv_headroom
from repro.cluster.policies import get_policy_bundle
from repro.cluster.scheduler import InstanceSpec, PhasePools
from repro.errors import SpecError
from repro.hardware.gpu import H100, LITE, LITE_MEMBW, LITE_NETBW_FLOPS
from repro.workloads.models import LLAMA3_8B, LLAMA3_70B, LLAMA3_405B
from repro.workloads.traces import Request


def small_pools(**overrides) -> PhasePools:
    base = dict(
        prefill=InstanceSpec(LLAMA3_70B, H100, 2),
        n_prefill=2,
        decode=InstanceSpec(LLAMA3_70B, H100, 2),
        n_decode=2,
        max_prefill_batch=4,
        max_decode_batch=64,
    )
    base.update(overrides)
    return PhasePools(**base)


class TestInstanceSpec:
    def test_rejects_models_that_do_not_fit(self):
        with pytest.raises(SpecError):
            InstanceSpec(LLAMA3_405B, H100, 2)

    def test_performance_envelope(self):
        inst = InstanceSpec(LLAMA3_70B, H100, 2)
        assert inst.prefill_time(4, 1500) > inst.prefill_time(1, 1500)
        assert inst.decode_time(64, 1750) > inst.decode_time(1, 1750)
        assert inst.kv_token_capacity() > 0

    def test_phase_specialized_gpus(self):
        """Splitwise-style: prefill on +FLOPS, decode on +MemBW."""
        prefill = InstanceSpec(LLAMA3_8B, LITE_NETBW_FLOPS, 2)
        decode = InstanceSpec(LLAMA3_8B, LITE_MEMBW, 2)
        generic = InstanceSpec(LLAMA3_8B, LITE, 2)
        assert prefill.prefill_time(4, 1500) < generic.prefill_time(4, 1500)
        assert decode.decode_time(32, 1750) < generic.decode_time(32, 1750)


class TestPhasePools:
    def test_totals(self):
        pools = small_pools()
        assert pools.total_gpus == 8
        assert pools.total_sms == 8 * 132

    def test_same_model_enforced(self):
        with pytest.raises(SpecError):
            small_pools(decode=InstanceSpec(LLAMA3_8B, H100, 1))

    def test_describe(self):
        assert "prefill" in small_pools().describe()


def req(rid: int) -> Request:
    return Request(request_id=rid, arrival=0.0, prompt_tokens=100, output_tokens=50)


def fcfs_prefill_take(pools: PhasePools, queue_len: int) -> int:
    """How many of ``queue_len`` queued requests one free prefill instance
    takes under the ``fcfs`` bundle and the pools' batch bound."""
    queue = deque(req(i) for i in range(queue_len))
    return len(get_policy_bundle("fcfs").prefill.select(queue, pools.max_prefill_batch))


def fcfs_decode_admit(pools: PhasePools, footprints, occupied_slots: int, occupied_tokens: int) -> int:
    """How many queued sequences (final footprints ``footprints``) one decode
    instance admits under the ``fcfs`` bundle, the pools' slot bound and the
    instance's KV-token budget."""
    slots = pools.max_decode_batch - occupied_slots
    budget = require_kv_headroom(pools.decode, "decode") - occupied_tokens
    return len(get_policy_bundle("fcfs").admission.admit_footprints(footprints, slots, budget))


class TestScheduler:
    """The scheduling decisions the simulator makes for a deployment: the
    ``fcfs`` bundle's policies bounded by the pools' batch limits and the
    decode instance's KV capacity."""

    def test_prefill_batching_bounded(self):
        pools = small_pools()
        assert fcfs_prefill_take(pools, 10) == 4
        assert fcfs_prefill_take(pools, 2) == 2
        assert fcfs_prefill_take(pools, 0) == 0

    def test_decode_admission_slots(self):
        pools = small_pools(max_decode_batch=3)
        assert fcfs_decode_admit(pools, [2000] * 8, occupied_slots=1, occupied_tokens=0) == 2

    def test_decode_admission_kv_budget(self):
        pools = small_pools()
        capacity = pools.decode.kv_token_capacity()
        assert fcfs_decode_admit(pools, [capacity // 2] * 3, 0, 0) == 2

    def test_admission_stops_at_first_misfit(self):
        """FIFO: a huge head-of-line request blocks (no reordering)."""
        pools = small_pools()
        capacity = pools.decode.kv_token_capacity()
        assert fcfs_decode_admit(pools, [capacity + 1, 10], 0, 0) == 0
