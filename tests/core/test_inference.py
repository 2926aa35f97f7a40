"""Phase-model tests: TTFT, TBT, memory feasibility, stage breakdowns."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.inference import (
    DecodeWorkload,
    Phase,
    PrefillWorkload,
    decode_iteration,
    prefill_pass,
)
from repro.core.roofline import RooflinePolicy
from repro.errors import SpecError
from repro.hardware.gpu import H100, LITE, LITE_MEMBW
from repro.workloads.models import GPT3_175B, LLAMA3_70B, LLAMA3_405B


class TestWorkloads:
    def test_prefill_tokens(self):
        assert PrefillWorkload(batch=4, prompt_len=1500).tokens == 6000

    def test_decode_cached_tokens(self):
        assert DecodeWorkload(batch=8, context_len=1750).cached_tokens == 14000

    def test_validation(self):
        with pytest.raises(SpecError):
            PrefillWorkload(batch=0)
        with pytest.raises(SpecError):
            DecodeWorkload(batch=1, context_len=0)


class TestPrefill:
    def test_basic_feasible_run(self):
        r = prefill_pass(LLAMA3_70B, H100, 8, PrefillWorkload(4))
        assert r.phase is Phase.PREFILL
        assert r.fits_memory
        assert 0 < r.latency < 1.0
        assert r.tokens_per_s == pytest.approx(6000 / r.latency)

    def test_latency_roughly_linear_in_batch(self):
        """Compute-bound prefill: double the prompts, double the time."""
        r1 = prefill_pass(LLAMA3_70B, H100, 8, PrefillWorkload(2))
        r2 = prefill_pass(LLAMA3_70B, H100, 8, PrefillWorkload(4))
        assert r2.latency == pytest.approx(2 * r1.latency, rel=0.1)

    def test_prefill_is_compute_bound_on_h100(self):
        r = prefill_pass(LLAMA3_70B, H100, 4, PrefillWorkload(8))
        assert r.bound_by() == "compute"

    def test_oom_flagged_not_raised(self):
        r = prefill_pass(LLAMA3_405B, H100, 2, PrefillWorkload(1))
        assert not r.fits_memory

    def test_stage_breakdown_sums_to_one(self):
        r = prefill_pass(LLAMA3_70B, H100, 8, PrefillWorkload(4))
        assert sum(r.breakdown().values()) == pytest.approx(1.0)

    def test_sms_accounting(self):
        r = prefill_pass(LLAMA3_70B, LITE, 16, PrefillWorkload(4))
        assert r.sms == 16 * 33
        assert r.tokens_per_s_per_sm == pytest.approx(r.tokens_per_s / r.sms)


class TestDecode:
    def test_basic_feasible_run(self):
        r = decode_iteration(LLAMA3_70B, H100, 8, DecodeWorkload(32))
        assert r.phase is Phase.DECODE
        assert r.fits_memory
        assert r.latency < 0.05  # within the paper's TBT SLO
        assert r.tokens_per_s == pytest.approx(32 / r.latency)

    def test_decode_memory_bound_at_moderate_batch(self):
        """The paper: decode 'is often memory-bound'."""
        r = decode_iteration(LLAMA3_70B, H100, 2, DecodeWorkload(64))
        assert r.bound_by() == "memory"

    def test_memory_bandwidth_variant_speeds_decode(self):
        base = decode_iteration(LLAMA3_70B, LITE, 8, DecodeWorkload(64))
        fast = decode_iteration(LLAMA3_70B, LITE_MEMBW, 8, DecodeWorkload(64))
        assert fast.latency < base.latency

    def test_latency_grows_with_context(self):
        short = decode_iteration(GPT3_175B, H100, 8, DecodeWorkload(64, context_len=1000))
        long = decode_iteration(GPT3_175B, H100, 8, DecodeWorkload(64, context_len=4000))
        assert long.latency > short.latency

    def test_kv_capacity_flagged(self):
        """GPT-3's MHA cache overflows 4 H100s at big batches."""
        r = decode_iteration(GPT3_175B, H100, 4, DecodeWorkload(200, context_len=1750))
        assert not r.fits_memory

    def test_memory_utilization_bounded(self):
        r = decode_iteration(LLAMA3_70B, H100, 8, DecodeWorkload(16))
        assert 0 < r.memory_utilization < 1

    def test_full_memory_iteration_time_invariant(self):
        """At capacity-filling batch, decode mem time ~ capacity/bandwidth,
        which is identical for H100 and base Lite — so their latencies are
        within 2x of each other (network is the separator)."""
        h = decode_iteration(LLAMA3_70B, H100, 2, DecodeWorkload(280))
        lite = decode_iteration(LLAMA3_70B, LITE, 8, DecodeWorkload(280))
        assert h.fits_memory and lite.fits_memory
        assert h.memory_utilization > 0.85
        assert lite.latency / h.latency < 2.0


class TestPolicyEffects:
    def test_sum_overlap_slower_than_max(self):
        fast = decode_iteration(
            LLAMA3_70B, H100, 8, DecodeWorkload(32), RooflinePolicy(overlap="max")
        )
        slow = decode_iteration(
            LLAMA3_70B, H100, 8, DecodeWorkload(32), RooflinePolicy(overlap="sum")
        )
        assert slow.latency > fast.latency

    def test_lower_mfu_slows_prefill(self):
        fast = prefill_pass(LLAMA3_70B, H100, 8, PrefillWorkload(4), RooflinePolicy(mfu=0.9))
        slow = prefill_pass(LLAMA3_70B, H100, 8, PrefillWorkload(4), RooflinePolicy(mfu=0.5))
        assert slow.latency > fast.latency


class TestProperties:
    @given(batch=st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
    @settings(max_examples=20, deadline=None)
    def test_decode_latency_monotone_in_batch(self, batch):
        a = decode_iteration(LLAMA3_70B, H100, 8, DecodeWorkload(batch))
        b = decode_iteration(LLAMA3_70B, H100, 8, DecodeWorkload(batch * 2))
        assert b.latency >= a.latency

    @given(batch=st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128]))
    @settings(max_examples=20, deadline=None)
    def test_decode_throughput_monotone_in_batch(self, batch):
        """Bigger batches always improve raw decode throughput (until OOM) —
        why the search saturates a constraint."""
        a = decode_iteration(LLAMA3_70B, H100, 8, DecodeWorkload(batch))
        b = decode_iteration(LLAMA3_70B, H100, 8, DecodeWorkload(batch * 2))
        assert b.tokens_per_s >= a.tokens_per_s * 0.99
