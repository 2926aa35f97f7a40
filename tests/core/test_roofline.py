"""Roofline engine tests: overlap composition and collective charging."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.roofline import (
    CommModel,
    RooflinePolicy,
    compose_stage_time,
    tp_allgather_time,
    tp_allreduce_time,
)
from repro.errors import SpecError
from repro.hardware.gpu import H100, LITE


class TestPolicy:
    def test_defaults_are_paper(self):
        policy = RooflinePolicy.paper()
        assert policy.comm_model is CommModel.HIERARCHICAL
        assert policy.overlap == "max"
        assert policy.weight_bytes == 1.0  # FP8
        assert policy.act_bytes == 2.0  # FP16 on the wire

    def test_presets(self):
        assert RooflinePolicy.pessimistic().comm_model is CommModel.FLAT_RING
        assert RooflinePolicy.optimistic().comm_model is CommModel.SHARDED

    def test_validation(self):
        with pytest.raises(SpecError):
            RooflinePolicy(mfu=0.0)
        with pytest.raises(SpecError):
            RooflinePolicy(overlap="parallel")
        with pytest.raises(SpecError):
            RooflinePolicy(alpha=-1.0)
        with pytest.raises(SpecError):
            RooflinePolicy(causal_discount=0.0)


class TestCompose:
    def test_max_overlap(self):
        st_ = compose_stage_time("s", 3.0, 2.0, 1.0, RooflinePolicy(overlap="max"))
        assert st_.total == 3.0
        assert st_.bound == "compute"

    def test_sum_overlap(self):
        st_ = compose_stage_time("s", 3.0, 2.0, 1.0, RooflinePolicy(overlap="sum"))
        assert st_.total == 6.0

    def test_bound_classification(self):
        assert compose_stage_time("s", 1, 5, 2, RooflinePolicy()).bound == "memory"
        assert compose_stage_time("s", 1, 2, 5, RooflinePolicy()).bound == "network"

    def test_rejects_negative_components(self):
        with pytest.raises(SpecError):
            compose_stage_time("s", -1.0, 0.0, 0.0, RooflinePolicy())


class TestAllReduceCharging:
    def test_degree_one_free(self):
        assert tp_allreduce_time(1e9, 1, H100, RooflinePolicy()) == 0.0

    def test_h100_domain_is_flat_ring(self):
        """H100 at t <= 8 is a plain NVLink ring under every model."""
        policy = RooflinePolicy(alpha=0.0)
        size = 16.8e6
        expected = 2 * (7 / 8) * size / (H100.net_bandwidth * policy.net_efficiency)
        hier = tp_allreduce_time(size, 8, H100, policy)
        ring = tp_allreduce_time(size, 8, H100, RooflinePolicy(alpha=0.0, comm_model=CommModel.FLAT_RING))
        assert hier == pytest.approx(expected)
        assert ring == pytest.approx(expected)

    def test_charging_model_ordering_for_lite32(self):
        """SHARDED <= HIERARCHICAL <= FLAT_RING at high degree."""
        size = 16.8e6
        times = {
            model: tp_allreduce_time(size, 32, LITE, RooflinePolicy(alpha=0.0, comm_model=model))
            for model in CommModel
        }
        assert times[CommModel.SHARDED] < times[CommModel.HIERARCHICAL]
        assert times[CommModel.HIERARCHICAL] < times[CommModel.FLAT_RING]

    def test_hierarchical_uses_mesh_inside_group(self):
        """At t = 4 a Lite group runs on its 3x mesh links."""
        policy = RooflinePolicy(alpha=0.0)
        size = 1e6
        t = tp_allreduce_time(size, 4, LITE, policy)
        expected = 2 * (3 / 4) * size / (LITE.mesh_bandwidth * policy.net_efficiency)
        assert t == pytest.approx(expected)

    def test_alpha_adds_per_hop_latency(self):
        lo = tp_allreduce_time(1e6, 8, H100, RooflinePolicy(alpha=0.0))
        hi = tp_allreduce_time(1e6, 8, H100, RooflinePolicy(alpha=1e-6))
        assert hi == pytest.approx(lo + 14e-6)

    def test_lite_penalty_vs_h100_hierarchical(self):
        """Lite at t=32 pays ~2x H100's t=8 all-reduce (not 4.4x as in a
        flat ring) thanks to the group mesh — the modeling choice that
        reconciles Figure 3a and 3b (DESIGN.md §4)."""
        size = 16.8e6
        policy = RooflinePolicy(alpha=0.0)
        h100 = tp_allreduce_time(size, 8, H100, policy)
        lite = tp_allreduce_time(size, 32, LITE, policy)
        assert 1.5 < lite / h100 < 3.0

    def test_rejects_negative_size(self):
        with pytest.raises(SpecError):
            tp_allreduce_time(-1.0, 8, H100, RooflinePolicy())


class TestAllGather:
    def test_allgather_cheaper_than_allreduce(self):
        policy = RooflinePolicy()
        ag = tp_allgather_time(1e6, 8, H100, policy)
        ar = tp_allreduce_time(1e6, 8, H100, policy)
        assert ag < ar

    def test_degree_one_free(self):
        assert tp_allgather_time(1e9, 1, H100, RooflinePolicy()) == 0.0

    def test_all_models_positive(self):
        for model in CommModel:
            policy = RooflinePolicy(comm_model=model)
            assert tp_allgather_time(1e6, 32, LITE, policy) > 0


class TestProperties:
    @given(
        size=st.floats(1e3, 1e9),
        degree=st.sampled_from([2, 4, 8, 16, 32]),
        model=st.sampled_from(list(CommModel)),
    )
    @settings(max_examples=60, deadline=None)
    def test_times_positive_and_monotone_in_size(self, size, degree, model):
        policy = RooflinePolicy(comm_model=model)
        t1 = tp_allreduce_time(size, degree, LITE, policy)
        t2 = tp_allreduce_time(size * 2, degree, LITE, policy)
        assert 0 < t1 < t2

    @given(size=st.floats(1e3, 1e8), degree=st.sampled_from([2, 4, 8]))
    @settings(max_examples=40, deadline=None)
    def test_more_net_bandwidth_never_hurts(self, size, degree):
        from repro.hardware.gpu import LITE_NETBW

        policy = RooflinePolicy()
        slow = tp_allreduce_time(size, degree, LITE, policy)
        fast = tp_allreduce_time(size, degree, LITE_NETBW, policy)
        assert fast <= slow + 1e-15
