"""Failure-model tests — blast radius and instance reliability."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.failures import (
    BlastRadius,
    ComponentFailure,
    ComponentFailureModel,
    FailureModel,
    InstanceReliability,
    affected_gpus,
    component_blast_radius,
    fleet_available_capacity,
    link_inventory,
    resolve_component_failures,
    scaled_lite_failure_model,
    switch_inventory,
)
from repro.cluster.placement import Placement
from repro.errors import SpecError
from repro.network.topology import (
    DirectConnectTopology,
    FlatCircuitTopology,
    SwitchedTopology,
)
from repro.units import HOUR


class TestFailureModel:
    def test_availability_formula(self):
        model = FailureModel(mtbf=99 * HOUR, mttr=1 * HOUR)
        assert model.gpu_availability == pytest.approx(0.99)

    def test_failure_rate(self):
        model = FailureModel(mtbf=100.0)
        assert model.failure_rate == pytest.approx(0.01)

    def test_sample_lifetimes_mean(self):
        model = FailureModel(mtbf=1000.0)
        rng = np.random.default_rng(0)
        samples = model.sample_lifetimes(20000, rng)
        assert samples.mean() == pytest.approx(1000.0, rel=0.05)

    def test_weibull_shape_changes_distribution(self):
        rng = np.random.default_rng(0)
        exp = FailureModel(mtbf=1000.0, weibull_shape=1.0).sample_lifetimes(10000, rng)
        rng = np.random.default_rng(0)
        wearout = FailureModel(mtbf=1000.0, weibull_shape=3.0).sample_lifetimes(10000, rng)
        # Same mean, very different spread.
        assert wearout.std() < exp.std()

    def test_validation(self):
        with pytest.raises(SpecError):
            FailureModel(mtbf=0.0)
        with pytest.raises(SpecError):
            FailureModel(weibull_shape=0.0)


class TestBlastRadius:
    def test_sms_per_failure(self):
        assert BlastRadius(gpus_per_failure=1, sms_per_gpu=33).sms_per_failure == 33
        assert BlastRadius(gpus_per_failure=1, sms_per_gpu=132).sms_per_failure == 132

    def test_lite_blast_radius_quarter_of_h100(self):
        """Section 3: reducing GPU size reduces the hardware blast radius."""
        h100 = BlastRadius(1, 132)
        lite = BlastRadius(1, 33)
        assert lite.sms_per_failure * 4 == h100.sms_per_failure

    def test_capacity_fraction(self):
        assert BlastRadius(1, 132).capacity_fraction(8) == pytest.approx(1 / 8)
        assert BlastRadius(1, 33).capacity_fraction(32) == pytest.approx(1 / 32)

    def test_validation(self):
        with pytest.raises(SpecError):
            BlastRadius(0, 33)
        with pytest.raises(SpecError):
            BlastRadius(1, 33).capacity_fraction(0)


class TestInstanceReliability:
    def test_series_mtbf(self):
        model = FailureModel(mtbf=800 * HOUR)
        inst = InstanceReliability(8, model)
        assert inst.instance_mtbf == pytest.approx(100 * HOUR)

    def test_bigger_instances_fail_more(self):
        model = FailureModel()
        small = InstanceReliability(8, model)
        big = InstanceReliability(32, model)
        assert big.instance_availability < small.instance_availability

    def test_expected_failures_linear_in_horizon(self):
        inst = InstanceReliability(8, FailureModel(mtbf=100.0))
        assert inst.expected_failures(200.0) == pytest.approx(2 * inst.expected_failures(100.0))


class TestLiteScaling:
    def test_area_scaled_mtbf(self):
        parent = FailureModel(mtbf=1000.0)
        lite = scaled_lite_failure_model(parent, 4)
        assert lite.mtbf == 4000.0

    def test_equal_silicon_reliability_balances_fleets(self):
        """With area-scaled failure rates, a 4x-larger fleet of 4x-more-
        reliable GPUs has the same instance availability: the Lite fleet
        does not lose on availability even before hot spares."""
        parent = FailureModel()
        lite = scaled_lite_failure_model(parent, 4)
        h100_fleet = fleet_available_capacity(8, 8, parent)
        lite_fleet = fleet_available_capacity(32, 32, lite)
        # Equal to first order (exact only in the exp(-k*MTTR/MTBF) limit).
        assert lite_fleet == pytest.approx(h100_fleet, rel=1e-4)

    def test_unscaled_lite_fleet_worse(self):
        """If Lite GPUs kept the parent's per-device failure rate, the
        bigger instance would fail more — the paper's caveat about
        'different failure frequencies and profiles'."""
        parent = FailureModel()
        h100_fleet = fleet_available_capacity(8, 8, parent)
        naive_lite = fleet_available_capacity(32, 32, parent)
        assert naive_lite < h100_fleet


class TestProperties:
    @given(k=st.integers(1, 64))
    @settings(max_examples=30, deadline=None)
    def test_availability_decreasing_in_k(self, k):
        model = FailureModel()
        a_k = InstanceReliability(k, model).instance_availability
        a_k1 = InstanceReliability(k + 1, model).instance_availability
        assert a_k1 < a_k

    @given(
        mtbf_h=st.floats(100.0, 10000.0),
        mttr_h=st.floats(0.5, 100.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_availability_bounded(self, mtbf_h, mttr_h):
        model = FailureModel(mtbf=mtbf_h * HOUR, mttr=mttr_h * HOUR)
        assert 0.0 < model.gpu_availability < 1.0


class TestFailureSchedule:
    def test_deterministic_and_sorted(self):
        from repro.cluster.failures import sample_failure_schedule

        model = FailureModel(mtbf=100.0, mttr=20.0)
        a = sample_failure_schedule(model, "decode", 3, horizon=2000.0, seed=2)
        b = sample_failure_schedule(model, "decode", 3, horizon=2000.0, seed=2)
        assert a == b
        assert a == sorted(a)
        assert a, "short MTBF over a long horizon must produce failures"

    def test_tuple_shape_and_bounds(self):
        from repro.cluster.failures import sample_failure_schedule

        model = FailureModel(mtbf=100.0, mttr=20.0)
        for time, pool, index, duration in sample_failure_schedule(
            model, "prefill", 2, horizon=1000.0, seed=0
        ):
            assert pool == "prefill"
            assert 0 <= index < 2
            assert 0 < time < 1000.0
            assert duration == model.mttr

    def test_bigger_instances_fail_more(self):
        from repro.cluster.failures import sample_failure_schedule

        model = FailureModel(mtbf=500.0, mttr=10.0)
        small = sample_failure_schedule(model, "p", 4, horizon=20000.0, seed=1)
        big = sample_failure_schedule(
            model, "p", 4, horizon=20000.0, seed=1, gpus_per_instance=8
        )
        assert len(big) > len(small)

    def test_validation(self):
        from repro.cluster.failures import sample_failure_schedule

        model = FailureModel()
        with pytest.raises(SpecError):
            sample_failure_schedule(model, "p", 0, horizon=100.0)
        with pytest.raises(SpecError):
            sample_failure_schedule(model, "p", 1, horizon=-1.0)


class TestScheduleMemo:
    """Seeded schedules: each call returns a fresh list, so mutating one
    leaves the next draw alone, and distinct seeds draw distinct schedules."""

    def test_memoized_result_is_mutation_safe(self):
        from repro.cluster.failures import sample_failure_schedule

        model = FailureModel(mtbf=222.0, mttr=11.0)
        first = sample_failure_schedule(model, "memo2", 2, horizon=5000.0, seed=7)
        first.append(("garbage",))
        second = sample_failure_schedule(model, "memo2", 2, horizon=5000.0, seed=7)
        assert ("garbage",) not in second

    def test_distinct_parameters_distinct_entries(self):
        from repro.cluster.failures import sample_failure_schedule

        model = FailureModel(mtbf=80.0, mttr=8.0)
        a = sample_failure_schedule(model, "distinct", 2, horizon=3000.0, seed=1)
        b = sample_failure_schedule(model, "distinct", 2, horizon=3000.0, seed=2)
        assert a != b


# --- component-level faults ---------------------------------------------------


def _direct_topo():
    return DirectConnectTopology(n_gpus=16, group=4)


def _placement16():
    # Four 4-GPU instances packed onto the four mesh groups.
    return Placement(
        16,
        (
            ("prefill", ((0, 1, 2, 3), (4, 5, 6, 7))),
            ("decode", ((8, 9, 10, 11), (12, 13, 14, 15))),
        ),
    )


class TestAffectedGpus:
    def test_gpu_is_itself(self):
        assert affected_gpus(_direct_topo(), "gpu", 5) == (5,)

    def test_link_hits_its_gpu_endpoints(self):
        topo = _direct_topo()
        links = link_inventory(topo)
        for index, edge in enumerate(links):
            gpus = affected_gpus(topo, "link", index)
            expected = tuple(sorted(n[1] for n in edge if n[0] == "gpu"))
            assert gpus == expected
        # Direct-connect: a mesh link has two GPU endpoints, an uplink one.
        sizes = {len(affected_gpus(topo, "link", i)) for i in range(len(links))}
        assert sizes == {1, 2}

    def test_switch_hits_attached_gpus(self):
        # The direct topology's hub fronts every group's uplink holder.
        assert affected_gpus(_direct_topo(), "switch", 0) == (0, 4, 8, 12)
        # A flat packet switch fronts every GPU.
        flat = SwitchedTopology(n_gpus=8)
        assert affected_gpus(flat, "switch", 0) == tuple(range(8))

    def test_rack_is_a_contiguous_power_domain(self):
        assert affected_gpus(_direct_topo(), "rack", 1, rack_size=8) == tuple(range(8, 16))
        assert affected_gpus(FlatCircuitTopology(n_gpus=10), "rack", 1, rack_size=8) == (8, 9)

    def test_out_of_range_components(self):
        topo = _direct_topo()
        with pytest.raises(SpecError):
            affected_gpus(topo, "gpu", 99)
        with pytest.raises(SpecError):
            affected_gpus(topo, "link", 10_000)
        with pytest.raises(SpecError):
            affected_gpus(topo, "switch", 99)
        with pytest.raises(SpecError):
            affected_gpus(topo, "rack", 99)
        with pytest.raises(SpecError):
            affected_gpus(topo, "psu", 0)

    def test_inventories_are_deterministic(self):
        topo = SwitchedTopology(n_gpus=256)
        assert link_inventory(topo) == link_inventory(topo)
        assert switch_inventory(topo) == switch_inventory(topo)
        assert len(switch_inventory(topo)) == topo.n_switches


class TestComponentBlastRadius:
    def test_switch_blast_radius(self):
        br = component_blast_radius(SwitchedTopology(n_gpus=8), "switch", 0, sms_per_gpu=10)
        assert br.gpus_per_failure == 8
        assert br.sms_per_failure == 80

    def test_uplink_loss_has_unit_radius_floor(self):
        # A switch-to-switch link strands no GPU; radius floors at 1.
        topo = SwitchedTopology(n_gpus=256)
        links = link_inventory(topo)
        uplink = next(
            i for i, e in enumerate(links) if e[0][0] == "sw" and e[1][0] == "sw"
        )
        assert affected_gpus(topo, "link", uplink) == ()
        assert component_blast_radius(topo, "link", uplink, 10).gpus_per_failure == 1


class TestResolveComponentFailures:
    def test_rack_failure_maps_to_both_pool_instances(self):
        events = [ComponentFailure(30.0, "rack", 0, 60.0)]
        resolved = resolve_component_failures(events, _direct_topo(), _placement16(), rack_size=8)
        assert resolved == [(30.0, "prefill", 0, 60.0), (30.0, "prefill", 1, 60.0)]

    def test_link_failure_maps_to_one_instance(self):
        topo = _direct_topo()
        links = link_inventory(topo)
        # Find a mesh link inside group 2 (GPUs 8..11) -> decode instance 0.
        mesh = next(
            i for i, e in enumerate(links)
            if e[0][0] == "gpu" and e[1][0] == "gpu" and 8 <= e[0][1] <= 11
        )
        resolved = resolve_component_failures(
            [ComponentFailure(5.0, "link", mesh, 42.0)], topo, _placement16()
        )
        assert resolved == [(5.0, "decode", 0, 42.0)]

    def test_switch_failure_fans_out_to_every_group(self):
        resolved = resolve_component_failures(
            [ComponentFailure(1.0, "switch", 0, 10.0)], _direct_topo(), _placement16()
        )
        # The hub touches one GPU of every instance: all four go down once.
        assert resolved == [
            (1.0, "decode", 0, 10.0),
            (1.0, "decode", 1, 10.0),
            (1.0, "prefill", 0, 10.0),
            (1.0, "prefill", 1, 10.0),
        ]

    def test_event_hitting_two_gpus_of_one_instance_downs_it_once(self):
        resolved = resolve_component_failures(
            [ComponentFailure(2.0, "rack", 0, 9.0)], _direct_topo(), _placement16(),
            rack_size=4,
        )
        assert resolved == [(2.0, "prefill", 0, 9.0)]


class TestComponentFailureModel:
    def test_sampling_is_deterministic(self):
        model = ComponentFailureModel(
            gpu=FailureModel(mtbf=200.0, mttr=20.0),
            link=FailureModel(mtbf=400.0, mttr=10.0),
            switch=FailureModel(mtbf=800.0, mttr=30.0),
        )
        topo = _direct_topo()
        a = model.sample_component_schedule(topo, horizon=2000.0, seed=5)
        b = model.sample_component_schedule(topo, horizon=2000.0, seed=5)
        c = model.sample_component_schedule(topo, horizon=2000.0, seed=6)
        assert a == b
        assert a != c
        kinds = {e.component for e in a}
        assert kinds <= {"gpu", "link", "switch"}
        assert all(e.time < 2000.0 and e.duration > 0 for e in a)

    def test_disabled_classes_draw_nothing(self):
        model = ComponentFailureModel(rack=FailureModel(mtbf=100.0, mttr=10.0), rack_size=4)
        schedule = model.sample_component_schedule(_direct_topo(), horizon=1000.0, seed=0)
        assert schedule and all(e.component == "rack" for e in schedule)
        assert max(e.index for e in schedule) <= 3

    def test_validation(self):
        with pytest.raises(SpecError):
            ComponentFailureModel(rack_size=0)
        with pytest.raises(SpecError):
            ComponentFailure(0.0, "gpu", 0, 0.0)
        with pytest.raises(SpecError):
            ComponentFailure(0.0, "bogus", 0, 1.0)
        with pytest.raises(SpecError):
            ComponentFailure(0.0, "gpu", -1, 1.0)
