"""Elastic control plane tests: controllers, lifecycle events, economics.

The two invariants everything else leans on:

1. ``controller=None`` and ``controller="static"`` (which resolves to
   ``None``) replay the pre-control-plane engine bit-for-bit (no
   controller events and no SLO window at all);
2. the engine's incremental occupied/context counters equal a recount
   of the resident sequences after every event, even when controllers
   spawn, drain and retire instances mid-run (the property tests at the
   bottom), and scaling runs reproduce their pinned reports.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.control import (
    CONTROLLERS,
    ControlObservation,
    ForecastController,
    PoolStats,
    PowerCapController,
    ReactiveController,
    SLOController,
    get_controller,
)
from repro.cluster.economics import EconomicsConfig
from repro.cluster.engine import (
    ColocatedEngine,
    PhaseSplitEngine,
    ServiceTimeProvider,
    _EngineBase,
)
from repro.cluster.policies import get_policy_bundle
from repro.cluster.power_manager import ClusterPowerManager
from repro.cluster.provisioning import WorkloadForecast, provision_pools
from repro.cluster.scheduler import ColocatedPool, InstanceSpec, PhasePools
from repro.cluster.simulator import ColocatedSimulator, ServingSimulator, SimConfig
from repro.errors import SpecError
from repro.hardware.gpu import H100
from repro.network.topology import DirectConnectTopology
from repro.workloads.models import LLAMA3_8B
from repro.workloads.traces import TraceConfig, generate_piecewise_trace, generate_trace


def pools(n_prefill=2, n_decode=4, **kw) -> PhasePools:
    base = dict(
        prefill=InstanceSpec(LLAMA3_8B, H100, 1),
        n_prefill=n_prefill,
        decode=InstanceSpec(LLAMA3_8B, H100, 1),
        n_decode=n_decode,
        max_prefill_batch=4,
        max_decode_batch=32,
    )
    base.update(kw)
    return PhasePools(**base)


def colocated(n_instances=4, **kw) -> ColocatedPool:
    base = dict(
        instance=InstanceSpec(LLAMA3_8B, H100, 1),
        n_instances=n_instances,
        max_decode_batch=32,
    )
    base.update(kw)
    return ColocatedPool(**base)


def bursty_trace(low=1.0, high=8.0, segment=45.0, seed=7):
    base = TraceConfig(output_tokens=100, output_spread=0.5)
    return generate_piecewise_trace(
        [(low, segment), (high, segment), (low, segment)], base, seed=seed
    )


def stats(**kw) -> PoolStats:
    base = dict(
        alive=2, warming=0, draining=0, busy=1, queue_depth=0,
        occupancy=0.2, gpus_per_instance=1,
    )
    base.update(kw)
    return PoolStats(**base)


def observation(time=0.0, **pool_kw) -> ControlObservation:
    return ControlObservation(time=time, pools={"decode": stats(**pool_kw)})


CONFIG = SimConfig(max_sim_time=1200.0)


class TestRegistry:
    def test_names(self):
        for name in ("static", "reactive", "slo", "forecast", "power_cap"):
            assert name in CONTROLLERS

    def test_get_controller_resolution(self):
        assert get_controller(None) is None
        assert isinstance(get_controller("reactive"), ReactiveController)
        instance = SLOController()
        assert get_controller(instance) is instance
        with pytest.raises(SpecError):
            get_controller(42)

    def test_static_never_steps(self):
        assert get_controller("static") is None
        assert get_controller("Static") is None

    @pytest.mark.parametrize("epoch", [0.0, -1.0])
    @pytest.mark.parametrize(
        "cls", [ReactiveController, SLOController, ForecastController, PowerCapController]
    )
    def test_epoch_must_be_positive(self, cls, epoch):
        """Every controller object steps: no-control is ``None``, not ``epoch=0``."""
        with pytest.raises(SpecError, match="epoch must be positive"):
            cls(epoch=epoch)

    def test_describe(self):
        text = ReactiveController().describe()
        assert "reactive" in text and "epoch" in text


class TestStaticEquivalence:
    """static / None produce bit-identical reports (the golden guard)."""

    METRICS = ("exact", "streaming")

    def test_phase_split(self):
        t = generate_trace(TraceConfig(rate=4.0, duration=20.0, output_tokens=80), seed=3)
        for metrics in self.METRICS:
            config = SimConfig(max_sim_time=1200.0, metrics=metrics)
            none = ServingSimulator(pools(), config).run(t)
            static = ServingSimulator(pools(), config, controller="static").run(t)
            assert none == static
            assert static.spawned_instances == 0 and static.retired_instances == 0

    def test_colocated(self):
        t = generate_trace(TraceConfig(rate=4.0, duration=20.0, output_tokens=80), seed=3)
        for metrics in self.METRICS:
            config = SimConfig(max_sim_time=1200.0, metrics=metrics)
            none = ColocatedSimulator(colocated(), config).run(t)
            static = ColocatedSimulator(colocated(), config, controller="static").run(t)
            assert none == static

    def test_static_run_keeps_no_slo_window(self, monkeypatch):
        """Only controller epochs drain the per-request TTFT/TBT window, so a
        static streaming run must not fill it: it would hold one entry per
        request until the run ends."""
        windows = []
        run = _EngineBase.run

        def spy(engine, trace):
            out = run(engine, trace)
            windows.append((len(engine._window_ttfts), len(engine._window_tbts)))
            return out

        monkeypatch.setattr(_EngineBase, "run", spy)
        t = generate_trace(TraceConfig(rate=4.0, duration=20.0, output_tokens=80), seed=3)
        config = SimConfig(max_sim_time=1200.0, metrics="streaming")
        for sim_cls, deployment in ((ServingSimulator, pools()), (ColocatedSimulator, colocated())):
            report = sim_cls(deployment, config, controller="static").run(t)
            assert report.completed == len(t)
        assert windows == [(0, 0), (0, 0)]


class TestReactiveController:
    def test_scale_up_on_queue_pressure(self):
        ctrl = ReactiveController(queue_high=2.0, max_instances=8)
        action = ctrl.step(observation(queue_depth=10, alive=2))
        assert action.scale["decode"] > 0

    def test_scale_down_needs_consecutive_calm_epochs(self):
        ctrl = ReactiveController(calm_epochs=3, min_instances=1)
        calm = observation(queue_depth=0, occupancy=0.0, busy=0)
        assert ctrl.step(calm).is_noop()
        assert ctrl.step(calm).is_noop()
        assert ctrl.step(calm).scale == {"decode": -1}
        # The counter resets after a scale-down: no immediate second drain.
        assert ctrl.step(calm).is_noop()

    def test_pressure_resets_calm(self):
        ctrl = ReactiveController(calm_epochs=2, queue_high=2.0)
        calm = observation(queue_depth=0, occupancy=0.0, busy=0)
        ctrl.step(calm)
        ctrl.step(observation(queue_depth=50))  # burst resets hysteresis
        assert ctrl.step(calm).is_noop()

    def test_respects_max_instances(self):
        ctrl = ReactiveController(queue_high=1.0, max_instances=2)
        action = ctrl.step(observation(queue_depth=100, alive=2))
        assert "decode" not in action.scale

    def test_validation(self):
        with pytest.raises(SpecError):
            ReactiveController(queue_high=0.0)
        with pytest.raises(SpecError):
            ReactiveController(min_instances=0)

    def test_elastic_run_sheds_capacity_and_cost(self):
        """The issue's core claim: elastic beats static $/Mtoken at equal SLO."""
        t = bursty_trace()
        static = ServingSimulator(pools(), CONFIG).run(t)
        ctrl = ReactiveController(epoch=5.0, warmup_s=10.0, calm_epochs=2,
                                  queue_high=2.0, max_instances=6)
        elastic = ServingSimulator(pools(), CONFIG, controller=ctrl).run(t)
        assert elastic.completed == static.completed == len(t)
        assert elastic.retired_instances > 0
        assert elastic.gpu_seconds < static.gpu_seconds
        assert elastic.usd_per_mtoken < static.usd_per_mtoken
        assert elastic.ttft_p99 <= 1.0  # the paper's TTFT SLO

    def test_scale_up_from_underprovisioned_pool(self):
        """A one-instance pool under a heavy burst spawns decode capacity."""
        t = bursty_trace(low=1.0, high=30.0, segment=30.0)
        small = pools(n_prefill=1, n_decode=1, max_prefill_batch=2, max_decode_batch=8)
        ctrl = ReactiveController(epoch=3.0, warmup_s=5.0, queue_high=1.5,
                                  max_instances=6, calm_epochs=4)
        starved = ServingSimulator(small, CONFIG).run(t)
        elastic = ServingSimulator(small, CONFIG, controller=ctrl).run(t)
        assert elastic.spawned_instances > 0
        assert elastic.e2e_p99 < starved.e2e_p99


class TestSLOController:
    def test_scales_up_on_ttft_violation(self):
        ctrl = SLOController(ttft_target=0.5, min_samples=4)
        obs = ControlObservation(
            time=10.0,
            pools={"prefill": stats(), "decode": stats()},
            window_ttfts=(2.0, 3.0, 2.5, 4.0),
        )
        action = ctrl.step(obs)
        assert action.scale.get("prefill") == 1

    def test_scales_down_when_comfortable(self):
        ctrl = SLOController(ttft_target=1.0, tbt_target=0.05, calm_epochs=2,
                             min_samples=4)
        obs = ControlObservation(
            time=10.0,
            pools={"prefill": stats(alive=2), "decode": stats(alive=4)},
            window_ttfts=(0.01, 0.01, 0.02, 0.01),
            window_tbts=(0.001, 0.001, 0.002, 0.001),
        )
        assert ctrl.step(obs).is_noop()
        action = ctrl.step(obs)
        assert action.scale == {"decode": -1}  # largest pool drains first

    def test_holds_slo_on_bursty_trace(self):
        t = bursty_trace()
        ctrl = SLOController(epoch=5.0, warmup_s=10.0, calm_epochs=2, max_instances=6)
        report = ServingSimulator(pools(), CONFIG, controller=ctrl).run(t)
        assert report.completed == len(t)
        assert report.ttft_p99 <= 1.0
        assert report.retired_instances > 0


class TestForecastController:
    def test_profile_lookup(self):
        ctrl = ForecastController(profile=[(0.0, 1.0), (60.0, 3.0), (120.0, 1.0)])
        assert ctrl.multiplier_at(0.0) == 1.0
        assert ctrl.multiplier_at(61.0) == 3.0
        assert ctrl.multiplier_at(500.0) == 1.0

    def test_provisions_ahead_of_ramp(self):
        # At t=50 with a 30s lead, the t=60 ramp is already visible.
        ctrl = ForecastController(
            profile=[(0.0, 1.0), (60.0, 3.0)], warmup_s=30.0, max_instances=8
        )
        obs = ControlObservation(time=50.0, pools={"decode": stats(alive=2, warming=0)})
        action = ctrl.step(obs)
        assert action.scale["decode"] == 4  # 2 * 3 = 6 desired, 2 incoming

    def test_from_plan_uses_pool_sizes(self):
        plan = provision_pools(LLAMA3_8B, H100, H100, WorkloadForecast(rate=3.0))
        ctrl = ForecastController.from_plan(plan, profile=[(0.0, 1.0)])
        assert ctrl.base_counts == {
            "prefill": plan.pools.n_prefill,
            "decode": plan.pools.n_decode,
        }

    def test_validation(self):
        with pytest.raises(SpecError):
            ForecastController(profile=[])
        with pytest.raises(SpecError):
            ForecastController(profile=[(0.0, -1.0)])

    def test_step_rejects_a_pool_without_baseline(self):
        ctrl = ForecastController(base_counts={"decode": 2})
        obs = ControlObservation(
            time=0.0, pools={"decode": stats(), "prefill": stats(alive=1)}
        )
        with pytest.raises(SpecError, match="no baseline for pool 'prefill'"):
            ctrl.step(obs)

    def test_plan_baselines_on_colocated_burst_are_an_error(self):
        """A plan sizes ``prefill`` and ``decode`` only, so on a colocated
        pool a plan-seeded controller once skipped every step: 0 spawns and
        0 drains on this burst, where default baselines scale 6 and 6."""
        trace = bursty_trace(low=1.0, high=12.0, segment=40.0, seed=0)
        profile = [(0.0, 1.0), (40.0, 4.0), (80.0, 1.0)]

        def run(ctrl):
            return ColocatedSimulator(
                colocated(n_instances=2), CONFIG, controller=ctrl
            ).run(trace)

        report = run(ForecastController(profile=profile, epoch=5.0, warmup_s=10.0))
        assert (report.spawned_instances, report.retired_instances) == (6, 6)
        plan = provision_pools(LLAMA3_8B, H100, H100, WorkloadForecast(rate=3.0))
        seeded = ForecastController.from_plan(plan, profile=profile, epoch=5.0, warmup_s=10.0)
        with pytest.raises(SpecError, match="no baseline for pool 'colocated'"):
            run(seeded)


class TestPowerCapController:
    def manager(self, count=6):
        return ClusterPowerManager(H100, count)

    def test_no_cap_restores_full_clock(self):
        ctrl = PowerCapController(manager=self.manager(), caps=[(100.0, 200.0, 1000.0)])
        action = ctrl.step(observation(time=10.0))
        assert action.frequency == 1.0

    def test_cap_throttles_via_dvfs(self):
        cap_watts = 6 * H100.tdp * 0.6
        ctrl = PowerCapController(manager=self.manager(), caps=[(0.0, 100.0, cap_watts)])
        obs = ControlObservation(
            time=10.0, pools={"decode": stats(alive=6, gpus_per_instance=1)}
        )
        action = ctrl.step(obs)
        assert action.frequency is not None and action.frequency < 1.0
        # The chosen clock actually fits the cap.
        curve = self.manager().curve
        assert 6 * H100.tdp * curve.power_ratio(action.frequency) <= cap_watts * 1.001

    def test_impossible_cap_drains_instances(self):
        curve = self.manager().curve
        floor_watts = H100.tdp * curve.power_ratio(curve.min_clock_ratio)
        ctrl = PowerCapController(
            manager=self.manager(), caps=[(0.0, 100.0, 2.5 * floor_watts)]
        )
        obs = ControlObservation(
            time=10.0, pools={"decode": stats(alive=6, gpus_per_instance=1)}
        )
        action = ctrl.step(obs)
        assert action.frequency == curve.min_clock_ratio
        assert action.scale["decode"] < 0

    def test_cap_event_cuts_energy_in_simulation(self):
        t = generate_trace(TraceConfig(rate=4.0, duration=60.0, output_tokens=80), seed=5)
        deploy = pools()
        manager = ClusterPowerManager(H100, deploy.total_gpus)
        ctrl = PowerCapController(
            manager=manager, epoch=5.0,
            caps=[(10.0, 50.0, deploy.total_gpus * H100.tdp * 0.5)],
        )
        capped = ServingSimulator(deploy, CONFIG, controller=ctrl).run(t)
        free = ServingSimulator(deploy, CONFIG).run(t)
        assert capped.completed == free.completed
        assert capped.energy_joules < free.energy_joules
        assert capped.tbt_mean > free.tbt_mean  # throttling is visible in latency

    def test_validation(self):
        with pytest.raises(SpecError):
            PowerCapController(caps=[(10.0, 5.0, 100.0)])


class TestLifecycleSemantics:
    def test_warmup_delays_service(self):
        """A long warm-up makes spawned capacity useless within the burst."""
        t = bursty_trace(low=1.0, high=30.0, segment=30.0)
        fast = ReactiveController(epoch=3.0, warmup_s=1.0, queue_high=1.5,
                                  max_instances=6, calm_epochs=4)
        slow = ReactiveController(epoch=3.0, warmup_s=300.0, queue_high=1.5,
                                  max_instances=6, calm_epochs=4)
        small = pools(n_prefill=1, n_decode=1, max_prefill_batch=2, max_decode_batch=8)
        quick = ServingSimulator(small, CONFIG, controller=fast).run(t)
        sluggish = ServingSimulator(small, CONFIG, controller=slow).run(t)
        assert quick.spawned_instances > 0
        assert quick.e2e_p99 < sluggish.e2e_p99
        # Warm-up time is still paid for: provisioned gpu-seconds include it.
        assert sluggish.gpu_seconds > 0

    def test_drain_floor_keeps_one_instance(self):
        ctrl = ReactiveController(epoch=2.0, calm_epochs=1, min_instances=1)
        t = generate_trace(TraceConfig(rate=0.5, duration=30.0, output_tokens=20), seed=1)
        report = ServingSimulator(pools(n_prefill=2, n_decode=2), CONFIG,
                                  controller=ctrl).run(t)
        # Both pools can shed at most down to the floor of one instance.
        assert report.retired_instances <= 2
        assert report.completed == len(t)

    def test_topology_placement_bounds_spawns(self):
        """With a topology, growth is pre-placed and physically bounded."""
        topo = DirectConnectTopology(n_gpus=8, group=4)
        ctrl = ReactiveController(epoch=3.0, warmup_s=5.0, queue_high=1.0,
                                  max_instances=16, calm_epochs=8)
        t = bursty_trace(low=0.5, high=12.0, segment=30.0)
        sim = ServingSimulator(
            pools(n_prefill=1, n_decode=1), CONFIG, controller=ctrl,
            topology=topo, network_model="fabric",
        )
        report = sim.run(t)
        # 8 GPUs total, 2 used initially: at most 6 spawns ever.
        assert report.spawned_instances <= 6
        assert report.completed == len(t)

    def test_economics_config_is_respected(self):
        from repro.hardware.tco import TCOAssumptions

        t = generate_trace(TraceConfig(rate=2.0, duration=20.0, output_tokens=50), seed=2)
        cheap = EconomicsConfig(assumptions=TCOAssumptions(electricity_usd_per_kwh=0.01))
        dear = EconomicsConfig(assumptions=TCOAssumptions(electricity_usd_per_kwh=5.0))
        a = ServingSimulator(pools(), CONFIG, economics=cheap).run(t)
        b = ServingSimulator(pools(), CONFIG, economics=dear).run(t)
        assert b.usd_cost > a.usd_cost
        assert a.gpu_seconds == b.gpu_seconds  # resource accounting unchanged

    def test_last_economics_detail(self):
        t = generate_trace(TraceConfig(rate=2.0, duration=20.0, output_tokens=50), seed=2)
        sim = ServingSimulator(pools(), CONFIG)
        report = sim.run(t)
        econ = sim.last_economics
        assert econ is not None
        assert {p.pool for p in econ.pools} == {"prefill", "decode"}
        assert econ.gpu_seconds == pytest.approx(report.gpu_seconds)
        assert econ.usd_per_mtoken == pytest.approx(report.usd_per_mtoken)
        assert "Mtoken" in econ.describe()

    def test_colocated_elastic(self):
        t = bursty_trace()
        ctrl = ReactiveController(epoch=5.0, warmup_s=10.0, calm_epochs=2,
                                  queue_high=2.0, max_instances=6)
        static = ColocatedSimulator(colocated(), CONFIG).run(t)
        elastic = ColocatedSimulator(colocated(), CONFIG, controller=ctrl).run(t)
        assert elastic.completed == static.completed == len(t)
        assert elastic.retired_instances > 0
        assert elastic.gpu_seconds < static.gpu_seconds


# --- satellite: engine counters under controller scaling --------------------


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    high_rate=st.floats(min_value=4.0, max_value=80.0),
    warmup=st.floats(min_value=0.0, max_value=20.0),
)
def test_counters_equal_recount_under_scaling_phase_split(
    recount_every_event, seed, high_rate, warmup
):
    """Mid-run spawn/drain/retire exercise the incremental occupied/context
    counters; after every event and every tick they must equal a recount of
    the residents.
    Bursts above about 40 req/s make the controller spawn as well as drain."""
    p = pools(n_prefill=1, n_decode=2)
    ctrl = ReactiveController(epoch=4.0, warmup_s=warmup, calm_epochs=2,
                              queue_high=1.5, max_instances=6)
    engine = PhaseSplitEngine(
        p, CONFIG, get_policy_bundle("fcfs"),
        ServiceTimeProvider(p.prefill), ServiceTimeProvider(p.decode), controller=ctrl,
    )
    checked = recount_every_event(engine)
    engine.run(bursty_trace(low=1.0, high=high_rate, segment=25.0, seed=seed))
    assert checked["events"] > 0
    assert checked["ticks"] == sum(s.iter_count for s in engine.decode_states) > 0


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    high_rate=st.floats(min_value=4.0, max_value=80.0),
)
def test_counters_equal_recount_under_scaling_colocated(recount_every_event, seed, high_rate):
    pool = colocated(n_instances=2)
    ctrl = ReactiveController(epoch=4.0, warmup_s=8.0, calm_epochs=2,
                              queue_high=1.5, max_instances=6)
    engine = ColocatedEngine(
        pool, CONFIG, get_policy_bundle("fcfs"), ServiceTimeProvider(pool.instance),
        controller=ctrl,
    )
    checked = recount_every_event(engine)
    engine.run(bursty_trace(low=1.0, high=high_rate, segment=25.0, seed=seed))
    assert checked["events"] > 0
    assert checked["ticks"] == sum(s.iter_count for s in engine.instances) > 0


class TestPinnedScalingRuns:
    """The properties' controllers under an 80 req/s burst, which makes them
    spawn, drain and retire instances: reports pinned (see ``assert_pinned``)."""

    def test_phase_split(self, assert_pinned):
        ctrl = ReactiveController(epoch=4.0, warmup_s=5.0, calm_epochs=2,
                                  queue_high=1.5, max_instances=6)
        report = ServingSimulator(pools(n_prefill=1, n_decode=2), CONFIG,
                                  controller=ctrl).run(bursty_trace(1.0, 80.0, 25.0, seed=7))
        assert report.spawned_instances > 0 and report.retired_instances > 0
        assert_pinned("reactive_phase_split", report)

    def test_colocated(self, assert_pinned):
        ctrl = ReactiveController(epoch=4.0, warmup_s=8.0, calm_epochs=2,
                                  queue_high=1.5, max_instances=6)
        report = ColocatedSimulator(colocated(n_instances=2), CONFIG,
                                    controller=ctrl).run(bursty_trace(1.0, 80.0, 25.0, seed=7))
        assert report.spawned_instances > 0 and report.retired_instances > 0
        assert_pinned("reactive_colocated", report)


class TestElasticFailureTargets:
    def test_scripted_failure_on_spawnable_instance_is_accepted(self):
        """Elastic runs accept fault indices up to the controller's growth
        cap; a fault on a never-spawned instance hits no hardware."""
        t = generate_trace(TraceConfig(rate=2.0, duration=10.0, output_tokens=50), seed=1)
        ctrl = ReactiveController(max_instances=8)
        report = ServingSimulator(
            pools(n_prefill=1, n_decode=2), CONFIG, controller=ctrl,
            failures=[(5.0, "decode", 5, 10.0)],
        ).run(t)
        assert report.completed == len(t)
        assert report.restarted_requests == 0  # instance 5 never existed

    def test_static_runs_keep_the_strict_bound(self):
        import pytest

        from repro.errors import SpecError

        with pytest.raises(SpecError):
            ServingSimulator(
                pools(n_prefill=1, n_decode=2), CONFIG,
                failures=[(5.0, "decode", 5, 10.0)],
            )
