"""Fluid-backend tests: validation, guards, determinism, accuracy bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.failures import FailureModel
from repro.cluster.fluid import (
    _EXP_ATOMS,
    _UNIFORM_ATOMS,
    BatchTimeFit,
    TraceProfile,
    _ttft_atoms,
)
from repro.cluster.resilience import ResilienceConfig
from repro.cluster.scheduler import ColocatedPool, InstanceSpec, PhasePools
from repro.cluster.simulator import ColocatedSimulator, ServingSimulator, SimConfig
from repro.errors import SpecError
from repro.exec.ensemble import aggregate_reports
from repro.exec.sharding import run_sharded
from repro.hardware.gpu import H100
from repro.workloads.models import LLAMA3_8B
from repro.workloads.traces import LengthDistribution, TraceConfig, generate_trace


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


def colo(n_instances=2, **kw) -> ColocatedPool:
    base = dict(
        instance=InstanceSpec(LLAMA3_8B, H100, 1),
        n_instances=n_instances,
        max_decode_batch=64,
        chunk_tokens=512,
    )
    base.update(kw)
    return ColocatedPool(**base)


def trace(rate=5.0, duration=20.0, seed=0, output_tokens=50, **kw):
    return generate_trace(
        TraceConfig(
            rate=rate, duration=duration,
            output_tokens=output_tokens, output_spread=0.3, **kw,
        ),
        seed=seed,
    )


FLUID = SimConfig(backend="fluid")
EVENT = SimConfig()


class TestConfigValidation:
    def test_default_backend_is_event(self):
        assert SimConfig().backend == "event"

    def test_unknown_backend_rejected(self):
        with pytest.raises(SpecError, match="backend"):
            SimConfig(backend="magic")

    def test_fluid_with_resilience_rejected(self):
        with pytest.raises(SpecError, match="resilience"):
            SimConfig(backend="fluid", resilience=ResilienceConfig(deadline_s=30.0))


class TestCompositionGuards:
    def test_fluid_with_failure_model_rejected(self):
        with pytest.raises(SpecError, match="failures"):
            ServingSimulator(
                pools(), FLUID, failure_model=FailureModel(mtbf=3600.0, mttr=60.0)
            )

    def test_fluid_with_scripted_failures_rejected(self):
        with pytest.raises(SpecError, match="failures"):
            ServingSimulator(pools(), FLUID, failures=[(5.0, "decode", 0, 2.0)])

    def test_fluid_with_controller_rejected(self):
        with pytest.raises(SpecError, match="elastic"):
            ServingSimulator(pools(n_decode=2), FLUID, controller="reactive")

    def test_fluid_colocated_failure_model_rejected(self):
        with pytest.raises(SpecError, match="failures"):
            ColocatedSimulator(
                colo(), FLUID, failure_model=FailureModel(mtbf=3600.0, mttr=60.0)
            )

    def test_sharding_rejects_fluid(self):
        with pytest.raises(SpecError, match="event"):
            run_sharded(pools(n_decode=2), trace(), FLUID, shards=2)

    def test_event_backend_still_accepts_failures(self):
        report = ServingSimulator(
            pools(), EVENT, failure_model=FailureModel(mtbf=3600.0, mttr=60.0)
        ).run(trace(duration=5.0))
        assert report.backend == "event"


class TestDeterminism:
    def test_phase_split_bit_identical(self):
        t = trace(seed=3)
        a = ServingSimulator(pools(), FLUID).run(t)
        b = ServingSimulator(pools(), FLUID).run(t)
        assert a == b

    def test_colocated_bit_identical(self):
        t = trace(seed=7)
        a = ColocatedSimulator(colo(), FLUID).run(t)
        b = ColocatedSimulator(colo(), FLUID).run(t)
        assert a == b


class TestProvenance:
    def test_fluid_report_is_labelled(self):
        report = ServingSimulator(pools(), FLUID).run(trace(duration=5.0))
        assert report.backend == "fluid"

    def test_event_report_is_labelled(self):
        report = ServingSimulator(pools(), EVENT).run(trace(duration=5.0))
        assert report.backend == "event"

    def test_simulation_table_shows_backend_column(self):
        from repro.analysis.report import simulation_table

        t = trace(duration=5.0)
        fluid = ServingSimulator(pools(), FLUID).run(t)
        event = ServingSimulator(pools(), EVENT).run(t)
        mixed = simulation_table({"fluid": fluid, "event": event})
        assert "backend" in mixed
        event_only = simulation_table({"event": event})
        assert "backend" not in event_only

    def test_ensemble_aggregates_backend(self):
        t = trace(duration=5.0)
        r = ServingSimulator(pools(), FLUID).run(t)
        agg = aggregate_reports([r, r], seeds=[0, 1])
        assert agg.mean.backend == "fluid"

    def test_ensemble_rejects_mixed_backends(self):
        t = trace(duration=5.0)
        fluid = ServingSimulator(pools(), FLUID).run(t)
        event = ServingSimulator(pools(), EVENT).run(t)
        with pytest.raises(SpecError, match="mixed backends"):
            aggregate_reports([fluid, event], seeds=[0, 1])


class TestFluidProperties:
    def test_all_complete_under_light_load(self):
        t = trace(rate=2.0)
        report = ServingSimulator(pools(), FLUID).run(t)
        assert report.completed == len(t)
        assert report.dropped == 0

    def test_latency_monotone_in_arrival_rate(self):
        # Deterministic arrivals and constant outputs isolate the queueing
        # effect: more load can only push p99s up.
        p99s = []
        for rate in (2.0, 8.0, 16.0):
            t = trace(
                rate=rate, duration=30.0,
                poisson_arrivals=False, output_dist=LengthDistribution.CONSTANT,
            )
            report = ServingSimulator(pools(), FLUID).run(t)
            p99s.append((report.ttft_p99, report.e2e_p99))
        for (lo_t, lo_e), (hi_t, hi_e) in zip(p99s, p99s[1:]):
            assert hi_t >= lo_t - 1e-9
            assert hi_e >= lo_e - 1e-9

    def test_nan_not_zero_when_nothing_completes(self):
        report = ServingSimulator(pools(), SimConfig(backend="fluid", max_sim_time=0.1)).run(
            trace(rate=2.0)
        )
        assert report.completed == 0
        assert math.isnan(report.ttft_p99)
        assert math.isnan(report.e2e_p50)

    def test_economics_attached(self):
        report = ServingSimulator(pools(), FLUID).run(trace())
        assert report.gpu_seconds > 0
        assert report.usd_per_mtoken > 0


class TestAccuracyVsEvent:
    """Fluid must land within pinned relative bounds of event truth."""

    def assert_close(self, fluid, event, bounds):
        for name, bound in bounds.items():
            f, e = getattr(fluid, name), getattr(event, name)
            rel = abs(f - e) / max(abs(e), 1e-12)
            assert rel <= bound, f"{name}: fluid {f:.5g} vs event {e:.5g} (rel {rel:.3f})"

    def test_phase_split_bounds(self):
        t = trace(rate=5.0, duration=20.0, output_tokens=80)
        fluid = ServingSimulator(pools(), FLUID).run(t)
        event = ServingSimulator(pools(), EVENT).run(t)
        assert fluid.completed == event.completed
        self.assert_close(
            fluid, event,
            {
                "ttft_p50": 0.05,
                # p99 over ~90 requests on a 1-instance pool is dominated by
                # Poisson clustering the fluid limit smooths; the benchmark
                # goldens (larger pools) pin the tighter 0.25 bound.
                "ttft_p99": 0.40,
                "tbt_mean": 0.05,
                "e2e_p50": 0.10,
                "e2e_p99": 0.10,
                "output_tokens_per_s": 0.05,
                "decode_utilization": 0.15,
            },
        )

    def test_colocated_bounds(self):
        t = trace(rate=5.0, duration=20.0, output_tokens=80)
        fluid = ColocatedSimulator(colo(), FLUID).run(t)
        event = ColocatedSimulator(colo(), EVENT).run(t)
        assert fluid.completed == event.completed
        self.assert_close(
            fluid, event,
            {
                "ttft_p50": 0.15,
                "ttft_p99": 0.35,
                "tbt_mean": 0.15,
                "e2e_p50": 0.20,
                "e2e_p99": 0.20,
                "output_tokens_per_s": 0.05,
            },
        )


class TestBuildingBlocks:
    def test_trace_profile_conserves_mass(self):
        t = trace(rate=4.0, duration=25.0)
        profile = TraceProfile.from_trace(t)
        assert profile.n_requests == len(t)
        integrated = sum(profile.rates) * profile.bin_s
        assert integrated == pytest.approx(len(t))
        assert profile.span >= profile.t_end

    def test_trace_profile_empty(self):
        profile = TraceProfile.from_trace([])
        assert profile.n_requests == 0
        assert profile.rate_at(0.0) == 0.0

    def test_batch_time_fit_interpolates_samples_exactly(self):
        fit = BatchTimeFit.from_samples([1.0, 4.0, 16.0], [0.01, 0.02, 0.05])
        assert fit.time_at(4.0) == pytest.approx(0.02)
        assert 0.02 < fit.time_at(8.0) < 0.05


def _per_step_atoms(w, base, blocked, scale, residuals):
    """Reference: the integrators' former per-step TTFT atom expansion."""
    values, weights = [], []
    for w_i, base_i, blocked_i, scale_i in zip(w, base, blocked, scale):
        weights.append(w_i * (1.0 - blocked_i))
        values.append(base_i)
        if blocked_i > 1e-6:
            share = w_i * blocked_i * 0.25
            for u in residuals:
                weights.append(share)
                values.append(base_i + u * scale_i)
    return np.array(values), np.array(weights)


#: Blocked probabilities on both sides of the 1e-6 cut, plus its edges.
_BLOCKED = st.one_of(
    st.sampled_from([0.0, 1e-6, math.nextafter(1e-6, 0.0), math.nextafter(1e-6, 1.0), 1.0]),
    st.floats(min_value=0.0, max_value=2e-6),
    st.floats(min_value=0.0, max_value=1.0),
)
_STEP = st.tuples(
    st.floats(min_value=1e-9, max_value=1e3),  # arrival weight
    st.floats(min_value=0.0, max_value=1e3),  # base TTFT
    _BLOCKED,
    st.floats(min_value=0.0, max_value=10.0),  # residual-wait scale
)


class TestTtftAtoms:
    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(_STEP, min_size=1, max_size=40),
        residuals=st.sampled_from([_UNIFORM_ATOMS, _EXP_ATOMS]),
    )
    def test_matches_per_step_expansion(self, steps, residuals):
        w, base, blocked, scale = (np.array(column) for column in zip(*steps))
        values, weights = _ttft_atoms(w, base, blocked, scale, residuals)
        ref_values, ref_weights = _per_step_atoms(*zip(*steps), residuals)
        assert values.tobytes() == ref_values.tobytes()
        assert weights.tobytes() == ref_weights.tobytes()


LIGHT = dict(rate=2.0)
SATURATED = dict(rate=120.0, duration=10.0, output_tokens=200)


def _fluid_pin_cases():
    cases = {}
    for shape in ("phase_split", "colocated"):
        for bundle in ("fcfs", "least-loaded", "round-robin"):
            for load, trace_kw in (("light", LIGHT), ("saturated", SATURATED)):
                name = f"fluid_{shape}_{bundle.replace('-', '_')}_{load}"
                cases[name] = (shape, bundle, trace_kw, {})
        cases[f"fluid_{shape}_horizon"] = (shape, "fcfs", SATURATED, {"max_sim_time": 8.0})
        cases[f"fluid_{shape}_bucket64"] = (shape, "fcfs", SATURATED, {"context_bucket": 64})
    return cases


#: name -> (shape, policy bundle, trace options, SimConfig options).
FLUID_PINS = _fluid_pin_cases()


def pinned_fluid_report(name):
    shape, bundle, trace_kw, options = FLUID_PINS[name]
    simulator, deployment = (
        (ServingSimulator, pools()) if shape == "phase_split" else (ColocatedSimulator, colo())
    )
    config = SimConfig(backend="fluid", **options)
    return simulator(deployment, config, policies=bundle).run(trace(**trace_kw))


class TestPinnedReports:
    """Every field of these fluid reports is pinned (see ``assert_pinned``).

    The pins hold the outputs of the per-step TTFT atom expansion that
    ``TestTtftAtoms`` keeps as its reference; the accuracy tests above only
    bound fluid against event.
    """

    @pytest.mark.parametrize("name", sorted(FLUID_PINS))
    def test_matches_pin(self, assert_pinned, name):
        assert_pinned(name, pinned_fluid_report(name))
