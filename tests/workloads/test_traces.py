"""Synthetic trace generator tests."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SpecError
from repro.exec.seeding import derive_seed
from repro.workloads import traces
from repro.workloads.traces import (
    LengthDistribution,
    Request,
    TraceConfig,
    generate_piecewise_trace,
    generate_trace,
    iter_trace,
    trace_stats,
)


class TestConfigValidation:
    def test_rejects_zero_rate(self):
        with pytest.raises(SpecError):
            TraceConfig(rate=0)

    def test_rejects_max_prompt_below_median(self):
        with pytest.raises(SpecError):
            TraceConfig(prompt_tokens=1000, max_prompt=500)


class TestGeneration:
    def test_deterministic_given_seed(self):
        cfg = TraceConfig(rate=10, duration=20)
        assert generate_trace(cfg, seed=5) == generate_trace(cfg, seed=5)

    def test_different_seeds_differ(self):
        cfg = TraceConfig(rate=10, duration=20)
        assert generate_trace(cfg, seed=1) != generate_trace(cfg, seed=2)

    def test_arrivals_sorted_and_bounded(self):
        trace = generate_trace(TraceConfig(rate=20, duration=10), seed=0)
        arrivals = [r.arrival for r in trace]
        assert arrivals == sorted(arrivals)
        assert all(0 <= a <= 10 for a in arrivals)

    def test_rate_roughly_respected(self):
        trace = generate_trace(TraceConfig(rate=50, duration=100), seed=0)
        assert len(trace) == pytest.approx(5000, rel=0.1)

    def test_constant_prompts_are_paper_default(self):
        trace = generate_trace(TraceConfig(rate=10, duration=10), seed=0)
        assert all(r.prompt_tokens == 1500 for r in trace)

    def test_uniform_arrivals_evenly_spaced(self):
        trace = generate_trace(
            TraceConfig(rate=10, duration=5, poisson_arrivals=False), seed=0
        )
        gaps = np.diff([r.arrival for r in trace])
        assert np.allclose(gaps, 0.1)

    def test_request_ids_sequential(self):
        trace = generate_trace(TraceConfig(rate=5, duration=10), seed=0)
        assert [r.request_id for r in trace] == list(range(len(trace)))


class TestDistributions:
    def test_lognormal_median_near_target(self):
        cfg = TraceConfig(
            rate=100, duration=100,
            output_dist=LengthDistribution.LOGNORMAL, output_tokens=250,
        )
        trace = generate_trace(cfg, seed=0)
        outputs = np.array([r.output_tokens for r in trace])
        assert np.median(outputs) == pytest.approx(250, rel=0.15)

    def test_uniform_prompts_within_band(self):
        cfg = TraceConfig(
            rate=50, duration=20,
            prompt_dist=LengthDistribution.UNIFORM, prompt_tokens=1000, prompt_spread=0.5,
        )
        trace = generate_trace(cfg, seed=0)
        prompts = [r.prompt_tokens for r in trace]
        assert min(prompts) >= 500
        assert max(prompts) <= 1500

    def test_outputs_clamped_to_max(self):
        cfg = TraceConfig(rate=50, duration=20, output_spread=3.0, max_output=300)
        trace = generate_trace(cfg, seed=0)
        assert all(1 <= r.output_tokens <= 300 for r in trace)


class TestStats:
    def test_empty_trace(self):
        assert trace_stats([]) == {"requests": 0}

    def test_stats_fields(self):
        trace = generate_trace(TraceConfig(rate=10, duration=30), seed=0)
        stats = trace_stats(trace)
        assert stats["requests"] == len(trace)
        assert stats["prompt_p50"] == 1500
        assert stats["total_prompt_tokens"] == 1500 * len(trace)

    def test_total_tokens_property(self):
        r = Request(request_id=0, arrival=0.0, prompt_tokens=100, output_tokens=50)
        assert r.total_tokens == 150


class TestProperties:
    @given(rate=st.floats(0.5, 100), duration=st.floats(1, 50), seed=st.integers(0, 99))
    @settings(max_examples=25, deadline=None)
    def test_all_lengths_positive(self, rate, duration, seed):
        trace = generate_trace(TraceConfig(rate=rate, duration=duration), seed=seed)
        assert all(r.prompt_tokens >= 1 and r.output_tokens >= 1 for r in trace)


class TestPiecewiseTrace:
    def test_segments_concatenate_in_time(self):
        from repro.workloads.traces import generate_piecewise_trace

        trace = generate_piecewise_trace([(2.0, 10.0), (8.0, 10.0)], seed=1)
        assert all(r.arrival <= 20.0 for r in trace)
        first = [r for r in trace if r.arrival <= 10.0]
        second = [r for r in trace if r.arrival > 10.0]
        assert len(second) > 2 * len(first)  # the burst is visibly denser
        # Fresh contiguous ids, arrival-ordered (simulator requirements).
        assert [r.request_id for r in trace] == list(range(len(trace)))
        assert all(a.arrival <= b.arrival for a, b in zip(trace, trace[1:]))

    def test_base_config_shapes_are_inherited(self):
        from repro.workloads.traces import TraceConfig, generate_piecewise_trace

        base = TraceConfig(prompt_tokens=700, output_tokens=50)
        trace = generate_piecewise_trace([(2.0, 5.0), (2.0, 5.0)], base, seed=0)
        assert all(r.prompt_tokens == 700 for r in trace)

    def test_deterministic_and_seed_sensitive(self):
        from repro.workloads.traces import generate_piecewise_trace

        a = generate_piecewise_trace([(2.0, 5.0), (4.0, 5.0)], seed=3)
        b = generate_piecewise_trace([(2.0, 5.0), (4.0, 5.0)], seed=3)
        c = generate_piecewise_trace([(2.0, 5.0), (4.0, 5.0)], seed=4)
        assert a == b
        assert a != c

    def test_empty_segments_rejected(self):
        import pytest

        from repro.errors import SpecError
        from repro.workloads.traces import generate_piecewise_trace

        with pytest.raises(SpecError):
            generate_piecewise_trace([])


class TestIterTrace:
    """Chunked (windowed) trace generation and lazy merging."""

    def test_deterministic_and_arrival_ordered(self):
        from repro.workloads.traces import iter_trace

        config = TraceConfig(rate=8, duration=45, output_tokens=60)
        a = list(iter_trace(config, seed=5, window=10.0))
        b = list(iter_trace(config, seed=5, window=10.0))
        assert a == b
        assert len(a) > 100
        assert all(x.arrival <= y.arrival for x, y in zip(a, a[1:]))
        assert [r.request_id for r in a] == list(range(len(a)))
        assert all(0.0 <= r.arrival < config.duration for r in a)

    def test_seed_and_window_sensitive(self):
        from repro.workloads.traces import iter_trace

        config = TraceConfig(rate=8, duration=30)
        base = list(iter_trace(config, seed=5, window=10.0))
        assert list(iter_trace(config, seed=6, window=10.0)) != base
        assert list(iter_trace(config, seed=5, window=15.0)) != base

    def test_matches_generate_trace_distribution(self):
        from repro.workloads.traces import iter_trace

        config = TraceConfig(rate=20, duration=120, output_tokens=80)
        lazy = list(iter_trace(config, seed=2, window=30.0))
        eager = generate_trace(config, seed=2)
        # Different draws, same process: counts within Poisson noise and
        # matching mean lengths (windowing must not bias either).
        assert abs(len(lazy) - len(eager)) < 6 * np.sqrt(config.rate * config.duration)
        lazy_mean = np.mean([r.output_tokens for r in lazy])
        eager_mean = np.mean([r.output_tokens for r in eager])
        assert abs(lazy_mean - eager_mean) / eager_mean < 0.15

    def test_rejects_nonpositive_window(self):
        from repro.workloads.traces import iter_trace

        with pytest.raises(SpecError):
            list(iter_trace(TraceConfig(rate=1, duration=5), window=0.0))

    def test_imerge_matches_eager_merge(self):
        from repro.workloads.traces import imerge_traces, merge_traces

        a = generate_trace(TraceConfig(rate=3, duration=20), seed=0)
        b = generate_trace(TraceConfig(rate=5, duration=20), seed=1)
        lazy = list(imerge_traces(iter(a), iter(b)))
        eager = merge_traces(a, b)
        assert [r.arrival for r in lazy] == [r.arrival for r in eager]
        assert [(r.prompt_tokens, r.output_tokens) for r in lazy] == [
            (r.prompt_tokens, r.output_tokens) for r in eager
        ]
        assert [r.request_id for r in lazy] == list(range(len(a) + len(b)))

    @given(seed=st.integers(0, 50), window=st.floats(5.0, 40.0))
    @settings(max_examples=15, deadline=None)
    def test_windowing_always_ordered_with_contiguous_ids(self, seed, window):
        from repro.workloads.traces import iter_trace

        trace = list(iter_trace(TraceConfig(rate=5, duration=60), seed=seed, window=window))
        assert all(x.arrival <= y.arrival for x, y in zip(trace, trace[1:]))
        assert [r.request_id for r in trace] == list(range(len(trace)))


def _fields(request):
    """A request's fields, the arrival by ``float.hex`` (exact)."""
    return (
        request.request_id, request.arrival.hex(), request.prompt_tokens,
        request.output_tokens, request.priority, request.deadline,
    )


class TestWindowExactness:
    """``iter_trace`` ≡ ``generate_trace`` per window, with the shift applied."""

    @settings(max_examples=60, deadline=None)
    @given(
        rate=st.floats(0.2, 150.0),
        duration=st.floats(0.5, 40.0),
        window=st.floats(0.3, 25.0),
        seed=st.integers(0, 2**31),
        prompt_dist=st.sampled_from(list(LengthDistribution)),
        poisson=st.booleans(),
    )
    def test_each_window_is_the_shifted_generate_trace(
        self, rate, duration, window, seed, prompt_dist, poisson
    ):
        config = TraceConfig(
            rate=rate, duration=duration, prompt_dist=prompt_dist, poisson_arrivals=poisson
        )
        expected = []
        start, index = 0.0, 0
        while start < duration:
            span = min(window, duration - start)
            segment = generate_trace(
                replace(config, duration=span), seed=derive_seed(seed, "window", index)
            )
            first_id = len(expected)
            expected += [
                (first_id + r.request_id, (r.arrival + start).hex(), r.prompt_tokens,
                 r.output_tokens, 0, None)
                for r in segment
            ]
            start += span
            index += 1
        lazy = [_fields(r) for r in iter_trace(config, seed=seed, window=window)]
        assert lazy == expected


class TestOneConstructionPerRequest:
    """Trace builders construct each ``Request`` once, not a copy per stage."""

    @pytest.fixture
    def constructions(self, monkeypatch):
        count = [0]

        def counting(*args, **kwargs):
            count[0] += 1
            return Request(*args, **kwargs)

        monkeypatch.setattr(traces, "Request", counting)
        return count

    def test_iter_trace(self, constructions):
        lazy = list(iter_trace(TraceConfig(rate=40, duration=23), seed=3, window=5.0))
        assert len(lazy) > 0
        assert constructions[0] == len(lazy)

    def test_piecewise_segments(self, constructions):
        # merge_traces renumbers through dataclasses.replace, which builds
        # from the class itself: the count covers the segment builds only.
        trace = generate_piecewise_trace([(5.0, 4.0), (30.0, 3.0)], seed=2)
        assert len(trace) > 0
        assert constructions[0] == len(trace)
