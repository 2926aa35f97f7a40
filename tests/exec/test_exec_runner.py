"""Parallel runner tests: ordering, determinism, isolation, caching, pool
start-up, and the service-time memos a call's jobs share."""

from __future__ import annotations

import gc
import os

import pytest

from repro.analysis.sweeps import sweep_grid
from repro.cluster.engine import _SHARED_MEMOS, ServiceTimeProvider
from repro.cluster.resilience import ResilienceConfig
from repro.cluster.scheduler import ColocatedPool, InstanceSpec, PhasePools
from repro.cluster.simulator import ColocatedSimulator, ServingSimulator, SimConfig
from repro.errors import SpecError
from repro.exec.cache import ResultCache
from repro.exec.runner import Job, JobOutcome, _place_on_cpu, _start_pool, run_many
from repro.hardware.gpu import H100
from repro.network.topology import DirectConnectTopology
from repro.workloads.models import LLAMA3_8B
from repro.workloads.traces import TraceConfig, generate_trace


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise ValueError(f"bad point {x}")


def _mixed(x: int) -> int:
    if x == 2:
        raise RuntimeError("two is right out")
    return x + 10


def _affinity() -> list:
    return sorted(os.sched_getaffinity(0))


class TestRunMany:
    def test_preserves_job_order(self):
        outcomes = run_many([Job(fn=_square, args=(i,)) for i in range(8)])
        assert [o.value for o in outcomes] == [i * i for i in range(8)]

    def test_workers_equivalent_to_serial(self):
        jobs = [Job(fn=_square, args=(i,), label=str(i)) for i in range(10)]
        serial = run_many(jobs, workers=1)
        parallel = run_many(jobs, workers=4)
        assert [o.value for o in serial] == [o.value for o in parallel]
        assert [o.label for o in parallel] == [str(i) for i in range(10)]

    def test_error_isolation(self):
        outcomes = run_many([Job(fn=_mixed, args=(i,)) for i in range(4)], workers=2)
        assert [o.ok for o in outcomes] == [True, True, False, True]
        assert outcomes[2].error == "RuntimeError: two is right out"
        assert [o.value for o in outcomes] == [10, 11, None, 13]

    def test_all_errors_never_raise(self):
        outcomes = run_many([Job(fn=_boom, args=(i,)) for i in range(3)])
        assert all(not o.ok for o in outcomes)
        assert all("bad point" in o.error for o in outcomes)

    def test_rejects_zero_workers(self):
        with pytest.raises(SpecError):
            run_many([Job(fn=_square, args=(1,))], workers=0)

    def test_empty_jobs(self):
        assert run_many([]) == []

    def test_kwargs_pass_through(self):
        outcomes = run_many([Job(fn=int, args=("ff",), kwargs={"base": 16})])
        assert outcomes[0].value == 255


class TestPoolStartup:
    def test_workers_fork_with_the_heap_frozen(self):
        with _start_pool(2) as pool:
            assert pool.apply(gc.get_freeze_count) > 0
        assert gc.get_freeze_count() == 0

    def test_a_heap_the_caller_froze_stays_frozen(self):
        gc.freeze()
        try:
            with _start_pool(1) as pool:
                assert pool.apply(gc.get_freeze_count) > 0
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()

    def test_placement_leaves_the_affinity_mask_unchanged(self):
        before = os.sched_getaffinity(0)
        try:
            for slot in range(3):
                _place_on_cpu(slot)
                assert os.sched_getaffinity(0) == before
        finally:
            os.sched_setaffinity(0, before)

    def test_pool_workers_keep_every_allowed_cpu(self):
        outcomes = run_many([Job(fn=_affinity) for _ in range(4)], workers=2)
        assert [o.value for o in outcomes] == [_affinity()] * 4


class TestRunManyCache:
    def test_hits_skip_execution_and_match(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [Job(fn=_square, args=(i,), key=cache.key("sq", i)) for i in range(5)]
        cold = run_many(jobs, cache=cache)
        warm = run_many(jobs, cache=cache)
        assert [o.value for o in cold] == [o.value for o in warm]
        assert not any(o.cached for o in cold)
        assert all(o.cached for o in warm)
        assert cache.cache_info()["hits"] == 5

    def test_errors_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [Job(fn=_boom, args=(1,), key=cache.key("boom"))]
        run_many(jobs, cache=cache)
        assert cache.entries() == 0
        again = run_many(jobs, cache=cache)
        assert not again[0].ok and not again[0].cached

    def test_unkeyed_jobs_bypass_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_many([Job(fn=_square, args=(3,))], cache=cache)
        assert cache.cache_info() == {"hits": 0, "misses": 0, "stores": 0, "entries": 0}

    def test_parallel_workers_populate_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [Job(fn=_square, args=(i,), key=cache.key("p", i)) for i in range(6)]
        run_many(jobs, workers=3, cache=cache)
        assert cache.entries() == 6
        warm = run_many(jobs, workers=3, cache=cache)
        assert all(o.cached for o in warm)


class TestJobOutcome:
    def test_ok_property(self):
        assert JobOutcome(value=1).ok
        assert not JobOutcome(error="ValueError: x").ok


# --- service-time memos shared by one call's jobs ---------------------------


def _probe_misses() -> int:
    """Evaluate one roofline point with a new provider; return its misses."""
    provider = ServiceTimeProvider(InstanceSpec(LLAMA3_8B, H100, 1))
    provider.decode_time(4, 100)
    return provider.misses


def _nested_probe_misses() -> int:
    _probe_misses()
    return run_many([Job(fn=_probe_misses)])[0].value


def _sim_point(shape: str, variant: str):
    """One small run; every variant and shape uses the same TP2 spec."""
    spec = InstanceSpec(LLAMA3_8B, H100, 2)
    config = SimConfig(
        max_sim_time=120.0,
        context_bucket=64 if variant == "bucket64" else 1,
        resilience=ResilienceConfig(checkpoint_interval=16) if variant == "checkpoint" else None,
    )
    options = {}
    if variant == "fabric":
        options = dict(
            topology=DirectConnectTopology(n_gpus=8, group=2),
            placer="scattered",
            network_model="fabric",
        )
    trace = generate_trace(
        TraceConfig(rate=6.0, duration=5.0, output_tokens=40, output_spread=0.5), seed=3
    )
    if shape == "phase_split":
        pools = PhasePools(
            prefill=spec, n_prefill=1, decode=spec, n_decode=2,
            max_prefill_batch=4, max_decode_batch=32,
        )
        return ServingSimulator(pools, config, **options).run(trace)
    pool = ColocatedPool(instance=spec, n_instances=2, max_decode_batch=32)
    return ColocatedSimulator(pool, config, **options).run(trace)


SHAPES = ["phase_split", "colocated"]
VARIANTS = ["plain", "bucket64", "fabric", "checkpoint"]


@pytest.fixture(scope="module")
def unshared_reports():
    """Each sweep point run on its own, outside any sharing scope."""
    assert _SHARED_MEMOS.get() is None
    return {(s, v): _sim_point(s, v) for s in SHAPES for v in VARIANTS}


class TestSharedServiceMemos:
    def test_jobs_of_one_call_share_memos(self):
        outcomes = run_many([Job(fn=_probe_misses) for _ in range(3)])
        assert [o.value for o in outcomes] == [1, 0, 0]

    def test_each_pool_worker_shares_memos(self):
        outcomes = run_many([Job(fn=_probe_misses) for _ in range(6)], workers=2)
        assert all(o.ok for o in outcomes)
        assert sum(o.value for o in outcomes) <= 2

    def test_inner_call_reuses_the_outer_table(self):
        assert run_many([Job(fn=_nested_probe_misses)])[0].value == 0

    def test_no_table_outlives_the_call(self):
        run_many([Job(fn=_probe_misses), Job(fn=_boom, args=(1,))])
        assert _SHARED_MEMOS.get() is None
        assert _probe_misses() == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_reports_equal_unshared_runs(self, workers, unshared_reports):
        records = sweep_grid(_sim_point, SHAPES, VARIANTS, "shape", "variant", workers=workers)
        assert all("error" not in r for r in records)
        for record in records:
            assert record["result"] == unshared_reports[record["shape"], record["variant"]]
