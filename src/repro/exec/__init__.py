"""Experiment execution: parallel running, result caching, seed derivation.

The Lite-GPU thesis applied to the harness itself: instead of one big
serial process, fan many small independent jobs — sweep points, search
candidates, failure-seeded simulation replicas — across workers, and never
recompute a point whose inputs haven't changed.

- :mod:`repro.exec.runner` — :class:`Job` / :func:`run_many`, the
  order-preserving multiprocessing executor;
- :mod:`repro.exec.cache` — :class:`ResultCache`, content-hashed JSON
  records under ``.repro_cache/`` with a code-version salt;
- :mod:`repro.exec.seeding` — :func:`derive_seed` / :func:`stable_digest`,
  deterministic per-job seed and key derivation;
- :mod:`repro.exec.ensemble` — :class:`SimulationEnsemble`, replicated
  failure-seeded simulations aggregated with confidence intervals
  (imported lazily to keep the light modules import-cycle-free);
- :mod:`repro.exec.sharding` — :func:`run_sharded`, split one big run
  into per-shard engine runs whose streaming metrics merge into one
  report (also lazy: it pulls in the cluster stack);
- :mod:`repro.exec.runspec` — :class:`RunSpec`, one frozen description of
  a run whose ``run()`` is the entry for unsharded, sharded and fluid runs
  (lazy too).
"""

from __future__ import annotations

import importlib

from .cache import MISS, ResultCache
from .runner import Job, JobOutcome, run_many
from .seeding import derive_seed, stable_digest

__all__ = [
    "MISS",
    "ResultCache",
    "Job",
    "JobOutcome",
    "run_many",
    "derive_seed",
    "stable_digest",
    "EnsembleReport",
    "SimulationEnsemble",
    "run_replica",
    "aggregate_reports",
    "run_sharded",
    "shard_requests",
    "shard_deployment",
    "merge_shard_results",
    "RunSpec",
]

# Lazy: repro.exec.ensemble/sharding/runspec pull in the whole
# cluster/simulator stack, which must not load just because core.search
# imported the runner.
_LAZY_EXPORTS = {
    **dict.fromkeys(
        ("EnsembleReport", "SimulationEnsemble", "run_replica", "aggregate_reports"), "ensemble"
    ),
    **dict.fromkeys(
        ("run_sharded", "shard_requests", "shard_deployment", "merge_shard_results"), "sharding"
    ),
    "RunSpec": "runspec",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        return getattr(importlib.import_module(f".{_LAZY_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
