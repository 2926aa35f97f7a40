"""Replicated serving simulations with seed-derived failure schedules.

A single failure-seeded simulation is one draw from a stochastic process;
the paper's availability arguments (Section 3) are about *distributions* —
how much throughput a deployment keeps across many failure realizations.
:class:`SimulationEnsemble` runs ``n_replicas`` copies of one deployment
spec, each with an independent failure seed derived from a base seed
(:func:`repro.exec.seeding.derive_seed`), fans them across workers via
:func:`repro.exec.runner.run_many`, and aggregates the replica
:class:`~repro.cluster.simulator.SimReport` rows into an
:class:`EnsembleReport`: a mean report plus a 95% confidence half-width
per metric.

Replica results are cacheable: give :meth:`SimulationEnsemble.run` a
:class:`~repro.exec.cache.ResultCache` and repeated runs of the same
(spec, trace, seed) skip straight to aggregation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple, Union

from ..cluster.failures import FailureModel
from ..cluster.policies import PolicyBundle
from ..cluster.scheduler import ColocatedPool, PhasePools
from ..cluster.simulator import SimConfig, SimReport, simulator_for
from ..errors import SimulationError, SpecError
from ..workloads.traces import Request, trace_fingerprint
from .cache import ResultCache
from .runner import Job, run_many
from .seeding import derive_seed

__all__ = ["EnsembleReport", "SimulationEnsemble", "run_replica"]

# 97.5th normal quantile: two-sided 95% interval on the replica mean.
_Z95 = 1.959963984540054

Deployment = Union[PhasePools, ColocatedPool]


def run_replica(
    deployment: Deployment,
    config: Optional[SimConfig],
    policies: "PolicyBundle | str | None",
    failure_model: Optional[FailureModel],
    failure_seed: int,
    trace: Tuple[Request, ...],
) -> SimReport:
    """Run one failure-seeded replica (module-level: picklable for workers)."""
    simulator = simulator_for(deployment)(
        deployment, config,
        policies=policies, failure_model=failure_model, failure_seed=failure_seed,
    )
    return simulator.run(list(trace))


@dataclass(frozen=True)
class EnsembleReport:
    """Replica-aggregated outcome: mean metrics with 95% confidence bounds.

    ``mean``/``lo``/``hi`` are :class:`SimReport` rows whose fields are the
    per-metric replica mean and the normal-approximation 95% interval
    endpoints (``mean ± 1.96 · s/√n``; zero-width at one replica).  Count
    fields are means too — fractional values are meaningful there (expected
    restarts per realization).  ``reports`` keeps every replica for
    distribution-level analysis.
    """

    mean: SimReport
    lo: SimReport
    hi: SimReport
    n_replicas: int
    seeds: Tuple[int, ...]
    reports: Tuple[SimReport, ...]

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        return (
            f"ensemble of {self.n_replicas} replicas:\n"
            f"  completed {self.mean.completed:.1f} "
            f"[{self.lo.completed:.1f}, {self.hi.completed:.1f}]\n"
            f"  TTFT p99 {self.mean.ttft_p99 * 1e3:.0f} ms "
            f"[{self.lo.ttft_p99 * 1e3:.0f}, {self.hi.ttft_p99 * 1e3:.0f}]\n"
            f"  out tok/s {self.mean.output_tokens_per_s:.0f} "
            f"[{self.lo.output_tokens_per_s:.0f}, {self.hi.output_tokens_per_s:.0f}]\n"
            f"  restarts {self.mean.restarted_requests:.1f} "
            f"[{self.lo.restarted_requests:.1f}, {self.hi.restarted_requests:.1f}]"
        )


def aggregate_reports(reports: Sequence[SimReport], seeds: Sequence[int]) -> EnsembleReport:
    """Fold replica reports into mean / 95%-CI :class:`SimReport` rows."""
    if not reports:
        raise SpecError("cannot aggregate zero replica reports")
    n = len(reports)
    mean_fields, lo_fields, hi_fields = {}, {}, {}
    for spec_field in fields(SimReport):
        if spec_field.name == "backend":
            # Provenance is categorical, not averageable; replicas of one
            # ensemble always share a backend (mixing would be a bug).
            backends = {report.backend for report in reports}
            if len(backends) > 1:
                raise SpecError(f"cannot aggregate mixed backends {sorted(backends)}")
            mean_fields["backend"] = lo_fields["backend"] = hi_fields["backend"] = reports[
                0
            ].backend
            continue
        values = [float(getattr(report, spec_field.name)) for report in reports]
        if all(v == values[0] for v in values):
            # Identical replicas (e.g. failure-free runs): keep the exact
            # value rather than fsum(n·v)/n, whose last ulp can drift.
            mean, half = values[0], 0.0
        elif any(math.isnan(v) for v in values):
            mean = half = float("nan")
        else:
            mean = math.fsum(values) / n
            variance = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
            half = _Z95 * math.sqrt(variance / n)
        mean_fields[spec_field.name] = mean
        lo_fields[spec_field.name] = mean - half
        hi_fields[spec_field.name] = mean + half
    return EnsembleReport(
        mean=SimReport(**mean_fields),
        lo=SimReport(**lo_fields),
        hi=SimReport(**hi_fields),
        n_replicas=n,
        seeds=tuple(seeds),
        reports=tuple(reports),
    )


class SimulationEnsemble:
    """``n_replicas`` runs of one deployment spec under independent failures.

    The deployment may be a :class:`PhasePools` (phase-split) or a
    :class:`ColocatedPool`.  ``policies`` should be a registry *name* when
    replicas run under ``workers > 1`` (names travel to workers cheaply and
    rebuild fresh stateful policies per replica); bundle instances work too
    as long as they pickle.

    >>> # see tests/exec/test_ensemble.py for an end-to-end run
    """

    def __init__(
        self,
        deployment: Deployment,
        config: Optional[SimConfig] = None,
        *,
        policies: "PolicyBundle | str | None" = None,
        failure_model: Optional[FailureModel] = None,
        base_seed: int = 0,
        n_replicas: int = 8,
    ) -> None:
        simulator_for(deployment)  # rejects anything but the two shapes
        if n_replicas < 1:
            raise SpecError("n_replicas must be at least 1")
        self.deployment = deployment
        self.config = config
        self.policies = policies
        self.failure_model = failure_model
        self.base_seed = base_seed
        self.n_replicas = n_replicas

    def replica_seeds(self) -> List[int]:
        """The derived failure seed of every replica, in replica order."""
        return [derive_seed(self.base_seed, "replica", i) for i in range(self.n_replicas)]

    def _policy_tag(self) -> str:
        if isinstance(self.policies, PolicyBundle):
            return self.policies.describe()
        return str(self.policies)

    def run(
        self,
        trace: Sequence[Request],
        workers: int = 1,
        cache: Optional[ResultCache] = None,
    ) -> EnsembleReport:
        """Run every replica (optionally parallel/cached) and aggregate."""
        seeds = self.replica_seeds()
        frozen_trace = tuple(trace)
        fingerprint = trace_fingerprint(frozen_trace) if cache is not None else None
        jobs = []
        for replica, seed in enumerate(seeds):
            key = None
            if cache is not None:
                key = cache.key(
                    "ensemble-replica",
                    repr(self.deployment),
                    repr(self.config),
                    self._policy_tag(),
                    repr(self.failure_model),
                    seed,
                    fingerprint,
                )
            jobs.append(
                Job(
                    fn=run_replica,
                    args=(
                        self.deployment, self.config, self.policies,
                        self.failure_model, seed, frozen_trace,
                    ),
                    key=key,
                    label=f"replica {replica} (seed {seed})",
                )
            )
        outcomes = run_many(jobs, workers=workers, cache=cache)
        failed = [o for o in outcomes if not o.ok]
        if failed:
            raise SimulationError(
                f"{len(failed)}/{len(outcomes)} replicas failed; first: "
                f"{failed[0].label}: {failed[0].error}"
            )
        return aggregate_reports([o.value for o in outcomes], seeds)
