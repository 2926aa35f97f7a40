"""The paper's configuration search: sweep batch and cluster size.

Section 4: *"We define the search criteria based on Splitwise's latency
requirements, with TTFT <= 1 s and TBT <= 50 ms constraints ... The search
sweeps all possible batch sizes and number of GPUs for each GPU type ...
For each GPU type, we plot the configuration with the highest throughput per
SM. Note that ... the search may return that running a model with less GPUs
than the maximum yields better throughput per SM."*

Implementation: for every valid tensor-parallel degree up to the GPU type's
Table-1 maximum, find the largest feasible batch (binary search — latency
and KV footprint are monotone in batch), evaluate a geometric grid of
batches below it for the frontier, and return the point maximizing
tokens/s/SM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import InfeasibleError, SimulationError, SpecError
from ..exec.runner import Job, run_many
from ..hardware.gpu import GPUSpec
from ..workloads.transformer import ModelSpec
from .inference import (
    DecodeWorkload,
    Phase,
    PhaseResult,
    PrefillWorkload,
    decode_iteration,
    prefill_pass,
)
from .parallelism import valid_tp_degrees
from .roofline import RooflinePolicy


@dataclass(frozen=True)
class SearchConstraints:
    """SLOs and sweep bounds (paper defaults)."""

    ttft_slo: float = 1.0
    tbt_slo: float = 0.050
    prompt_len: int = 1500
    context_len: int = 1750
    max_batch: int = 512

    def __post_init__(self) -> None:
        if self.ttft_slo <= 0 or self.tbt_slo <= 0:
            raise SpecError("SLOs must be positive")
        if self.prompt_len <= 0 or self.context_len <= 0:
            raise SpecError("sequence lengths must be positive")
        if self.max_batch <= 0:
            raise SpecError("max_batch must be positive")


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated configuration with its feasibility verdict."""

    n_gpus: int
    batch: int
    result: PhaseResult
    feasible: bool

    @property
    def tokens_per_s_per_sm(self) -> float:
        """Efficiency of this point."""
        return self.result.tokens_per_s_per_sm


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a search: the winning point and the explored frontier."""

    model: str
    gpu: str
    phase: Phase
    best: Optional[SweepPoint]
    frontier: tuple

    @property
    def feasible(self) -> bool:
        """Whether any feasible configuration exists."""
        return self.best is not None

    @property
    def best_tokens_per_s_per_sm(self) -> float:
        """Winning efficiency, or 0.0 if nothing is feasible."""
        return self.best.tokens_per_s_per_sm if self.best else 0.0

    def describe(self) -> str:
        """One-line summary for reports."""
        if not self.best:
            return f"{self.model} on {self.gpu} [{self.phase.value}]: infeasible"
        b = self.best
        return (
            f"{self.model} on {self.gpu} [{self.phase.value}]: "
            f"{b.tokens_per_s_per_sm:.2f} tok/s/SM at {b.n_gpus} GPUs, batch {b.batch} "
            f"(latency {b.result.latency * 1e3:.1f} ms)"
        )


def _batch_grid(limit: int) -> List[int]:
    """Geometric batch grid up to ``limit`` (the paper sweeps 'all possible
    batch sizes'; a geometric grid plus the exact feasibility boundary is
    equivalent for a monotone objective)."""
    grid: List[int] = []
    value = 1
    while value <= limit:
        grid.append(value)
        nxt = value * 3 // 2
        value = nxt if nxt > value else value + 1
    return grid


def _evaluate(
    phase: Phase,
    model: ModelSpec,
    gpu: GPUSpec,
    n_gpus: int,
    batch: int,
    constraints: SearchConstraints,
    policy: RooflinePolicy,
) -> SweepPoint:
    """Evaluate one point and apply SLO + memory feasibility."""
    if phase is Phase.PREFILL:
        result = prefill_pass(
            model, gpu, n_gpus, PrefillWorkload(batch, constraints.prompt_len), policy
        )
        slo_ok = result.latency <= constraints.ttft_slo
    else:
        result = decode_iteration(
            model, gpu, n_gpus, DecodeWorkload(batch, constraints.context_len), policy
        )
        slo_ok = result.latency <= constraints.tbt_slo
    return SweepPoint(
        n_gpus=n_gpus,
        batch=batch,
        result=result,
        feasible=slo_ok and result.fits_memory,
    )


def _max_feasible_batch(
    phase: Phase,
    model: ModelSpec,
    gpu: GPUSpec,
    n_gpus: int,
    constraints: SearchConstraints,
    policy: RooflinePolicy,
) -> int:
    """Largest feasible batch at this degree (0 if even batch=1 fails).

    Latency and the KV footprint are both nondecreasing in batch, so binary
    search is exact.
    """
    lo, hi = 1, constraints.max_batch
    if not _evaluate(phase, model, gpu, n_gpus, 1, constraints, policy).feasible:
        return 0
    if _evaluate(phase, model, gpu, n_gpus, hi, constraints, policy).feasible:
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _evaluate(phase, model, gpu, n_gpus, mid, constraints, policy).feasible:
            lo = mid
        else:
            hi = mid
    return lo


def search_best_config(
    model: ModelSpec,
    gpu: GPUSpec,
    phase: Phase | str,
    constraints: SearchConstraints | None = None,
    policy: RooflinePolicy | None = None,
    max_gpus: int | None = None,
) -> SearchResult:
    """Run the paper's search for one (model, GPU type, phase).

    >>> from repro.workloads import LLAMA3_70B
    >>> from repro.hardware import H100
    >>> res = search_best_config(LLAMA3_70B, H100, "decode")
    >>> res.feasible
    True
    """
    if isinstance(phase, str):
        phase = Phase(phase)
    constraints = constraints or SearchConstraints()
    policy = policy or RooflinePolicy()
    limit = max_gpus or gpu.max_cluster
    degrees = valid_tp_degrees(model, limit, gpu.scaleup_domain)
    frontier: List[SweepPoint] = []
    best: Optional[SweepPoint] = None
    for degree in degrees:
        try:
            b_max = _max_feasible_batch(phase, model, gpu, degree, constraints, policy)
        except InfeasibleError:
            continue
        if b_max == 0:
            continue
        batches = sorted({b for b in _batch_grid(b_max)} | {b_max})
        for batch in batches:
            point = _evaluate(phase, model, gpu, degree, batch, constraints, policy)
            frontier.append(point)
            if point.feasible and (best is None or point.tokens_per_s_per_sm > best.tokens_per_s_per_sm):
                best = point
    return SearchResult(
        model=model.name,
        gpu=gpu.name,
        phase=phase,
        best=best,
        frontier=tuple(frontier),
    )


def search_many(
    models: Sequence[ModelSpec],
    gpus: Sequence[GPUSpec],
    phase: Phase | str,
    constraints: SearchConstraints | None = None,
    policy: RooflinePolicy | None = None,
    *,
    workers: int = 1,
) -> dict:
    """Search every (model, gpu) pair; returns {(model, gpu): SearchResult}.

    This is the engine behind both Figure 3 panels.  Each (model, gpu)
    search is an independent pure evaluation, so ``workers=N`` fans the
    pairs across a process pool via :func:`repro.exec.runner.run_many`
    with results identical to the serial sweep.
    """
    pairs = [(model, gpu) for model in models for gpu in gpus]
    jobs = [
        Job(
            fn=search_best_config,
            args=(model, gpu, phase, constraints, policy),
            label=f"{model.name}/{gpu.name}",
        )
        for model, gpu in pairs
    ]
    outcomes = run_many(jobs, workers=workers)
    results = {}
    for (model, gpu), outcome in zip(pairs, outcomes):
        if not outcome.ok:
            # Searches handle infeasibility internally; anything escaping
            # a worker is a genuine bug and must not be silently skipped.
            raise SimulationError(f"search failed for {outcome.label}: {outcome.error}")
        results[(model.name, gpu.name)] = outcome.value
    return results
