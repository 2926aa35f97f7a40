"""Parallel experiment runner: fan jobs across processes, deterministically.

The sweep/search/ensemble layers all reduce to the same shape of work — a
list of independent pure function calls — so they share one executor:

- :class:`Job` — a picklable unit of work with an optional cache key;
- :func:`run_many` — execute jobs in order-preserving fashion, either
  in-process (``workers=1``, zero overhead, no pickling requirement) or
  across a ``multiprocessing`` pool, consulting a
  :class:`~repro.exec.cache.ResultCache` before dispatch and populating it
  after.

Determinism: results come back in job-list order regardless of worker
scheduling, every job carries its own derived seed (see
:mod:`repro.exec.seeding`), and the simulators themselves are pure
functions of their inputs — so ``workers=4`` is bit-identical to
``workers=1`` (asserted in the tier-1 suite).

Failure isolation: a job that raises is captured as a
:class:`JobOutcome` with ``error`` set instead of aborting its siblings;
callers choose whether to surface or skip errored points.

Shared service-time memos: each call runs its jobs inside a
:class:`~repro.cluster.engine.shared_service_memos` scope — around the
in-process jobs, and in each pool worker for the pool's lifetime — so the
simulators of one sweep, screen or sharded run evaluate each roofline
point once per process, not once per simulator.

Pool start-up: workers fork with the parent's heap frozen, so their
garbage collector does not copy it, and each starts on an allowed CPU of
its own instead of on its parent's (see :func:`_start_pool` and
:func:`_place_on_cpu`).
"""

from __future__ import annotations

import gc
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import SpecError
from .cache import MISS, ResultCache

__all__ = ["Job", "JobOutcome", "effective_workers", "run_many"]


def effective_workers(workers: int) -> int:
    """Clamp a requested worker count to the CPUs this process may use.

    A process pool wider than the available cores cannot speed anything up
    — on a 1-core box it *loses* to the serial path on fork/pickle
    overhead (the 0.9x "speedup" BENCH_sweep.json used to report).  Uses
    the scheduler affinity mask where the platform exposes it (a container
    may be pinned to fewer CPUs than ``os.cpu_count`` reports).

    >>> effective_workers(1)
    1
    """
    if workers < 1:
        raise SpecError("workers must be at least 1")
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        cores = os.cpu_count() or 1
    return max(1, min(workers, cores))


@dataclass(frozen=True)
class Job:
    """One unit of work.

    ``fn`` must be a module-level callable (and ``args``/``kwargs``
    picklable) when the job is to run under ``workers > 1``; in-process
    execution has no such constraint.  ``key`` is the job's cache identity
    (``None`` = never cached); ``label`` is a human tag carried into the
    outcome for tables and logs.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    key: Optional[str] = None
    label: str = ""


@dataclass
class JobOutcome:
    """What happened to one job: a value or an error, and where it came from."""

    value: Any = None
    error: Optional[str] = None
    cached: bool = False
    label: str = ""

    @property
    def ok(self) -> bool:
        """Whether the job produced a value."""
        return self.error is None


def _place_on_cpu(slot: int) -> None:
    """Move this process onto the ``slot``-th allowed CPU, then unpin it.

    A forked pool worker starts on its parent's CPU, and the kernel does not
    always move it off: on a 2-vCPU VM (Linux 6.18) both workers of a
    2-process pool ran whole sweeps on one CPU while the other idled, so the
    pool ran at serial speed.  Briefly pinning worker ``slot`` to a CPU of its
    own spreads the workers from the first job; restoring the full mask
    leaves the kernel free to move them afterwards.
    """
    try:
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {allowed[slot % len(allowed)]})
        os.sched_setaffinity(0, allowed)
    except (AttributeError, OSError):  # pragma: no cover - no affinity API
        pass


def _start_worker(slots) -> None:
    """Pool initializer: take a CPU slot, and share memos until exit."""
    from ..cluster.engine import shared_service_memos  # local: cluster imports exec

    with slots.get_lock():
        slot = slots.value
        slots.value += 1
    _place_on_cpu(slot)
    shared_service_memos().__enter__()


def _start_pool(processes: int):
    """Fork a pool of ``processes`` workers with the parent's heap frozen.

    A forked worker's first full garbage collection walks every object it
    inherited and writes to each one's header, so it copies most of the
    parent's heap page by page before its first job.  In a 90 MB test-suite
    process that held the first job back by 60–90 ms and slowed the
    workers' jobs too.  :func:`gc.freeze` around the fork moves the parent's
    objects into a generation the workers' collector skips; the parent
    unfreezes them once the workers exist, and leaves alone a heap that its
    caller froze.
    """
    context = multiprocessing.get_context()
    slots = context.Value("i", 0)
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    try:
        return context.Pool(processes, initializer=_start_worker, initargs=(slots,))
    finally:
        if freeze:
            gc.unfreeze()


def _execute(job: Job) -> Tuple[Any, Optional[str]]:
    """Run one job, capturing any exception as ``(None, "Type: message")``."""
    try:
        return job.fn(*job.args, **job.kwargs), None
    except Exception as exc:  # noqa: BLE001 - isolation is the contract
        return None, f"{type(exc).__name__}: {exc}"


def run_many(
    jobs: Iterable[Job],
    workers: int = 1,
    cache: Optional[ResultCache] = None,
) -> List[JobOutcome]:
    """Execute ``jobs``; outcomes align 1:1 with the input order.

    With a ``cache``, keyed jobs are looked up first and only the misses
    are dispatched; successful miss results are stored back (values the
    cache codec cannot encode are silently left uncached).  ``workers`` is
    clamped to :func:`effective_workers` (available CPUs) and then to the
    number of pending jobs; when the effective count is 1 the jobs run
    in-process — no pool, no pickling, no fork overhead.

    Service-time providers built by the jobs share one memo per
    :class:`~repro.cluster.scheduler.InstanceSpec` for the length of the
    call (in-process) or of the pool (in each worker); the table is freed
    when the call returns.  An inner ``run_many`` reuses the outer call's
    table.  This is exact, because a memo value depends only on the spec
    and its key (see :class:`~repro.cluster.engine.ServiceTimeProvider`).

    >>> outcomes = run_many([Job(fn=abs, args=(-3,)), Job(fn=abs, args=(4,))])
    >>> [o.value for o in outcomes]
    [3, 4]
    """
    jobs = list(jobs)
    workers = effective_workers(workers)
    outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
    pending: List[int] = []
    for i, job in enumerate(jobs):
        if cache is not None and job.key is not None:
            value = cache.get(job.key)
            if value is not MISS:
                outcomes[i] = JobOutcome(value=value, cached=True, label=job.label)
                continue
        pending.append(i)
    if pending:
        todo = [jobs[i] for i in pending]
        if workers == 1 or len(todo) == 1:
            from ..cluster.engine import shared_service_memos  # local: cluster imports exec

            with shared_service_memos():
                results = [_execute(job) for job in todo]
        else:
            # chunksize=1: experiment jobs are coarse (whole simulations),
            # so per-task dispatch overhead is noise and load balance wins.
            with _start_pool(min(workers, len(todo))) as pool:
                results = pool.map(_execute, todo, chunksize=1)
        for i, (value, error) in zip(pending, results):
            outcomes[i] = JobOutcome(value=value, error=error, label=jobs[i].label)
            if error is None and cache is not None and jobs[i].key is not None:
                cache.put(jobs[i].key, value)
    return outcomes  # type: ignore[return-value]  # every slot is filled
