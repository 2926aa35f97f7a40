"""Generic discrete-event core of the serving simulator.

The seed simulator was one 356-line ``run()`` with closure-bound state and
hardcoded FCFS decisions.  This module is the refactored engine room:

- :class:`EventQueue` — a time-ordered heap with FIFO tie-breaking, so
  same-timestamp events replay in push order (determinism);
- instance state machines (:class:`PrefillState`, :class:`DecodeState`,
  :class:`ColocatedState`) — plain data advanced by the engines;
- :class:`ServiceTimeProvider` — a memoizing oracle over the analytical
  roofline model.  Every decode iteration used to re-run the full model;
  caching on ``(batch, context-bucket)`` keys removes that from the hot
  path (``context_bucket=1`` keeps results bit-exact, coarser buckets trade
  ≤ one bucket of context for large wall-clock wins);
- :class:`shared_service_memos` — a sharing scope: while it is open,
  providers for equal :class:`InstanceSpec` values share one memo table,
  so the many simulators of a sweep, screen or sharded run evaluate each
  roofline point once.  :func:`repro.exec.runner.run_many` opens it for
  the length of each call; outside a scope every provider starts from an
  empty memo;
- :class:`PhaseSplitEngine` and :class:`ColocatedEngine` — the two
  deployment shapes, both driven by a :class:`repro.cluster.policies`
  bundle instead of baked-in scheduling, over one shared event loop,
  request lifecycle and decode-tick core.

A decode *tick* is an instance's iteration plus, at its finish, the admit
that offers the queue and re-arms the instance.  Each engine runs an
instance's ticks as a loop inside one handler: a step runs inline when it
lies inside the horizon and :meth:`EventQueue.due_by` finds no pending
event due at or before its time, which is exactly when its event would pop
next (a pending event at the same time has the smaller sequence number).
Otherwise the step is pushed where an engine with one heap event per step
pushes it.  Sequence numbers only break ties, so skipping a push leaves
every other event's order, and every report, unchanged.

With the default ``"fcfs"`` bundle and ``context_bucket=1``,
:class:`PhaseSplitEngine` reproduces the seed simulator event-for-event
and float-for-float on failure-free runs (golden-pinned in
``benchmarks/test_serving_simulation.py``).  Failure handling is
deliberately *better* than the seed: victims requeued after the arrival
stream ends are re-dispatched immediately instead of stranding, and
overlapping failures extend an outage rather than truncating it.
"""

from __future__ import annotations

import abc
import contextvars
import copy
import heapq
import itertools
import math
from array import array
from collections import deque
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.chunked import MixedIteration, mixed_iteration_time
from ..errors import SimulationError, SpecError
from ..hardware.power import DVFSCurve
from ..network.collectives import Collective, cost_for
from ..network.topology import Topology
from ..network.traffic import congestion_slowdown
from ..workloads.traces import Request
from .control import ClusterController, ControlAction, ControlObservation, PoolStats
from .policies import PolicyBundle
from .scheduler import ColocatedPool, InstanceSpec, PhasePools

__all__ = [
    "EventQueue",
    "AbstractServiceTimeProvider",
    "ServiceTimeProvider",
    "NetworkAwareServiceTimeProvider",
    "ActiveSequence",
    "PrefillState",
    "DecodeState",
    "PartialPrefill",
    "ColocatedState",
    "CompletedRequest",
    "PhaseSplitEngine",
    "ColocatedEngine",
]

#: Event kinds that are pure bookkeeping: they must not advance the
#: reported workload clock (``work_time``) — a controller epoch or a
#: repair on an idle cluster would otherwise dilute every
#: duration-normalized metric.
_BOOKKEEPING_EVENTS = frozenset({"failure", "recovered", "controller", "spawn_ready"})

#: Floor on a decode (or mixed) iteration's latency, in seconds: it guards
#: the tick loops against zero-length iterations.
MIN_DECODE_INTERVAL = 1e-4


def require_kv_headroom(instance: InstanceSpec, pool_label: str) -> int:
    """Return the instance's KV token capacity, raising if it has none.

    The single source of the fail-fast guard used by both the simulators
    (at construction) and the engines (at run setup).
    """
    capacity = instance.kv_token_capacity()
    if capacity <= 0:
        raise SpecError(f"{pool_label} instances have no KV capacity headroom")
    return capacity


class EventQueue:
    """A time-ordered event heap with FIFO tie-breaking.

    Events pushed at the same timestamp pop in push order (a monotonically
    increasing sequence number breaks ties), which makes every simulation a
    pure function of its inputs.  :meth:`due_by` lets an engine run an
    event inline instead of pushing it when it would pop next anyway.

    >>> q = EventQueue()
    >>> q.push(2.0, "b"); q.push(1.0, "a"); q.push(1.0, "c")
    >>> [q.pop()[1] for _ in range(len(q))]
    ['a', 'c', 'b']
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, str, tuple]] = []
        self._seq = itertools.count()

    def push(self, time: float, kind: str, payload: tuple = ()) -> None:
        """Schedule an event."""
        heapq.heappush(self._heap, (time, next(self._seq), kind, payload))

    def pop(self) -> Tuple[float, str, tuple]:
        """Remove and return the earliest event as ``(time, kind, payload)``."""
        time, _, kind, payload = heapq.heappop(self._heap)
        return time, kind, payload

    def due_by(self, time: float) -> bool:
        """True when a pending event is due at or before ``time``.

        When False, an event pushed now at ``time`` would pop next.
        """
        heap = self._heap
        return bool(heap) and heap[0][0] <= time

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class AbstractServiceTimeProvider(abc.ABC):
    """The engines' service-time oracle interface.

    Implementations answer "how long does one batch/iteration take on
    instance ``instance`` of this pool?".  The baseline
    :class:`ServiceTimeProvider` ignores ``instance`` (every instance of a
    pool is identical when the network is not modeled);
    :class:`NetworkAwareServiceTimeProvider` uses it to price each
    instance's collectives from its *placed* GPU group.

    Providers also carry the control plane's **DVFS frequency scalar**:
    :meth:`set_frequency` stretches every GPU-bound latency by ``1/f``
    (throughput assumed linear in clock).  The default ``f = 1.0`` divides
    by exactly one, so controller-free runs stay bit-identical.
    """

    _frequency: float = 1.0

    def set_frequency(self, scalar: float) -> None:
        """Set the DVFS clock scalar applied to GPU-bound latencies."""
        if scalar <= 0:
            raise SpecError("frequency scalar must be positive")
        self._frequency = float(scalar)

    @property
    def frequency(self) -> float:
        """The current DVFS clock scalar (1.0 = base clock)."""
        return self._frequency

    @abc.abstractmethod
    def prefill_time(self, batch: int, prompt_len: int, instance: int = 0) -> float:
        """Latency of one prefill batch."""

    @abc.abstractmethod
    def decode_time(self, batch: int, context_len: int, instance: int = 0) -> float:
        """Latency of one decode iteration."""

    @abc.abstractmethod
    def mixed_time(
        self, decode_batch: int, context_len: int, chunk: int, prompt_len: int,
        instance: int = 0,
    ) -> float:
        """Latency of one SARATHI-style mixed decode+chunk iteration."""

    @abc.abstractmethod
    def cache_info(self) -> Dict[str, int]:
        """Hit/miss counters (for benchmarks/tests)."""


#: The open sharing scope's memo tables, one per distinct InstanceSpec
#: (None outside a scope).
_SHARED_MEMOS: contextvars.ContextVar[Optional[Dict[InstanceSpec, Dict[tuple, float]]]] = (
    contextvars.ContextVar("shared_service_memos", default=None)
)


class shared_service_memos:
    """Scope in which providers of equal :class:`InstanceSpec` share a memo.

    While a scope is open, every :class:`ServiceTimeProvider` built takes
    its memo from a table keyed by its spec instead of starting empty.  The
    scope is re-entrant: an inner scope (a ``run_many`` inside a sweep
    point) keeps the outer table, and only the outermost exit drops it.
    The table lives in a :class:`contextvars.ContextVar`: each thread and
    process has its own, and a forked pool worker starts from a copy of
    its parent's.
    """

    def __enter__(self) -> None:
        outer = _SHARED_MEMOS.get() is not None
        self._token = None if outer else _SHARED_MEMOS.set({})

    def __exit__(self, *exc_info) -> None:
        if self._token is not None:
            _SHARED_MEMOS.reset(self._token)


class ServiceTimeProvider(AbstractServiceTimeProvider):
    """Memoizing service-time oracle for one :class:`InstanceSpec`.

    The analytical model is pure, so identical ``(batch, context)`` queries
    always yield identical latencies — yet the seed simulator re-evaluated
    the full roofline every decode iteration, which dominated long-trace
    wall-clock.  This provider caches evaluations keyed on the batch and a
    *context bucket*: with ``context_bucket=1`` results are bit-exact; with
    a coarser bucket the context is rounded **up** to the next bucket edge
    (a conservative latency estimate) and the hit rate soars.

    Inside a :class:`shared_service_memos` scope the memo is shared with
    every provider built in the scope for an equal spec, until the scope
    closes; outside one, each provider starts empty.  Sharing is exact: a
    memo value is a pure function of the frozen spec and its key, the key
    holds the *bucketed* lengths (so providers with different buckets
    agree on every key), and values are base-clock latencies (the DVFS
    scalar is applied per provider on the way out).  The ``hits`` and
    ``misses`` counters stay per provider, while ``cache_info()["entries"]``
    counts the shared table.

    Only :meth:`mixed_time` has a flat hit path (the lengths bucketed
    inline, one ``dict.get``, no closure); :meth:`prefill_time` and
    :meth:`decode_time` still go through :meth:`_bucket` and :meth:`_memo`.
    Those two run on the phase-split engine, whose every-tick-on-the-heap
    replay ``benchmarks/test_perf_fluid.py::test_fluid_point_speedup``
    divides by a fluid point's time: a cheaper tick there lowers that gated
    ratio, so flattening them waits until the gate times fluid on its own.
    """

    def __init__(self, instance: InstanceSpec, context_bucket: int = 1) -> None:
        if context_bucket < 1:
            raise SpecError("context_bucket must be at least 1")
        self.instance = instance
        self.context_bucket = int(context_bucket)
        tables = _SHARED_MEMOS.get()
        self._cache: Dict[tuple, float] = {} if tables is None else tables.setdefault(instance, {})
        self.hits = 0
        self.misses = 0

    def _bucket(self, length: int) -> int:
        length = max(1, int(length))
        b = self.context_bucket
        if b == 1:
            return length
        return ((length + b - 1) // b) * b

    def _memo(self, key: tuple, compute) -> float:
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        value = compute()
        self._cache[key] = value
        return value

    def prefill_time(self, batch: int, prompt_len: int, instance: int = 0) -> float:
        """Latency of one prefill batch (prompt length bucketed)."""
        prompt = self._bucket(prompt_len)
        # The memo stores base-clock latencies; the DVFS scalar is applied
        # on the way out so frequency changes never thrash the cache.
        return self._memo(
            ("p", batch, prompt), lambda: self.instance.prefill_time(batch, prompt)
        ) / self._frequency

    def decode_time(self, batch: int, context_len: int, instance: int = 0) -> float:
        """Latency of one decode iteration (context bucketed)."""
        context = self._bucket(context_len)
        return self._memo(
            ("d", batch, context), lambda: self.instance.decode_time(batch, context)
        ) / self._frequency

    def mixed_time(
        self, decode_batch: int, context_len: int, chunk: int, prompt_len: int,
        instance: int = 0,
    ) -> float:
        """Latency of one SARATHI-style mixed decode+chunk iteration.

        The same bucketing and memo as :meth:`_bucket`/:meth:`_memo`, written
        out flat: a colocated engine asks once per iteration, so a hit costs
        one ``dict.get`` and no helper call or closure.
        """
        context = int(context_len)
        if context < 1:
            context = 1
        prompt = int(prompt_len)
        if prompt < 1:
            prompt = 1
        b = self.context_bucket
        if b != 1:
            context = ((context + b - 1) // b) * b
            prompt = ((prompt + b - 1) // b) * b
        key = ("m", decode_batch, context, chunk, prompt)
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached / self._frequency
        self.misses += 1
        spec = self.instance
        iteration = MixedIteration(
            decode_batch=decode_batch, context_len=context, chunk=chunk, prompt_len=prompt
        )
        # Called through this module's global, so a wrapper installed as
        # ``engine.mixed_iteration_time`` sees every miss.
        value = mixed_iteration_time(
            spec.model, spec.gpu, spec.n_gpus, iteration, spec.policy
        ).iteration_time
        self._cache[key] = value
        return value / self._frequency

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss counters and resident entries (for benchmarks/tests)."""
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._cache)}


class NetworkAwareServiceTimeProvider(ServiceTimeProvider):
    """Service times that include *placed* collective costs on a fabric.

    The analytical roofline already charges tensor-parallel collectives at
    the GPU's nominal mesh/net bandwidth — the ideal, placement-blind
    figure.  This provider adds the *fabric overlay*: what the cluster
    network charges on top, given where the instance's TP group actually
    landed on the topology.  Per iteration it prices the two Megatron
    all-reduces per layer (:func:`repro.network.collectives.cost_for`) at

    - the topology's per-GPU injection bandwidth (derated by the policy's
      ``net_efficiency``),
    - an alpha scaled by the group's worst pairwise hop count
      (:meth:`~repro.network.topology.Topology.hop_count`), and
    - a link-contention multiplier from the group's ring traffic matrix
      (:func:`repro.network.traffic.congestion_slowdown`).

    Packed placements (TP groups inside one direct-connect group / leaf)
    therefore beat scattered ones on the same deployment — the co-design
    signal the paper's Section 3 is after.  Groups of one GPU pay nothing.

    Only the base roofline memo is shared inside a
    :class:`shared_service_memos` scope; the overhead memo depends on the
    placement, so it stays per provider.
    """

    def __init__(
        self,
        instance: InstanceSpec,
        topology: Topology,
        groups: Sequence[Tuple[int, ...]],
        context_bucket: int = 1,
    ) -> None:
        super().__init__(instance, context_bucket)
        if not groups:
            raise SpecError("network-aware provider needs at least one placed group")
        for group in groups:
            if len(group) != instance.n_gpus:
                raise SpecError(
                    f"placed group width {len(group)} != instance TP degree {instance.n_gpus}"
                )
        self.topology = topology
        self.groups = tuple(tuple(g) for g in groups)
        # Per-group fabric parameters, deduplicated: packed placements give
        # every instance an identical (hops, contention) signature, so the
        # overhead memo below collapses to one entry per distinct signature.
        self._params: List[Tuple[int, int, float, float]] = []
        bandwidth = topology.per_gpu_bandwidth * instance.policy.net_efficiency
        for group in self.groups:
            world = len(group)
            if world == 1:
                self._params.append((1, 0, 1.0, bandwidth))
                continue
            max_hops = max(
                topology.hop_count(a, b) for i, a in enumerate(group) for b in group[i + 1 :]
            )
            slowdown = max(1.0, congestion_slowdown(topology, self._ring_matrix(group)))
            self._params.append((world, max_hops, slowdown, bandwidth))
        self._overhead_cache: Dict[tuple, float] = {}

    def _ring_matrix(self, group: Tuple[int, ...]) -> np.ndarray:
        """Ring-collective demand over the placed group (nominal volume)."""
        n = self.topology.n_gpus
        matrix = np.zeros((n, n))
        nominal = 1e9  # scale-free: congestion_slowdown normalizes it away
        for i, src in enumerate(group):
            matrix[src, group[(i + 1) % len(group)]] = nominal
        return matrix

    def fabric_info(self) -> List[Dict[str, float]]:
        """Per-instance fabric parameters (for tests and reports)."""
        return [
            {"world": w, "max_hops": h, "contention": c, "bandwidth": bw}
            for w, h, c, bw in self._params
        ]

    def _fabric_overhead(self, instance: int, tokens: int) -> float:
        """Fabric collective time for one pass moving ``tokens`` activations."""
        if not 0 <= instance < len(self._params):
            raise SpecError(f"instance index {instance} out of placed range")
        world, max_hops, slowdown, bandwidth = self._params[instance]
        if world == 1 or tokens <= 0:
            return 0.0
        key = (world, max_hops, slowdown, tokens)
        cached = self._overhead_cache.get(key)
        if cached is not None:
            return cached
        spec = self.instance
        size = tokens * spec.model.hidden * spec.policy.act_bytes
        alpha = spec.policy.alpha * max(1, max_hops)
        per_layer = cost_for(Collective.ALL_REDUCE, size, world, bandwidth, alpha).time
        overhead = 2.0 * spec.model.layers * per_layer * slowdown
        self._overhead_cache[key] = overhead
        return overhead

    def prefill_time(self, batch: int, prompt_len: int, instance: int = 0) -> float:
        base = super().prefill_time(batch, prompt_len)
        return base + self._fabric_overhead(instance, batch * self._bucket(prompt_len))

    def decode_time(self, batch: int, context_len: int, instance: int = 0) -> float:
        base = super().decode_time(batch, context_len)
        return base + self._fabric_overhead(instance, batch)

    def mixed_time(
        self, decode_batch: int, context_len: int, chunk: int, prompt_len: int,
        instance: int = 0,
    ) -> float:
        base = super().mixed_time(decode_batch, context_len, chunk, prompt_len)
        return base + self._fabric_overhead(instance, decode_batch + chunk)

    def cache_info(self) -> Dict[str, int]:
        """Base-model memo counters plus the fabric-overhead memo size."""
        info = super().cache_info()
        info["entries"] += len(self._overhead_cache)
        info["overhead_entries"] = len(self._overhead_cache)
        return info


# --- instance state machines ------------------------------------------------


def _available(state, time: float) -> bool:
    """Can this instance be offered new work at ``time``?"""
    return (
        not state.retired
        and not state.draining
        and time >= state.up_from
        and time >= state.down_until
    )


@dataclass
class ActiveSequence:
    """A sequence resident in a decode (or colocated) instance.

    Every resident sequence of an instance experiences the same iterations,
    so the instance keeps one shared iteration log and each sequence only
    remembers ``start_iter`` — the instance iteration count at admission.
    Its generated-token count is always ``iter_count - start_iter``, its
    per-token latencies are the log tail from ``start_iter``, and it
    completes when the count reaches ``start_iter + output_tokens``, at
    context ``request.total_tokens``.
    """

    request: Request
    start_iter: int = 0


@dataclass
class _Lifecycle:
    """The lifecycle block every instance state carries.

    Maintained by the engines' control plane:

    - ``spawned_at`` / ``up_from`` — when the instance was provisioned and
      when its warm-up (weight load) completes; work is only offered from
      ``up_from`` on, but GPU-seconds accrue from ``spawned_at`` (the
      provisioning cost of a scale-up);
    - ``down_until`` — the end of the current failure outage;
    - ``draining`` — no new work; resident sequences finish;
    - ``retired`` / ``retired_at`` — the instance released its GPUs;
    - ``busy_time`` / ``energy_busy`` — busy seconds, and busy seconds
      weighted by the DVFS power ratio in effect when each batch ran (the
      integrand of the energy accounting).
    """

    down_until: float = 0.0
    busy_time: float = 0.0
    spawned_at: float = 0.0
    up_from: float = 0.0
    draining: bool = False
    retired: bool = False
    retired_at: float = math.inf
    energy_busy: float = 0.0


@dataclass
class PrefillState(_Lifecycle):
    """One prefill instance: either idle, running a batch, or down."""

    busy: bool = False

    #: A prefill batch hands its KV state on to decode, so an instance
    #: holds none between batches.
    occupied = 0

    def has_work(self) -> bool:
        return self.busy


@dataclass
class DecodeState(_Lifecycle):
    """One decode instance running continuous batching.

    ``occupied`` (final KV footprints of resident sequences) and
    ``context_sum`` (sum of their current context lengths) are maintained
    incrementally by the engine — integer arithmetic, so they are exactly
    the sums the seed recomputed by scanning ``active`` on every event.

    ``iter_log`` is the latency of every iteration this instance ran
    (pruned below the oldest resident ``start_iter``, with ``log_base``
    tracking the prune offset), ``iter_count`` the lifetime iteration
    count, and ``due`` maps a future iteration count to the sequences
    completing exactly there — a sequence admitted at count ``c`` with
    ``n`` output tokens finishes when the count reaches ``c + n``, so the
    per-tick completion scan is one dict pop instead of a walk over the
    whole batch.
    """

    active: List[ActiveSequence] = field(default_factory=list)
    busy_until: float = 0.0
    running: bool = False
    occupied: int = 0
    context_sum: int = 0
    iter_log: array = field(default_factory=lambda: array("d"))
    log_base: int = 0
    iter_count: int = 0
    due: Dict[int, List[ActiveSequence]] = field(default_factory=dict)

    def has_work(self) -> bool:
        return bool(self.active)

    def join(self, request: Request) -> None:
        """Add ``request`` to the decode batch; its first token is the next iteration's."""
        seq = ActiveSequence(request, self.iter_count)
        self.active.append(seq)
        self.context_sum += request.prompt_tokens
        self.due.setdefault(self.iter_count + request.output_tokens, []).append(seq)

    def evict(self) -> Tuple[List[Tuple[Request, int]], List[Request]]:
        """Drop every resident sequence (a failure wiped the KV state).

        Returns ``(lost, unstarted)``: each lost request with the tokens it
        had generated, and admitted requests whose work had not started.
        """
        lost = [(seq.request, self.iter_count - seq.start_iter) for seq in self.active]
        self.active.clear()
        self.due.clear()
        # ``del [:]``, not ``clear()``: arrays only gained clear() in 3.13.
        del self.iter_log[:]
        self.log_base = self.iter_count
        self.occupied = 0
        self.context_sum = 0
        self.running = False
        return lost, []


@dataclass
class PartialPrefill:
    """A prompt being chunked through a colocated instance."""

    request: Request
    remaining: int


@dataclass
class ColocatedState(DecodeState):
    """One colocated instance: decode batch + in-progress chunked prefill.

    ``occupied`` covers every committed sequence (decoding, chunking, or
    waiting to chunk); ``context_sum`` covers only the decoding batch.
    Chunk-only iterations (empty decode batch) are logged too, so a joining
    sequence's ``start_iter`` always indexes the log consistently.
    """

    backlog: Deque[PartialPrefill] = field(default_factory=deque)
    current: Optional[PartialPrefill] = None

    def committed(self) -> int:
        """Sequences holding a slot (decoding, chunking, or waiting to chunk)."""
        return len(self.active) + len(self.backlog) + (1 if self.current else 0)

    def has_work(self) -> bool:
        return bool(self.active or self.backlog or self.current)

    def evict(self) -> Tuple[List[Tuple[Request, int]], List[Request]]:
        # A partially chunked prompt has generated nothing; the backlog was
        # admitted but never chunked, so it loses no work.
        lost, _ = super().evict()
        if self.current is not None:
            lost.append((self.current.request, 0))
        unstarted = [partial.request for partial in self.backlog]
        self.backlog.clear()
        self.current = None
        return lost, unstarted


_STATE_TYPES = {"prefill": PrefillState, "decode": DecodeState, "colocated": ColocatedState}


@dataclass(frozen=True)
class CompletedRequest:
    """Per-request outcome."""

    request: Request
    ttft: float
    e2e: float
    mean_tbt: float
    restarts: int = 0


#: Prune the shared iteration log only in chunks this large: the prune scans
#: ``active`` for the oldest ``start_iter``, so amortize it over many ticks.
_LOG_PRUNE = 4096


def _prune_iter_log(inst: DecodeState) -> None:
    """Drop log entries below every resident sequence's ``start_iter``."""
    if len(inst.iter_log) < 2 * _LOG_PRUNE:
        return
    base = min((s.start_iter for s in inst.active), default=inst.iter_count)
    drop = base - inst.log_base
    if drop >= _LOG_PRUNE:
        del inst.iter_log[:drop]
        inst.log_base = base


def _tail_mean(inst: DecodeState, seq: ActiveSequence) -> float:
    """Mean per-token latency of a sequence completing *now*.

    The log tail from ``start_iter`` holds exactly the latencies of the
    sequence's own iterations, in order.  Summing a view of it with
    ``np.add.reduce`` and dividing by the count is what ``np.mean`` does,
    so the result equals the mean of a per-sequence latency list bit for
    bit, without copying the tail.  The view is dropped before returning:
    while it lives, ``iter_log.append`` raises ``BufferError``.
    """
    log = inst.iter_log
    start = seq.start_iter - inst.log_base
    total = np.add.reduce(np.frombuffer(log, offset=start * log.itemsize))
    return float(total / (len(log) - start))


# --- engines ----------------------------------------------------------------


class _EngineBase:
    """Shared event loop, request lifecycle and decode-tick core.

    An engine runs a pipeline of pools, given as ``(name, InstanceSpec,
    n_instances, provider)`` in request order: arrivals, retries and
    failure victims join the first pool's queue, and the last pool is the
    one that decodes (its instances hold KV state).  Subclasses implement
    :meth:`_wake` (offer a pool's queue to its instances) and add their
    pools' own event handlers.

    The loop owns the **control plane**: when a
    :class:`~repro.cluster.control.ClusterController` is attached, a
    ``controller`` event fires every epoch, observes the cluster, and
    applies the returned action — spawning instances (with warm-up),
    draining them gracefully, or setting the DVFS frequency scalar on every
    service-time provider.  ``controller=None`` schedules no events at all
    and keeps no SLO window, so the event stream stays bit-identical to the
    pre-control-plane engine.

    Decode ticks run inline inside handlers (see the module docstring), and
    every chain of them ends by pushing its instance's next step or by
    leaving the instance idle.  So between handlers every pending tick is
    on the heap, which the epoch's ``bool(self.events)`` check relies on.
    """

    def __init__(
        self,
        config,
        policies: PolicyBundle,
        pools: Sequence[Tuple[str, InstanceSpec, int, AbstractServiceTimeProvider]],
        failures: Sequence[Tuple[float, str, int, float]],
        controller: Optional[ClusterController],
        power_curve: Optional[DVFSCurve],
        spawn_limits: Optional[Dict[str, int]],
    ) -> None:
        self.config = config
        self.policies = policies
        self.failures = sorted(failures)
        self.pool_names = tuple(name for name, _, _, _ in pools)
        self.specs = {name: spec for name, spec, _, _ in pools}
        self.providers = {name: provider for name, _, _, provider in pools}
        self.states = {name: [_STATE_TYPES[name]() for _ in range(n)] for name, _, n, _ in pools}
        self.queues: Dict[str, Deque[Request]] = {name: deque() for name in self.pool_names}
        # Each pool gets its own routing instance so stateful policies
        # (round-robin) rotate per pool instead of interleaving pools
        # through one shared counter, and a caller-held bundle is not
        # mutated across runs.
        self.routers = {name: copy.copy(policies.routing) for name in self.pool_names}
        decoding = self.pool_names[-1]
        self.kv_capacity = require_kv_headroom(self.specs[decoding], decoding)
        # metrics="streaming" routes completions into constant-memory
        # quantile sketches instead of the ``completed`` list; "exact" (the
        # default) keeps every CompletedRequest and stays bit-identical to
        # the goldens.  The import is deferred to engine construction:
        # ``repro.analysis`` pulls report modules that import this package,
        # so a module-level import would be circular.
        self.metrics = None
        if getattr(config, "metrics", "exact") == "streaming":
            from ..analysis.streaming import StreamingMetrics

            self.metrics = StreamingMetrics()
        self.events = EventQueue()
        # Clock of the last *request-affecting* event.  Failure/recovery
        # bookkeeping alone must not extend the reported duration: a
        # stochastic schedule spans the whole horizon, and letting an idle
        # cluster's repair events advance the workload clock would deflate
        # every duration-normalized metric (tok/s, utilization).
        self.work_time = 0.0
        self.completed: List[CompletedRequest] = []
        self.ttft: Dict[int, float] = {}
        self.restarts: Dict[int, int] = {}
        self.requeued = 0
        # Distinct requests that restarted at least once, counted at the
        # moment of first restart.  Unlike ``len(restarts)`` this survives
        # the streaming path's entry pruning, so exact and streaming runs
        # (and sharded merges, which sum it over disjoint id sets) report
        # the same number.
        self.restarted_total = 0
        # The resilience runtime (deadlines / retries / checkpoints /
        # brown-out) — None by default, in which case no hook below runs
        # and the event stream is bit-identical to the goldens.  Deferred
        # import: resilience imports this module for the provider ABC.
        self.resilience = None
        resilience_config = getattr(config, "resilience", None)
        if resilience_config is not None:
            from .resilience import ResilienceRuntime

            self.resilience = ResilienceRuntime(resilience_config)
            self.resilience.bind(
                lambda at, request: self.events.push(at, "retry", (request,))
            )
        # Integer counters maintained in both metric modes: the arrival
        # count replaces ``len(trace)`` for iterator traces, and the output
        # token sum replaces the economics pass over ``completed`` (the
        # incremental int sum is identical to the genexpr it replaces).
        self.arrivals = 0
        self.output_token_count = 0
        self.controller = controller
        self.power_curve = power_curve or DVFSCurve()
        self.spawn_limits = dict(spawn_limits or {})
        self.frequency = 1.0
        self._busy_power_ratio = self.power_curve.power_ratio(1.0)
        self.spawned = 0
        self.retired = 0
        self._window_ttfts: List[float] = []
        self._window_tbts: List[float] = []

    def _record_ttft(self, request: Request, time: float) -> None:
        # Keep the first-token-ever time: a failure-requeued request's second
        # prefill must not overwrite its original TTFT.
        if request.request_id not in self.ttft:
            value = time - request.arrival
            self.ttft[request.request_id] = value
            # The SLO window only feeds controller observations; without a
            # controller it would just accumulate for the whole run.
            if self.controller is not None:
                self._window_ttfts.append(value)
            if self.resilience is not None:
                self.resilience.note_ttft(value)

    def _record_restart(self, request: Request) -> None:
        count = self.restarts.get(request.request_id)
        if count is None:
            count = 0
            self.restarted_total += 1
        self.restarts[request.request_id] = count + 1
        self.requeued += 1

    def _complete(self, seq: ActiveSequence, finish: float, mean_tbt: float) -> None:
        request = seq.request
        if self.controller is not None:
            self._window_tbts.append(mean_tbt)
        output_tokens = request.output_tokens
        if self.resilience is not None:
            # Checkpoint credit: tokens generated before a checkpointed
            # restart, counted once at the final incarnation's completion.
            output_tokens += self.resilience.on_complete(
                request, finish, self.ttft.get(request.request_id, 0.0), mean_tbt
            )
        self.output_token_count += output_tokens
        if self.metrics is not None:
            # Pop, don't get: completed requests never return, so dropping
            # the TTFT (and restart-count) entries keeps both dicts bounded
            # by in-flight requests.
            self.metrics.record(
                ttft=self.ttft.pop(request.request_id, 0.0),
                mean_tbt=mean_tbt,
                e2e=finish - request.arrival,
                output_tokens=output_tokens,
            )
            self.restarts.pop(request.request_id, None)
            return
        self.completed.append(
            CompletedRequest(
                request=request,
                ttft=self.ttft.get(request.request_id, 0.0),
                e2e=finish - request.arrival,
                mean_tbt=mean_tbt,
                restarts=self.restarts.get(request.request_id, 0),
            )
        )

    # --- decode-tick core ---------------------------------------------------

    def _charge(self, inst: DecodeState, batch: int, latency: float, now: float) -> float:
        """Account one iteration of ``batch`` decoding sequences; return its finish.

        Every resident sequence generates one token, so the shared log and
        the iteration count advance once and every resident context grows
        by one — no per-sequence work.
        """
        inst.busy_time += latency
        inst.energy_busy += latency * self._busy_power_ratio
        finish = now + latency
        inst.busy_until = finish
        inst.iter_log.append(latency)
        inst.iter_count += 1
        inst.context_sum += batch
        return finish

    def _complete_due(self, inst: DecodeState, finish: float) -> None:
        """Complete the sequences whose last token the iteration produced.

        One dict pop finds them; completion order within the bucket is
        admission order.  The active list is only rebuilt on ticks that
        complete something.
        """
        done = inst.due.pop(inst.iter_count, None)
        if not done:
            return
        for seq in done:
            self._complete(seq, finish, _tail_mean(inst, seq))
            tokens = seq.request.total_tokens  # also its context at completion
            inst.occupied -= tokens
            inst.context_sum -= tokens
        if len(done) == len(inst.active):
            inst.active.clear()
        else:
            done_ids = set(map(id, done))
            inst.active = [s for s in inst.active if id(s) not in done_ids]
        _prune_iter_log(inst)

    # --- request lifecycle --------------------------------------------------

    def handlers(self):
        """Event kind -> handler; subclasses add their pools' own kinds."""
        return {
            "arrival": self._on_arrival,
            "retry": self._on_retry,
            "failure": self._on_failure,
            "recovered": self._on_wake,
            "controller": self._on_controller_event,
            "spawn_ready": self._on_wake,
        }

    def _wake(self, pool: str, now: float) -> None:  # pragma: no cover - abstract
        """Offer ``pool``'s queue to its available instances."""
        raise NotImplementedError

    def _on_wake(self, now: float, payload: tuple) -> None:
        """A pool gained capacity (repair or warm-up done): serve its queue."""
        self._wake(payload[0], now)

    def _on_arrival(self, now: float, payload: tuple) -> None:
        (request,) = payload
        self._accept_request(request, now)

    def _on_retry(self, now: float, payload: tuple) -> None:
        """A client backoff elapsed: the request re-enters the front door.

        A dedicated event kind — *not* ``"arrival"`` — because the run
        loop feeds iterator traces one request per arrival pop; a retry
        masquerading as an arrival would over-consume the trace.
        """
        (request,) = payload
        self.resilience.on_retry_fired()
        self._accept_request(request, now)

    def _accept_request(self, request: Request, now: float) -> None:
        front = self.pool_names[0]
        queue = self.queues[front]
        if self.resilience is not None:
            request = self.resilience.admit(request, now, len(queue))
            if request is None:
                return
        queue.append(request)
        self._wake(front, now)

    def _on_failure(self, now: float, payload: tuple) -> None:
        pool, index, duration = payload
        # Elastic runs validate failures against the *expanded* instance
        # range: a fault aimed at a never-spawned or already-retired
        # instance hits no hardware.
        states = self._pool(pool)
        if index >= len(states) or states[index].retired:
            return
        inst = states[index]
        previous_down = inst.down_until
        # max(): a short overlapping failure must not cut an outage short
        # (scripted and sampled schedules compose, so overlap is possible).
        inst.down_until = max(inst.down_until, now + duration)
        # A prefill instance's in-flight batch still finishes (its
        # completion event is already queued); only KV state is lost.
        holds_kv = isinstance(inst, DecodeState)
        victims = self._salvage(inst, now) if holds_kv else []
        if self.resilience is not None:
            self.resilience.on_failure_hit(
                now, duration, [r.request_id for r in victims],
                max(0.0, inst.down_until - max(previous_down, now)),
            )
        if holds_kv:
            # Victims must not strand: once the arrival stream has ended
            # nothing else would wake an idle front pool to re-serve them.
            self._wake(self.pool_names[0], now)
        self.events.push(now + duration, "recovered", (pool, index))

    def _salvage(self, inst: DecodeState, now: float) -> List[Request]:
        """Requeue a failed instance's work; return the requests that restart.

        Lost KV state is a real restart (counted); admitted work that had
        not started rejoins the queue behind the victims, in one
        order-preserving batch, without counting as a restart.
        """
        lost, unstarted = inst.evict()
        runtime = self.resilience
        if runtime is None:
            victims = [request for request, _ in lost]
        else:
            # An expired victim is shed, not requeued — its end-to-end
            # budget is already gone; the rest resume from their last
            # checkpoint (restart-from-prefill when checkpointing is off or
            # no interval completed yet).
            victims = []
            for request, generated in lost:
                if runtime.expired_deadline(request, now):
                    runtime.shed(request, now, "deadline")
                else:
                    victims.append(runtime.resume_request(request, generated))
            waiting = []
            for request in unstarted:
                if runtime.expired_deadline(request, now):
                    runtime.shed(request, now, "deadline")
                else:
                    waiting.append(request)
            unstarted = waiting
        for request in victims:
            self._record_restart(request)
        self.policies.requeue.requeue_all(victims + unstarted, self.queues[self.pool_names[0]])
        if inst.draining and not inst.retired:
            # A draining instance that just lost its residents has nothing
            # left to finish: release its GPUs now.
            self._retire_state(inst, now)
        return victims

    def _pool(self, pool: str) -> list:
        states = self.states.get(pool)
        if states is None:
            raise SimulationError(f"unknown pool '{pool}' (have {'/'.join(self.pool_names)})")
        return states

    def _all_states(self) -> list:
        return [state for states in self.states.values() for state in states]

    def _instance_seconds(self, duration: float) -> float:
        """Provisioned instance-seconds inside ``duration`` (availability base)."""
        total = 0.0
        for state in self._all_states():
            end = min(state.retired_at, duration)
            total += max(0.0, end - state.spawned_at)
        return total

    def _feed_arrival(self, arrival_iter: Iterator[Request]) -> None:
        request = next(arrival_iter, None)
        if request is not None:
            self.arrivals += 1
            self.events.push(request.arrival, "arrival", (request,))

    def run(self, trace: "Sequence[Request] | Iterable[Request]") -> "_EngineBase":
        """Drain the event heap up to the configured horizon.

        ``trace`` is either a materialized sequence — every arrival is
        pushed up-front, the seed path, bit-identical heap tie-breaking —
        or any iterator of arrival-ordered requests (e.g.
        :func:`repro.workloads.traces.iter_trace`), consumed one arrival
        ahead of the clock so only O(in-flight) requests are ever resident.
        Either way ``arrivals`` ends up counting every request of the trace.
        """
        arrival_iter: Optional[Iterator[Request]] = None
        if isinstance(trace, SequenceABC):
            for request in trace:
                self.events.push(request.arrival, "arrival", (request,))
            self.arrivals = len(trace)
        else:
            arrival_iter = iter(trace)
            self._feed_arrival(arrival_iter)
        for time, pool, index, duration in self.failures:
            self.events.push(time, "failure", (pool, index, duration))
        if self.controller is not None:
            self.events.push(self.controller.epoch, "controller", ())
        handlers = self.handlers()
        horizon = self.config.max_sim_time
        while self.events:
            time, kind, payload = self.events.pop()
            if time > horizon:
                break
            if arrival_iter is not None and kind == "arrival":
                self._feed_arrival(arrival_iter)
            if kind not in _BOOKKEEPING_EVENTS:
                self.work_time = time
            handler = handlers.get(kind)
            if handler is None:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event kind '{kind}'")
            handler(time, payload)
        if arrival_iter is not None:
            # Requests past the horizon never arrive but still count, as they
            # do for a materialized trace; counting them holds none resident.
            self.arrivals += sum(1 for _ in arrival_iter)
        return self

    # --- control plane ------------------------------------------------------

    def _on_controller_event(self, now: float, payload: tuple) -> None:
        action = self.controller.step(self._observe(now))
        if action is not None and not action.is_noop():
            self._apply_action(now, action)
        # Keep stepping only while something can still happen: any other
        # pending event, ticks included (only run() and this handler push
        # "controller", so none is queued now), or queued/resident work that
        # a future scale-up could serve.  Otherwise the epoch chain would pin every
        # run to the full horizon.
        if self.events or self._has_pending_work():
            self.events.push(now + self.controller.epoch, "controller", ())

    def _has_pending_work(self) -> bool:
        return any(self.queues.values()) or any(s.has_work() for s in self._all_states())

    def _apply_action(self, now: float, action: ControlAction) -> None:
        if action.frequency is not None and action.frequency != self.frequency:
            self._set_frequency(action.frequency)
        for pool, delta in action.scale.items():
            if delta > 0:
                for _ in range(delta):
                    if not self._spawn(pool, now):
                        break
            elif delta < 0:
                for _ in range(-delta):
                    if not self._drain(pool, now):
                        break

    def _set_frequency(self, scalar: float) -> None:
        if scalar <= 0:
            raise SimulationError("controller set a non-positive frequency scalar")
        self.frequency = float(scalar)
        self._busy_power_ratio = self.power_curve.power_ratio(self.frequency)
        for provider in self.providers.values():
            provider.set_frequency(self.frequency)

    def _spawn(self, pool: str, now: float) -> bool:
        states = self._pool(pool)
        if not self._spawn_allowed(pool, states):
            return False
        warm = now + max(0.0, self.controller.warmup_s)
        states.append(_STATE_TYPES[pool](spawned_at=now, up_from=warm))
        self.spawned += 1
        self.events.push(warm, "spawn_ready", (pool,))
        return True

    def _spawn_allowed(self, pool: str, states: list) -> bool:
        """Physical + policy bounds on adding one more instance to a pool."""
        limit = self.spawn_limits.get(pool)
        if limit is not None and len(states) >= limit:
            return False
        provisioned = sum(1 for s in states if not s.retired)
        return provisioned < self.controller.max_instances

    def _drain(self, pool: str, now: float) -> bool:
        states = self._pool(pool)
        if self._drain_floor(states):
            return False
        candidates = [
            i for i, s in enumerate(states) if not s.retired and not s.draining
        ]
        # Idle instances first, then the least resident KV state (it drains
        # fastest); ties retire the latest-spawned instance first.
        idx = min(candidates, key=lambda i: (states[i].has_work(), states[i].occupied, -i))
        inst = states[idx]
        inst.draining = True
        if not inst.has_work():
            self._retire_state(inst, now)
        return True

    def _drain_floor(self, states: list) -> bool:
        """True when one more drain would leave the pool below its floor."""
        candidates = sum(1 for s in states if not s.retired and not s.draining)
        return candidates <= self.controller.min_instances

    def _retire_state(self, state, now: float) -> None:
        state.draining = True
        state.retired = True
        state.retired_at = now
        self.retired += 1

    def _observe(self, now: float) -> ControlObservation:
        decoding = self.pool_names[-1]
        obs = ControlObservation(
            time=now,
            pools={
                pool: self._pool_stats(
                    self.states[pool], now, len(self.queues[pool]), self.specs[pool].n_gpus,
                    capacity=self.kv_capacity if pool == decoding else 0,
                )
                for pool in self.pool_names
            },
            window_ttfts=tuple(self._window_ttfts),
            window_tbts=tuple(self._window_tbts),
            frequency=self.frequency,
        )
        self._window_ttfts.clear()
        self._window_tbts.clear()
        return obs

    def _pool_stats(self, states: list, now: float, queue_depth: int,
                    gpus_per_instance: int, capacity: int = 0) -> PoolStats:
        alive = warming = draining = busy = 0
        occupied: List[float] = []
        for state in states:
            if state.retired:
                continue
            if state.draining:
                draining += 1
            elif now < state.up_from:
                warming += 1
            else:
                alive += 1
                if capacity > 0:
                    occupied.append(state.occupied / capacity)
            if state.has_work():
                busy += 1
        occupancy = float(np.mean(occupied)) if occupied else 0.0
        return PoolStats(
            alive=alive, warming=warming, draining=draining, busy=busy,
            queue_depth=queue_depth, occupancy=occupancy,
            gpus_per_instance=gpus_per_instance,
        )


class PhaseSplitEngine(_EngineBase):
    """Splitwise-style engine: a prefill pool feeding a decode pool.

    With the ``"fcfs"`` bundle this replays the seed simulator exactly:
    index-order instance scans, FIFO prefill batches sized by
    ``max_prefill_batch``, greedy head-of-line decode admission within the
    KV budget, and back-of-queue requeue when a failure drops KV state.
    """

    def __init__(
        self,
        pools: PhasePools,
        config,
        policies: PolicyBundle,
        prefill_provider: ServiceTimeProvider,
        decode_provider: ServiceTimeProvider,
        failures: Sequence[Tuple[float, str, int, float]] = (),
        controller: Optional[ClusterController] = None,
        power_curve: Optional[DVFSCurve] = None,
        spawn_limits: Optional[Dict[str, int]] = None,
    ) -> None:
        super().__init__(
            config, policies,
            (
                ("prefill", pools.prefill, pools.n_prefill, prefill_provider),
                ("decode", pools.decode, pools.n_decode, decode_provider),
            ),
            failures, controller, power_curve, spawn_limits,
        )
        self.pools = pools
        self.prefill_provider = prefill_provider
        self.decode_provider = decode_provider
        self.prefill_states, self.decode_states = self.states.values()
        self.prefill_queue, self.decode_queue = self.queues.values()
        self.prefill_routing, self.decode_routing = self.routers.values()

    def handlers(self):
        return {
            **super().handlers(),
            "prefill_done": self._on_prefill_done,
            "decode_iter": self._on_decode_iter,
            "decode_admit": self._on_decode_admit,
        }

    def _wake(self, pool: str, now: float) -> None:
        if pool == "prefill":
            self._dispatch_prefill(now)
        else:
            self._admit_decode(now)

    # --- dispatch ----------------------------------------------------------

    def _dispatch_prefill(self, time: float) -> None:
        if self.resilience is not None:
            self.resilience.sweep_queue(self.prefill_queue, time)
        if not self.prefill_queue:
            return
        order = self.prefill_routing.order([s.busy_time for s in self.prefill_states])
        for idx in order:
            inst = self.prefill_states[idx]
            if inst.busy or not _available(inst, time) or not self.prefill_queue:
                continue
            batch = self.policies.prefill.select(self.prefill_queue, self.pools.max_prefill_batch)
            if not batch:
                continue
            prompt = max(r.prompt_tokens for r in batch)
            latency = self.prefill_provider.prefill_time(len(batch), prompt, instance=idx)
            inst.busy = True
            inst.busy_time += latency
            inst.energy_busy += latency * self._busy_power_ratio
            self.events.push(time + latency, "prefill_done", (idx, tuple(batch)))

    def _admit_decode(self, time: float) -> None:
        if self.resilience is not None:
            self.resilience.sweep_queue(self.decode_queue, time)
        if not self.decode_queue:
            return
        # Loads double as each instance's KV budget: admissions to one
        # instance never change another's occupancy, so a single per-round
        # read feeds both the routing order and the budgets.
        loads = [s.occupied for s in self.decode_states]
        order = self.decode_routing.order(loads)
        for idx in order:
            inst = self.decode_states[idx]
            if not _available(inst, time) or not self.decode_queue:
                continue
            slots = self.pools.max_decode_batch - len(inst.active)
            budget = self.kv_capacity - loads[idx]
            for request in self.policies.admission.select(self.decode_queue, slots, budget):
                inst.occupied += request.total_tokens
                inst.join(request)
            if inst.active and not inst.running:
                inst.running = True
                self.events.push(max(time, inst.busy_until), "decode_iter", (idx,))

    # --- handlers ----------------------------------------------------------

    def _on_prefill_done(self, now: float, payload: tuple) -> None:
        idx, batch = payload
        inst = self.prefill_states[idx]
        inst.busy = False
        if inst.draining and not inst.retired:
            self._retire_state(inst, now)
        for request in batch:
            self._record_ttft(request, now)
            self.decode_queue.append(request)
        self._admit_decode(now)
        self._dispatch_prefill(now)

    def _on_decode_iter(self, now: float, payload: tuple, admit: bool = False) -> None:
        """Run decode instance ``idx``'s ticks while each is the event due next.

        ``admit=True`` enters at the end-of-iteration admit.
        """
        (idx,) = payload
        inst = self.decode_states[idx]
        events = self.events
        horizon = self.config.max_sim_time
        while True:
            if admit:
                inst.running = False
                self._admit_decode(now)
                if inst.draining and not inst.retired and not inst.active:
                    self._retire_state(inst, now)
                    return
                if inst.running or not inst.active or now < inst.down_until:
                    return
                inst.running = True
                if events.due_by(now):
                    events.push(now, "decode_iter", payload)
                    return
            elif now < inst.down_until or not inst.active:
                inst.running = False
                return
            batch = len(inst.active)
            # The seed's int(np.mean(contexts)): float64 division of the same
            # exact integer sum, minus the per-event list build.
            context = int(inst.context_sum / batch)
            latency = max(
                self.decode_provider.decode_time(batch, max(1, context), instance=idx),
                MIN_DECODE_INTERVAL,
            )
            now = self._charge(inst, batch, latency, now)
            self._complete_due(inst, now)
            if now > horizon or events.due_by(now):
                events.push(now, "decode_admit", payload)
                return
            self.work_time = now
            admit = True

    def _on_decode_admit(self, now: float, payload: tuple) -> None:
        self._on_decode_iter(now, payload, admit=True)


class ColocatedEngine(_EngineBase):
    """SARATHI-style engine: one pool interleaving chunked prefill + decode.

    Each instance runs mixed iterations: the continuous decode batch
    advances one token while up to ``chunk_tokens`` of the oldest admitted
    prompt are prefetched in the same pass.  When a prompt's last chunk
    lands, its first token is out (TTFT) and the sequence joins the decode
    batch.  A failure drops the instance's KV state — decoding *and*
    partially prefilled sequences restart from the shared pending queue.
    """

    def __init__(
        self,
        pool: ColocatedPool,
        config,
        policies: PolicyBundle,
        provider: ServiceTimeProvider,
        failures: Sequence[Tuple[float, str, int, float]] = (),
        controller: Optional[ClusterController] = None,
        power_curve: Optional[DVFSCurve] = None,
        spawn_limits: Optional[Dict[str, int]] = None,
    ) -> None:
        super().__init__(
            config, policies, (("colocated", pool.instance, pool.n_instances, provider),),
            failures, controller, power_curve, spawn_limits,
        )
        self.pool = pool
        self.provider = provider
        (self.instances,) = self.states.values()
        (self.pending,) = self.queues.values()
        (self.routing,) = self.routers.values()

    def handlers(self):
        return {**super().handlers(), "iter": self._on_iter, "admit": self._on_admit}

    def _wake(self, pool: str, now: float) -> None:
        self._dispatch(now)

    def _dispatch(self, time: float) -> None:
        if self.resilience is not None:
            self.resilience.sweep_queue(self.pending, time)
        if not self.pending:
            return
        loads = [s.occupied for s in self.instances]
        order = self.routing.order(loads)
        for idx in order:
            inst = self.instances[idx]
            if not _available(inst, time) or not self.pending:
                continue
            slots = self.pool.max_decode_batch - inst.committed()
            budget = self.kv_capacity - loads[idx]
            for request in self.policies.admission.select(self.pending, slots, budget):
                inst.backlog.append(PartialPrefill(request, request.prompt_tokens))
                inst.occupied += request.total_tokens
            if inst.has_work() and not inst.running:
                inst.running = True
                self.events.push(max(time, inst.busy_until), "iter", (idx,))

    def _on_iter(self, now: float, payload: tuple, admit: bool = False) -> None:
        """The per-instance tick loop of :meth:`PhaseSplitEngine._on_decode_iter`."""
        (idx,) = payload
        inst = self.instances[idx]
        events = self.events
        horizon = self.config.max_sim_time
        while True:
            if admit:
                inst.running = False
                # An empty queue makes the dispatch a no-op (its resilience
                # sweep returns at once).
                if self.pending:
                    self._dispatch(now)
                if inst.draining and not inst.retired and not inst.has_work():
                    self._retire_state(inst, now)
                    return
                if inst.running or not inst.has_work() or now < inst.down_until:
                    return
                inst.running = True
                if events.due_by(now):
                    events.push(now, "iter", payload)
                    return
            elif now < inst.down_until:
                inst.running = False
                return
            if inst.current is None and inst.backlog:
                inst.current = inst.backlog.popleft()
            chunk = min(self.pool.chunk_tokens, inst.current.remaining) if inst.current else 0
            batch = len(inst.active)
            if batch == 0 and chunk == 0:
                inst.running = False
                return
            context = int(inst.context_sum / batch) if batch else 1
            prompt_len = inst.current.request.prompt_tokens if inst.current else 1
            latency = max(
                self.provider.mixed_time(batch, max(1, context), chunk, prompt_len, instance=idx),
                MIN_DECODE_INTERVAL,
            )
            # Chunk-only iterations (batch == 0) are charged and logged too: a
            # prompt finishing below joins with ``start_iter`` after this
            # iteration, so its first decode tick is the next one.
            now = self._charge(inst, batch, latency, now)
            if inst.current is not None:
                inst.current.remaining -= chunk
                if inst.current.remaining <= 0:
                    request = inst.current.request
                    self._record_ttft(request, now)
                    inst.join(request)
                    inst.current = None
            self._complete_due(inst, now)
            if now > horizon or events.due_by(now):
                events.push(now, "admit", payload)
                return
            self.work_time = now
            admit = True

    def _on_admit(self, now: float, payload: tuple) -> None:
        self._on_iter(now, payload, admit=True)
