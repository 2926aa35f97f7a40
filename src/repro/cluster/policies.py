"""Pluggable scheduling policies for the serving-simulation engine.

The seed simulator hardcoded one scheduling story: index-order instance
scanning, FIFO prefill batching, greedy first-come-first-served decode
admission, and back-of-queue requeue after a failure.  This module factors
each of those decisions into a small policy object so a deployment's
scheduling behaviour is a *configuration*, not a code path — the approach
Helix and the fluid-ODE vLLM simulator take, and the one the paper's
Section 3 needs to explore Lite-GPU scheduling trade-offs.

Four policy axes:

- :class:`RoutingPolicy` — the order in which instances are offered work.
- :class:`PrefillBatchPolicy` — which queued requests form a prefill batch.
- :class:`DecodeAdmissionPolicy` — which queued sequences a decode (or
  colocated) instance admits within its slot/KV budget.
- :class:`RequeuePolicy` — where a failure-victim request re-enters the
  prefill queue.

A :class:`PolicyBundle` groups one of each.  Bundles and individual
policies are registered in :class:`repro._registry.Registry` catalogues, so
simulators and the CLI accept them by name.  The ``"fcfs"`` bundle
reproduces the seed simulator's scheduling exactly: FIFO prefill batches
of at most ``max_prefill_batch`` requests and head-of-line decode
admission within the free slots and KV-token budget.

>>> bundle = get_policy_bundle("fcfs")
>>> bundle.routing.order([3.0, 1.0, 2.0])
[0, 1, 2]
>>> get_policy_bundle("least-loaded").routing.order([3.0, 1.0, 2.0])
[1, 2, 0]
>>> get_policy_bundle("least-loaded").routing.first([3.0, 1.0, 1.0])
1
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Deque, List, Sequence

from .._registry import Registry
from ..errors import SpecError
from ..workloads.traces import Request

__all__ = [
    "RoutingPolicy",
    "IndexOrderRouting",
    "LeastLoadedRouting",
    "RoundRobinRouting",
    "PrefillBatchPolicy",
    "FCFSPrefillBatching",
    "SJFPrefillBatching",
    "DecodeAdmissionPolicy",
    "FCFSAdmission",
    "SmallestFirstAdmission",
    "RequeuePolicy",
    "BackOfQueueRequeue",
    "FrontOfQueueRequeue",
    "PolicyBundle",
    "ROUTING_POLICIES",
    "PREFILL_POLICIES",
    "ADMISSION_POLICIES",
    "REQUEUE_POLICIES",
    "POLICY_BUNDLES",
    "get_policy_bundle",
]


# --- routing ----------------------------------------------------------------


class RoutingPolicy:
    """Decides the order in which instances are offered queued work.

    ``loads`` is one scalar per instance (busy seconds for prefill pools,
    occupied KV tokens for decode/colocated pools); the policy returns the
    instance indices in visit order.
    """

    name = "routing"

    def order(self, loads: Sequence[float]) -> List[int]:
        raise NotImplementedError

    def first(self, loads: Sequence[float]) -> int:
        """The instance offered work first: ``order(loads)[0]``.

        A subclass may override it with a cheaper pick, provided it returns
        the same index and leaves the policy in the state ``order`` would.
        """
        return self.order(loads)[0]


class IndexOrderRouting(RoutingPolicy):
    """Scan instances 0..n-1 (the seed simulator's behaviour)."""

    name = "index-order"

    def order(self, loads: Sequence[float]) -> List[int]:
        return list(range(len(loads)))


class LeastLoadedRouting(RoutingPolicy):
    """Offer work to the least-loaded instance first (stable on ties)."""

    name = "least-loaded"

    def order(self, loads: Sequence[float]) -> List[int]:
        return sorted(range(len(loads)), key=lambda i: (loads[i], i))

    def first(self, loads: Sequence[float]) -> int:
        # min keeps the first of equal keys: the lowest index, as the sort's
        # ``(load, index)`` key does.
        return min(range(len(loads)), key=loads.__getitem__)


class RoundRobinRouting(RoutingPolicy):
    """Rotate the starting instance on every dispatch round."""

    name = "round-robin"

    def __init__(self) -> None:
        self._start = 0

    def order(self, loads: Sequence[float]) -> List[int]:
        n = len(loads)
        if n == 0:
            return []
        start = self._start % n
        self._start += 1
        return [(start + i) % n for i in range(n)]


# --- prefill batching -------------------------------------------------------


class PrefillBatchPolicy:
    """Picks the requests one free prefill instance takes from the queue.

    ``select`` removes the chosen requests from ``queue`` and returns them
    in batch order.
    """

    name = "prefill"

    def select(self, queue: Deque[Request], max_batch: int) -> List[Request]:
        raise NotImplementedError


class FCFSPrefillBatching(PrefillBatchPolicy):
    """First-come-first-served: take the oldest ``max_batch`` requests."""

    name = "fcfs"

    def select(self, queue: Deque[Request], max_batch: int) -> List[Request]:
        take = min(len(queue), max_batch)
        return [queue.popleft() for _ in range(take)]


class SJFPrefillBatching(PrefillBatchPolicy):
    """Shortest-job-first: batch the shortest prompts (stable on ties).

    Because a batch's prefill latency is set by its *longest* prompt,
    grouping short prompts together avoids convoying them behind a long one.
    """

    name = "sjf"

    def select(self, queue: Deque[Request], max_batch: int) -> List[Request]:
        take = min(len(queue), max_batch)
        if take == 0:
            return []
        items = list(queue)
        picked = sorted(range(len(items)), key=lambda i: (items[i].prompt_tokens, i))[:take]
        picked_set = set(picked)
        batch = [items[i] for i in picked]
        queue.clear()
        queue.extend(r for i, r in enumerate(items) if i not in picked_set)
        return batch


# --- decode admission -------------------------------------------------------


class DecodeAdmissionPolicy:
    """Picks queued sequences for a decode (or colocated) instance.

    The budget is expressed as free sequence ``slots`` and free KV-token
    ``budget``; a sequence's footprint is its *final* KV size
    (``Request.total_tokens``), so an admitted sequence can always run to
    completion.
    """

    name = "admission"

    def admit_footprints(self, footprints: Sequence[int], slots: int, budget: int) -> List[int]:
        """Indices of the admitted sequences, in admission order."""
        raise NotImplementedError

    def select(self, queue: Deque[Request], slots: int, budget: int) -> List[Request]:
        """Remove and return the admitted requests from ``queue``."""
        if not queue or slots <= 0:
            return []
        items = list(queue)
        picked = self.admit_footprints([r.total_tokens for r in items], slots, budget)
        if not picked:
            return []
        picked_set = set(picked)
        admitted = [items[i] for i in picked]
        queue.clear()
        queue.extend(r for i, r in enumerate(items) if i not in picked_set)
        return admitted


class FCFSAdmission(DecodeAdmissionPolicy):
    """Greedy head-of-line admission: stop at the first sequence that does
    not fit (the seed scheduler's behaviour — no reordering, no skipping)."""

    name = "fcfs"

    def admit_footprints(self, footprints: Sequence[int], slots: int, budget: int) -> List[int]:
        picked: List[int] = []
        for i, tokens in enumerate(footprints):
            if slots <= 0 or budget < tokens:
                break
            picked.append(i)
            slots -= 1
            budget -= tokens
        return picked

    def select(self, queue: Deque[Request], slots: int, budget: int) -> List[Request]:
        # FCFS only ever takes a prefix, so popleft beats the generic
        # rebuild-the-deque path — this runs on every admit event.
        admitted: List[Request] = []
        while queue and slots > 0 and queue[0].total_tokens <= budget:
            request = queue.popleft()
            admitted.append(request)
            slots -= 1
            budget -= request.total_tokens
        return admitted


class SmallestFirstAdmission(DecodeAdmissionPolicy):
    """Admit smallest KV footprints first (stable on ties): packs more
    sequences into the same budget at the cost of head-of-line fairness."""

    name = "smallest-first"

    def admit_footprints(self, footprints: Sequence[int], slots: int, budget: int) -> List[int]:
        order = sorted(range(len(footprints)), key=lambda i: (footprints[i], i))
        picked: List[int] = []
        for i in order:
            if slots <= 0 or budget < footprints[i]:
                break
            picked.append(i)
            slots -= 1
            budget -= footprints[i]
        return picked


# --- failure requeue --------------------------------------------------------


class RequeuePolicy:
    """Where a failure victim re-enters the prefill queue."""

    name = "requeue"

    def requeue(self, request: Request, queue: Deque[Request]) -> None:
        raise NotImplementedError

    def requeue_all(self, requests: Sequence[Request], queue: Deque[Request]) -> None:
        """Requeue a batch, preserving its relative priority order: the
        first request of ``requests`` is served first among them regardless
        of where the policy inserts the batch."""
        for request in requests:
            self.requeue(request, queue)


class BackOfQueueRequeue(RequeuePolicy):
    """Victims rejoin at the back (the seed behaviour): fair, but a victim
    pays a full queueing delay again."""

    name = "back"

    def requeue(self, request: Request, queue: Deque[Request]) -> None:
        queue.append(request)


class FrontOfQueueRequeue(RequeuePolicy):
    """Victims jump the queue: bounds the tail-latency cost of a failure at
    the expense of newly arrived requests."""

    name = "front"

    def requeue(self, request: Request, queue: Deque[Request]) -> None:
        queue.appendleft(request)

    def requeue_all(self, requests: Sequence[Request], queue: Deque[Request]) -> None:
        # appendleft one-by-one would invert the batch; insert reversed so
        # the first (highest-priority) victim ends up frontmost.
        for request in reversed(requests):
            queue.appendleft(request)


# --- bundles ----------------------------------------------------------------


@dataclass
class PolicyBundle:
    """One policy per axis — everything the engine asks a scheduler."""

    name: str
    routing: RoutingPolicy
    prefill: PrefillBatchPolicy
    admission: DecodeAdmissionPolicy
    requeue: RequeuePolicy

    def describe(self) -> str:
        """One-line summary of the bundle's members."""
        return (
            f"{self.name}: routing={self.routing.name} prefill={self.prefill.name} "
            f"admission={self.admission.name} requeue={self.requeue.name}"
        )


ROUTING_POLICIES: Registry[Callable[[], RoutingPolicy]] = Registry("routing policy")
PREFILL_POLICIES: Registry[Callable[[], PrefillBatchPolicy]] = Registry("prefill batching policy")
ADMISSION_POLICIES: Registry[Callable[[], DecodeAdmissionPolicy]] = Registry("decode admission policy")
REQUEUE_POLICIES: Registry[Callable[[], RequeuePolicy]] = Registry("requeue policy")
POLICY_BUNDLES: Registry[Callable[[], PolicyBundle]] = Registry("policy bundle")

for _cls in (IndexOrderRouting, LeastLoadedRouting, RoundRobinRouting):
    ROUTING_POLICIES.register(_cls.name, _cls)
for _cls in (FCFSPrefillBatching, SJFPrefillBatching):
    PREFILL_POLICIES.register(_cls.name, _cls)
for _cls in (FCFSAdmission, SmallestFirstAdmission):
    ADMISSION_POLICIES.register(_cls.name, _cls)
for _cls in (BackOfQueueRequeue, FrontOfQueueRequeue):
    REQUEUE_POLICIES.register(_cls.name, _cls)


def _bundle_factory(
    name: str,
    routing: Callable[[], RoutingPolicy] = IndexOrderRouting,
    prefill: Callable[[], PrefillBatchPolicy] = FCFSPrefillBatching,
    admission: Callable[[], DecodeAdmissionPolicy] = FCFSAdmission,
    requeue: Callable[[], RequeuePolicy] = BackOfQueueRequeue,
) -> Callable[[], PolicyBundle]:
    def build() -> PolicyBundle:
        return PolicyBundle(name, routing(), prefill(), admission(), requeue())

    return build


# "fcfs" reproduces the seed simulator's scheduling exactly.  "sjf" switches
# both shortest-first axes (prefill batching + decode admission); the
# remaining bundles vary a single axis against the FCFS baseline.
POLICY_BUNDLES.register("fcfs", _bundle_factory("fcfs"))
POLICY_BUNDLES.register(
    "sjf", _bundle_factory("sjf", prefill=SJFPrefillBatching, admission=SmallestFirstAdmission)
)
POLICY_BUNDLES.register("least-loaded", _bundle_factory("least-loaded", routing=LeastLoadedRouting))
POLICY_BUNDLES.register("round-robin", _bundle_factory("round-robin", routing=RoundRobinRouting))
POLICY_BUNDLES.register("retry-first", _bundle_factory("retry-first", requeue=FrontOfQueueRequeue))


def get_policy_bundle(spec: "PolicyBundle | str | None") -> PolicyBundle:
    """Resolve a bundle: pass through instances, look up names, default FCFS.

    Name lookup builds a *fresh* bundle so stateful policies (round-robin)
    never leak position between simulations.
    """
    if spec is None:
        return POLICY_BUNDLES.get("fcfs")()
    if isinstance(spec, PolicyBundle):
        return spec
    if isinstance(spec, str):
        return POLICY_BUNDLES.get(spec)()
    raise SpecError(f"cannot resolve policy bundle from {spec!r}")
