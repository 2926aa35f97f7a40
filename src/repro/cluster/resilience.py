"""The failure-response loop: deadlines, retries, checkpoints, brown-out.

The fault layer (:mod:`repro.cluster.failures`) decides *what breaks*;
this module decides *what happens next* — the client and cluster behaviour
that turns raw outages into the metrics the paper's fault-tolerance claim
is actually about (goodput, deadline misses, MTTR, availability):

- **Deadlines and queue timeouts.**  Every :class:`~repro.workloads.traces.
  Request` may carry a ``deadline`` (end-to-end budget from first arrival);
  :class:`ResilienceConfig` can also impose a fleet-wide default and a
  per-attempt ``queue_timeout_s``.  Expired requests are *shed* — counted
  separately from capacity drops, and never requeued after a failure.
- **Client retries.**  A shed or timed-out attempt re-arrives after a
  backoff from a :data:`RETRY_POLICIES` entry (``none`` / ``fixed`` /
  ``exp_jitter``).  Fixed short backoff with many attempts reproduces the
  classic retry storm: the queue stays saturated by re-offered work long
  after the original burst — metastable overload.  Capped exponential
  backoff with jitter sheds that load and recovers.
- **Checkpointed restarts.**  With ``checkpoint_interval=K`` every
  instance continuously streams KV/generation state to slower storage;
  the per-iteration write cost is priced *through the service-time
  provider* (:class:`CheckpointWriteProvider`).  A failure victim then
  resumes from its last multiple of ``K`` generated tokens — its resumed
  prompt covers the checkpointed prefix — instead of restarting from
  prefill.
- **Brown-out.**  When rolling P99 TTFT or queue depth crosses thresholds
  (:class:`BrownoutConfig`) the runtime sheds lowest-priority arrivals and
  truncates output budgets until the backlog clears.  This composes with
  any :mod:`repro.cluster.control` controller: the controller scales the
  fleet on its epoch, the brown-out guard gates admissions between epochs.

Everything is opt-in: ``SimConfig(resilience=None)`` (the default) builds
no runtime, installs no provider wrapper, and leaves the event stream
bit-identical to the goldens.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._registry import Registry
from ..errors import SpecError
from ..exec.seeding import derive_seed
from ..workloads.traces import Request
from .engine import AbstractServiceTimeProvider
from .scheduler import InstanceSpec

__all__ = [
    "RetryPolicy",
    "NoRetry",
    "FixedRetry",
    "ExpJitterRetry",
    "RETRY_POLICIES",
    "get_retry_policy",
    "BrownoutConfig",
    "ResilienceConfig",
    "CheckpointWriteProvider",
    "wrap_checkpoint_writes",
    "ResilienceRuntime",
    "RESILIENCE_FIELDS",
    "goodput_dip",
]


# --- retry policies ---------------------------------------------------------


class RetryPolicy:
    """Client behaviour after a shed or timed-out attempt."""

    name = "retry"

    def next_delay(self, request_id: int, attempt: int) -> Optional[float]:
        """Backoff in seconds before re-attempt ``attempt`` (1-based).

        ``None`` means the client gives up (attempts exhausted).
        """
        raise NotImplementedError


@dataclass(frozen=True)
class NoRetry(RetryPolicy):
    """The client never retries — every shed attempt is abandoned."""

    name = "none"

    def next_delay(self, request_id: int, attempt: int) -> Optional[float]:
        return None


@dataclass(frozen=True)
class FixedRetry(RetryPolicy):
    """Naive constant backoff — the retry-storm generator.

    Every client re-offers its request ``delay`` seconds after a timeout,
    in lockstep and regardless of how overloaded the cluster still is;
    with a generous ``max_attempts`` the offered load never falls below
    capacity and the overload is metastable.
    """

    name = "fixed"
    delay: float = 1.0
    max_attempts: int = 10

    def __post_init__(self) -> None:
        if self.delay <= 0:
            raise SpecError("retry delay must be positive")
        if self.max_attempts < 1:
            raise SpecError("max_attempts must be at least 1")

    def next_delay(self, request_id: int, attempt: int) -> Optional[float]:
        if attempt > self.max_attempts:
            return None
        return self.delay


@dataclass(frozen=True)
class ExpJitterRetry(RetryPolicy):
    """Capped exponential backoff with full jitter (the AWS prescription).

    Attempt ``n`` waits ``min(cap, base * factor**(n-1))`` scaled by a
    deterministic per-``(request, attempt)`` jitter fraction in
    ``[1 - jitter, 1]`` — clients desynchronize, offered load decays
    geometrically, and the capped attempt budget sheds the remainder.
    """

    name = "exp_jitter"
    base: float = 0.5
    factor: float = 2.0
    cap: float = 30.0
    max_attempts: int = 4
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.base <= 0 or self.factor < 1.0 or self.cap < self.base:
            raise SpecError("need base > 0, factor >= 1, cap >= base")
        if self.max_attempts < 1:
            raise SpecError("max_attempts must be at least 1")
        if not 0.0 <= self.jitter < 1.0:
            raise SpecError("jitter must be in [0, 1)")

    def next_delay(self, request_id: int, attempt: int) -> Optional[float]:
        if attempt > self.max_attempts:
            return None
        raw = min(self.cap, self.base * self.factor ** (attempt - 1))
        # No global RNG: the jitter fraction is a content hash of the
        # (request, attempt) pair, so schedules are reproducible and two
        # clients never share a backoff clock.
        unit = derive_seed(request_id, "retry-jitter", attempt) % (1 << 24)
        return raw * (1.0 - self.jitter * unit / float(1 << 24))


RETRY_POLICIES: Registry[Callable[[], RetryPolicy]] = Registry("retry policy")
for _cls in (NoRetry, FixedRetry, ExpJitterRetry):
    RETRY_POLICIES.register(_cls.name, _cls)


def get_retry_policy(spec: "RetryPolicy | str | None") -> RetryPolicy:
    """Resolve a retry policy: pass instances through, look names up."""
    if spec is None:
        return NoRetry()
    if isinstance(spec, RetryPolicy):
        return spec
    if isinstance(spec, str):
        return RETRY_POLICIES.get(spec)()
    raise SpecError(f"cannot resolve retry policy from {spec!r}")


# --- configuration ----------------------------------------------------------


@dataclass(frozen=True)
class BrownoutConfig:
    """Overload thresholds and the degradation applied while tripped.

    The guard trips when queue depth reaches ``queue_depth_high`` or the
    rolling-window TTFT P99 reaches ``ttft_p99_high`` (if set), and clears
    only once depth falls to ``queue_depth_low`` *and* the window P99 is
    back under ``ttft_p99_low`` — hysteresis, so the mode doesn't flap.
    While tripped, arrivals with ``priority >= shed_priority_floor`` are
    shed (``load_shed``) and surviving arrivals have their output budget
    truncated to ``truncate_output_to`` tokens (if set).
    """

    queue_depth_high: int = 64
    queue_depth_low: int = 16
    ttft_p99_high: Optional[float] = None
    ttft_p99_low: Optional[float] = None
    shed_priority_floor: int = 1
    truncate_output_to: Optional[int] = None
    window: int = 64

    def __post_init__(self) -> None:
        if self.queue_depth_high < 1 or not 0 <= self.queue_depth_low <= self.queue_depth_high:
            raise SpecError("need 0 <= queue_depth_low <= queue_depth_high, high >= 1")
        if (self.ttft_p99_low is None) != (self.ttft_p99_high is None):
            raise SpecError("set both ttft_p99_low and ttft_p99_high, or neither")
        if self.ttft_p99_high is not None and not 0 < self.ttft_p99_low <= self.ttft_p99_high:
            raise SpecError("need 0 < ttft_p99_low <= ttft_p99_high")
        if self.truncate_output_to is not None and self.truncate_output_to < 1:
            raise SpecError("truncate_output_to must be at least 1")
        if self.window < 8:
            raise SpecError("window must be at least 8")


@dataclass(frozen=True)
class ResilienceConfig:
    """The ``SimConfig.resilience`` knob bundle — every default is inert.

    ``deadline_s`` is a fleet-wide end-to-end budget from each request's
    *first* arrival (a request's own ``deadline`` field, when set, takes
    precedence); ``queue_timeout_s`` bounds one attempt's unserved wait.
    ``retry`` names a :data:`RETRY_POLICIES` entry (or is an instance);
    ``max_pending_retries`` bounds the backoff buffer the same way the
    trace iterator is bounded — when full, further timed-out clients are
    ``abandoned`` instead of queued (constant memory under streaming
    metrics).  ``checkpoint_interval`` (tokens) enables checkpointed
    restarts, with writes priced at ``checkpoint_bandwidth`` bytes/s
    through the service-time provider.  ``slo_ttft_s`` / ``slo_tbt_s`` /
    ``slo_e2e_s`` classify completions for the SLO-violation rate
    (first-token, per-token, and end-to-end latency bounds); deadline-late
    or SLO-violating completions earn no goodput — the wasted-work signal
    a retry storm feeds on.
    """

    deadline_s: Optional[float] = None
    queue_timeout_s: Optional[float] = None
    retry: "RetryPolicy | str" = "none"
    max_pending_retries: int = 4096
    checkpoint_interval: Optional[int] = None
    checkpoint_bandwidth: float = 16e9
    brownout: Optional[BrownoutConfig] = None
    slo_ttft_s: Optional[float] = None
    slo_tbt_s: Optional[float] = None
    slo_e2e_s: Optional[float] = None
    sweep_interval: float = 0.25

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise SpecError("deadline_s must be positive")
        if self.queue_timeout_s is not None and self.queue_timeout_s <= 0:
            raise SpecError("queue_timeout_s must be positive")
        get_retry_policy(self.retry)  # fail fast on unknown names
        if self.max_pending_retries < 1:
            raise SpecError("max_pending_retries must be at least 1")
        if self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise SpecError("checkpoint_interval must be at least 1 token")
        if self.checkpoint_bandwidth <= 0:
            raise SpecError("checkpoint_bandwidth must be positive")
        if self.slo_ttft_s is not None and self.slo_ttft_s <= 0:
            raise SpecError("slo_ttft_s must be positive")
        if self.slo_tbt_s is not None and self.slo_tbt_s <= 0:
            raise SpecError("slo_tbt_s must be positive")
        if self.slo_e2e_s is not None and self.slo_e2e_s <= 0:
            raise SpecError("slo_e2e_s must be positive")
        if self.sweep_interval <= 0:
            raise SpecError("sweep_interval must be positive")


# --- checkpoint write pricing ----------------------------------------------


class CheckpointWriteProvider(AbstractServiceTimeProvider):
    """Adds continuous checkpoint-write cost to decode/mixed iterations.

    Each decode slot generates one token per iteration whose KV state must
    stream to checkpoint storage; the added latency is
    ``batch * kv_bytes_per_token / checkpoint_bandwidth`` per iteration.
    Prefill is unchanged — prompt KV is reproducible from the prompt, so
    only generation progress is checkpointed.  The write is storage-bound,
    so the DVFS frequency scalar (forwarded to the inner provider) does
    not stretch it.
    """

    def __init__(self, inner: AbstractServiceTimeProvider, write_s_per_token: float) -> None:
        if write_s_per_token < 0:
            raise SpecError("write_s_per_token must be non-negative")
        self.inner = inner
        self.write_s_per_token = float(write_s_per_token)

    def set_frequency(self, scalar: float) -> None:
        self.inner.set_frequency(scalar)

    @property
    def frequency(self) -> float:
        return self.inner.frequency

    def prefill_time(self, batch: int, prompt_len: int, instance: int = 0) -> float:
        return self.inner.prefill_time(batch, prompt_len, instance)

    def decode_time(self, batch: int, context_len: int, instance: int = 0) -> float:
        return self.inner.decode_time(batch, context_len, instance) + (
            batch * self.write_s_per_token
        )

    def mixed_time(
        self, decode_batch: int, context_len: int, chunk: int, prompt_len: int, instance: int = 0
    ) -> float:
        return self.inner.mixed_time(decode_batch, context_len, chunk, prompt_len, instance) + (
            decode_batch * self.write_s_per_token
        )

    def cache_info(self) -> Dict[str, int]:
        return self.inner.cache_info()


def wrap_checkpoint_writes(
    provider: AbstractServiceTimeProvider,
    instance: InstanceSpec,
    config: Optional[ResilienceConfig],
) -> AbstractServiceTimeProvider:
    """Wrap a decode-side provider when checkpointing is enabled (else no-op)."""
    if config is None or config.checkpoint_interval is None:
        return provider
    per_token = (
        instance.model.kv_bytes_per_token(instance.policy.kv_bytes)
        / config.checkpoint_bandwidth
    )
    return CheckpointWriteProvider(provider, per_token)


# --- the runtime ------------------------------------------------------------

#: SimReport's resilience block, in report order, with its no-resilience values.
RESILIENCE_FIELDS: Tuple[Tuple[str, float], ...] = (
    ("deadline_missed", 0),
    ("timed_out", 0),
    ("load_shed", 0),
    ("truncated", 0),
    ("retries", 0),
    ("abandoned", 0),
    ("goodput_tokens", 0),
    ("goodput_tokens_per_s", 0.0),
    ("slo_violations", 0),
    ("slo_violation_rate", 0.0),
    ("deadline_miss_rate", 0.0),
    ("failure_hits", 0),
    ("mttr_s", 0.0),
    ("availability", 1.0),
)


class ResilienceRuntime:
    """Per-run mutable state behind one engine's resilience behaviour.

    Engine-agnostic: both engines call the same small hook set —
    :meth:`admit` on arrival/retry, :meth:`sweep_queue` before dispatch,
    :meth:`shed`/:meth:`resume_request`/:meth:`on_failure` when an
    instance dies, :meth:`on_complete` at completion.  All counters live
    here, symmetric across exact and streaming metric modes, so sharded
    merges sum the same quantities an unsharded run counts.

    Memory is bounded by in-flight work: per-request attempt/credit/victim
    entries are created on first retry / checkpoint / failure hit and
    popped when the request resolves (completes or is abandoned), and the
    pending-retry buffer is capped at ``max_pending_retries``.
    """

    def __init__(self, config: ResilienceConfig) -> None:
        self.config = config
        self.retry_policy = get_retry_policy(config.retry)
        self.retry_enabled = not isinstance(self.retry_policy, NoRetry)
        self.expiry_enabled = config.deadline_s is not None or config.queue_timeout_s is not None
        # Outcome counters (all report fields).
        self.deadline_missed = 0
        self.timed_out = 0
        self.load_shed = 0
        self.truncated = 0
        self.retries = 0
        self.abandoned = 0
        self.goodput_tokens = 0
        self.slo_violations = 0
        self.failure_hits = 0
        self.downtime_s = 0.0
        # Bounded in-flight state.
        self.pending_retries = 0
        self.peak_pending_retries = 0
        self._attempts: Dict[int, Tuple[int, float]] = {}  # id -> (attempt, attempt arrival)
        self._credit: Dict[int, int] = {}  # id -> checkpointed tokens resumed over
        self._episode_start: Dict[int, float] = {}
        self._episode_open: Dict[int, int] = {}  # episode -> unresolved victims
        self._victim_episodes: Dict[int, List[int]] = {}  # id -> episodes it victims
        self._next_episode = 0
        self._mttr_sum = 0.0
        self._mttr_count = 0
        self._next_sweep = 0.0
        # Brown-out state.
        self.brownout_active = False
        self.brownouts = 0
        window = config.brownout.window if config.brownout is not None else 8
        self._ttft_window: Deque[float] = deque(maxlen=window)
        self._push_retry: Optional[Callable[[float, Request], None]] = None

    def bind(self, push_retry: Callable[[float, Request], None]) -> None:
        """Connect the engine's event heap (a ``retry`` event pusher)."""
        self._push_retry = push_retry

    # --- deadlines and timeouts --------------------------------------------

    def deadline_at(self, request: Request) -> float:
        """Absolute wall-clock deadline of a request (inf when none)."""
        budget = request.deadline if request.deadline is not None else self.config.deadline_s
        return request.arrival + budget if budget is not None else math.inf

    def expired_deadline(self, request: Request, now: float) -> bool:
        return now > self.deadline_at(request)

    def _attempt_arrival(self, request: Request) -> float:
        entry = self._attempts.get(request.request_id)
        return entry[1] if entry is not None else request.arrival

    def expire(self, request: Request, now: float) -> Optional[str]:
        """Why a *queued* request should be shed right now (None = keep)."""
        if self.expired_deadline(request, now):
            return "deadline"
        timeout = self.config.queue_timeout_s
        if timeout is not None and now - self._attempt_arrival(request) > timeout:
            return "timeout"
        return None

    def sweep_queue(self, queue: Deque[Request], now: float) -> None:
        """Shed expired requests from a work queue, preserving order.

        The head is always checked (exact for FIFO service); the full scan
        runs at most every ``sweep_interval`` seconds so deep queues under
        a retry storm stay O(1) amortized per event.  A mid-queue request
        that outlives its deadline between sweeps is still excluded from
        goodput at completion — lazy enforcement, like real admission
        control.
        """
        if not self.expiry_enabled or not queue:
            return
        while queue:
            reason = self.expire(queue[0], now)
            if reason is None:
                break
            self.shed(queue.popleft(), now, reason)
        if now < self._next_sweep or not queue:
            return
        self._next_sweep = now + self.config.sweep_interval
        survivors: List[Request] = []
        expired: List[Tuple[Request, str]] = []
        for request in queue:
            reason = self.expire(request, now)
            if reason is None:
                survivors.append(request)
            else:
                expired.append((request, reason))
        if not expired:
            return
        queue.clear()
        queue.extend(survivors)
        for request, reason in expired:
            self.shed(request, now, reason)

    # --- brown-out admission -----------------------------------------------

    def note_ttft(self, value: float) -> None:
        """Feed the rolling TTFT window (brown-out trip signal)."""
        if self.config.brownout is not None:
            self._ttft_window.append(value)

    def _window_p99(self) -> float:
        if not self._ttft_window:
            return 0.0
        return float(np.percentile(np.asarray(self._ttft_window), 99))

    def _update_brownout(self, queue_depth: int) -> None:
        guard = self.config.brownout
        if not self.brownout_active:
            tripped = queue_depth >= guard.queue_depth_high or (
                guard.ttft_p99_high is not None and self._window_p99() >= guard.ttft_p99_high
            )
            if tripped:
                self.brownout_active = True
                self.brownouts += 1
        else:
            cleared = queue_depth <= guard.queue_depth_low and (
                guard.ttft_p99_high is None or self._window_p99() <= guard.ttft_p99_low
            )
            if cleared:
                self.brownout_active = False

    def admit(self, request: Request, now: float, queue_depth: int) -> Optional[Request]:
        """Gate one arrival (or retry re-arrival) at the front door.

        Returns the request to enqueue — possibly output-truncated under
        brown-out — or ``None`` when it was shed (already accounted).
        """
        guard = self.config.brownout
        if guard is None:
            return request
        self._update_brownout(queue_depth)
        if not self.brownout_active:
            return request
        if request.priority >= guard.shed_priority_floor:
            self.shed(request, now, "load")
            return None
        limit = guard.truncate_output_to
        if limit is not None and request.output_tokens > limit:
            self.truncated += 1
            request = replace(request, output_tokens=limit)
        return request

    # --- shed / retry -------------------------------------------------------

    def shed(self, request: Request, now: float, reason: str) -> None:
        """Remove one attempt from the system and consult the retry policy.

        ``reason`` is ``"deadline"`` (terminal — the e2e budget is gone),
        ``"timeout"`` (per-attempt wait bound), or ``"load"`` (brown-out);
        the latter two re-arrive later if the retry policy grants a backoff
        that still fits inside the deadline and the bounded retry buffer.
        """
        if reason == "deadline":
            self.deadline_missed += 1
            self._resolve(request.request_id, now, completed=False)
            return
        if reason == "timeout":
            self.timed_out += 1
        else:
            self.load_shed += 1
        attempt = self._attempts.get(request.request_id, (0, 0.0))[0] + 1
        delay = (
            self.retry_policy.next_delay(request.request_id, attempt)
            if self.retry_enabled
            else None
        )
        retry_at = now + delay if delay is not None else None
        if (
            retry_at is None
            or retry_at > self.deadline_at(request)
            or self.pending_retries >= self.config.max_pending_retries
        ):
            self.abandoned += 1
            self._resolve(request.request_id, now, completed=False)
            return
        self._attempts[request.request_id] = (attempt, retry_at)
        self.pending_retries += 1
        if self.pending_retries > self.peak_pending_retries:
            self.peak_pending_retries = self.pending_retries
        self._push_retry(retry_at, request)

    def on_retry_fired(self) -> None:
        """A backoff elapsed: the re-arrival is leaving the retry buffer."""
        self.pending_retries -= 1
        self.retries += 1

    # --- failures and checkpointed restarts ---------------------------------

    def resume_request(self, request: Request, generated: int) -> Request:
        """The request a failure victim restarts as.

        Without checkpointing (or before the first interval) this is the
        request itself — restart from prefill.  With ``K``-token
        checkpoints the victim resumes past its last completed interval:
        the checkpointed tokens move into the prompt (their KV is restored
        by the restore prefill, priced like any prefill over the larger
        prompt) and out of the remaining output budget.  The moved tokens
        are remembered as *credit* so throughput counts them exactly once,
        at final completion.
        """
        interval = self.config.checkpoint_interval
        if interval is None or generated < interval:
            return request
        restored = (generated // interval) * interval
        self._credit[request.request_id] = self._credit.get(request.request_id, 0) + restored
        return replace(
            request,
            prompt_tokens=request.prompt_tokens + restored,
            output_tokens=request.output_tokens - restored,
        )

    def on_failure_hit(
        self, now: float, repair_s: float, victim_ids: Sequence[int], downtime_ext: float
    ) -> None:
        """Account one failure landing on live hardware.

        ``downtime_ext`` is the *new* downtime this hit adds to the
        instance (overlapping outages extend, never double-count).  MTTR
        measures each hit's episode from impact until its last victim
        resolves; a victimless hit recovers in exactly the repair time.
        """
        self.failure_hits += 1
        self.downtime_s += max(0.0, downtime_ext)
        if not victim_ids:
            self._mttr_sum += repair_s
            self._mttr_count += 1
            return
        episode = self._next_episode
        self._next_episode += 1
        self._episode_start[episode] = now
        self._episode_open[episode] = len(victim_ids)
        for request_id in victim_ids:
            self._victim_episodes.setdefault(request_id, []).append(episode)

    def _resolve(self, request_id: int, now: float, completed: bool) -> None:
        """A request left the system: pop its state, close its episodes."""
        self._attempts.pop(request_id, None)
        if not completed:
            self._credit.pop(request_id, None)
        for episode in self._victim_episodes.pop(request_id, ()):
            remaining = self._episode_open[episode] - 1
            if remaining:
                self._episode_open[episode] = remaining
            else:
                del self._episode_open[episode]
                self._mttr_sum += now - self._episode_start.pop(episode)
                self._mttr_count += 1

    # --- completion ---------------------------------------------------------

    def on_complete(
        self, request: Request, finish: float, ttft: float, mean_tbt: float
    ) -> int:
        """Classify one completion; returns the checkpoint token credit.

        The credit (tokens generated before a checkpointed restart) is
        added to the engine's output-token counter here, at the single
        completion of the final incarnation — earlier incarnations never
        completed, so nothing double-counts.
        """
        credit = self._credit.pop(request.request_id, 0)
        config = self.config
        good = True
        violated = False
        if config.slo_ttft_s is not None and ttft > config.slo_ttft_s:
            violated = True
        if config.slo_tbt_s is not None and mean_tbt > config.slo_tbt_s:
            violated = True
        if config.slo_e2e_s is not None and finish - request.arrival > config.slo_e2e_s:
            violated = True
        if violated:
            self.slo_violations += 1
            good = False
        if finish > self.deadline_at(request):
            good = False
        if good:
            self.goodput_tokens += request.output_tokens + credit
        self._resolve(request.request_id, finish, completed=True)
        return credit

    # --- reporting ----------------------------------------------------------

    def report_fields(self, instance_seconds: float) -> Dict[str, float]:
        """Counters, MTTR and availability; the report assembler derives the rates."""
        if instance_seconds > 0:
            downtime = min(self.downtime_s, instance_seconds)
            availability = 1.0 - downtime / instance_seconds
        else:
            availability = 1.0
        return {
            "deadline_missed": self.deadline_missed,
            "timed_out": self.timed_out,
            "load_shed": self.load_shed,
            "truncated": self.truncated,
            "retries": self.retries,
            "abandoned": self.abandoned,
            "goodput_tokens": self.goodput_tokens,
            "slo_violations": self.slo_violations,
            "failure_hits": self.failure_hits,
            "mttr_s": self._mttr_sum / self._mttr_count if self._mttr_count else 0.0,
            "availability": availability,
        }


def goodput_dip(baseline, faulted) -> float:
    """Relative goodput lost to a fault: 0 = unharmed, 1 = everything lost.

    The chaos harness's blast-radius scalar: compare the same deployment's
    faulted run against its failure-free baseline.
    """
    if baseline.goodput_tokens_per_s <= 0:
        return 0.0
    return max(0.0, 1.0 - faulted.goodput_tokens_per_s / baseline.goodput_tokens_per_s)
