"""Synthetic request traces standing in for production inference traces.

The paper takes from the Splitwise production study only two facts: the median
prompt length for the coding workload (1500 tokens, used as a constant) and
the latency SLOs (TTFT <= 1 s, TBT <= 50 ms).  For the serving simulator and
scheduler experiments we need full traces, so this module generates synthetic
ones: Poisson (or uniform) arrivals with configurable prompt / output token
length distributions.  Distributions default to the lognormal shapes commonly
reported for production LLM traffic, with medians pinned to the paper's
numbers.

Determinism: every generator takes an explicit ``numpy`` seed so experiments
are exactly reproducible.
"""

from __future__ import annotations

import enum
import hashlib
import heapq
import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SpecError
from ..exec.seeding import derive_seed


class LengthDistribution(enum.Enum):
    """Token-length distribution families for prompts and outputs."""

    CONSTANT = "constant"
    UNIFORM = "uniform"
    LOGNORMAL = "lognormal"


@dataclass(frozen=True)
class Request:
    """One inference request.

    ``arrival`` is in seconds from trace start; ``prompt_tokens`` is the
    prefill length; ``output_tokens`` the number of decode iterations the
    request will run before completing (at least 1 — the simulators assume
    every request decodes at least one token).

    The resilience layer (:mod:`repro.cluster.resilience`) reads two
    optional fields: ``priority`` (0 = most important; brown-out modes
    shed from the highest numbers down) and ``deadline`` — an end-to-end
    budget in seconds from ``arrival``, after which the request is shed
    and counted as a deadline miss.  Both default to inert values and are
    excluded from :func:`trace_fingerprint`.
    """

    request_id: int
    arrival: float
    prompt_tokens: int
    output_tokens: int
    priority: int = 0
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise SpecError("arrival must be non-negative")
        if self.prompt_tokens <= 0 or self.output_tokens <= 0:
            raise SpecError("prompt_tokens and output_tokens must be positive")
        if self.deadline is not None and self.deadline <= 0:
            raise SpecError("deadline must be positive (seconds from arrival)")

    @property
    def total_tokens(self) -> int:
        """Prompt plus generated tokens (final KV footprint)."""
        return self.prompt_tokens + self.output_tokens


@dataclass(frozen=True)
class TraceConfig:
    """Parameters of a synthetic trace.

    ``rate`` is the mean arrival rate in requests/second.  Prompt lengths
    default to the paper's constant 1500 tokens; outputs default to a
    lognormal with median 250 tokens (a typical production shape), clamped
    to [1, max_output].
    """

    rate: float = 10.0
    duration: float = 60.0
    prompt_dist: LengthDistribution = LengthDistribution.CONSTANT
    prompt_tokens: int = 1500
    prompt_spread: float = 0.5  # lognormal sigma or uniform half-width ratio
    output_dist: LengthDistribution = LengthDistribution.LOGNORMAL
    output_tokens: int = 250
    output_spread: float = 0.7
    max_prompt: int = 8192
    max_output: int = 4096
    poisson_arrivals: bool = True

    def __post_init__(self) -> None:
        if self.rate <= 0 or self.duration <= 0:
            raise SpecError("rate and duration must be positive")
        if self.prompt_tokens <= 0 or self.output_tokens <= 0:
            raise SpecError("token medians must be positive")
        if self.max_prompt < self.prompt_tokens:
            raise SpecError("max_prompt below the prompt median")
        if self.max_output < 1:
            raise SpecError("max_output must be at least 1")


def _sample_lengths(
    rng: np.random.Generator,
    dist: LengthDistribution,
    median: int,
    spread: float,
    maximum: int,
    n: int,
) -> np.ndarray:
    """Sample ``n`` token lengths from the requested family, clamped to
    [1, maximum]; the median of the family equals ``median``."""
    if dist is LengthDistribution.CONSTANT:
        lengths = np.full(n, median, dtype=np.int64)
    elif dist is LengthDistribution.UNIFORM:
        half = max(1, int(median * spread))
        lengths = rng.integers(max(1, median - half), median + half + 1, size=n)
    elif dist is LengthDistribution.LOGNORMAL:
        # For lognormal, exp(mu) is the median.
        lengths = np.ceil(rng.lognormal(math.log(median), spread, size=n)).astype(np.int64)
    else:  # pragma: no cover - exhaustive enum
        raise SpecError(f"unknown distribution {dist}")
    return np.clip(lengths, 1, maximum)


#: Requests built per ``tolist()`` batch of a window's draws.
_BATCH = 256


def _window(
    config: TraceConfig, seed: int, first_id: int = 0, start: float = 0.0
) -> Tuple[int, Iterator[Request]]:
    """Draw one trace window: its request count and its requests, built lazily.

    Arrivals are Poisson (exponential gaps) or evenly spaced, truncated at
    ``config.duration`` seconds, then shifted by ``start`` (one float
    addition, ``arrival + start``); ids run from ``first_id``.  Each
    ``Request`` is built once, on demand, from the ``tolist()`` values of
    the draws, ``_BATCH`` requests at a time: a window holds its draws as
    arrays, not requests, and its temporary lists never grow with it.
    """
    rng = np.random.default_rng(seed)
    expected = config.rate * config.duration
    # Draw enough inter-arrival gaps to cover the horizon with margin.
    n_draw = max(16, int(expected * 2 + 10 * math.sqrt(expected + 1)))
    if config.poisson_arrivals:
        gaps = rng.exponential(1.0 / config.rate, size=n_draw)
    else:
        gaps = np.full(n_draw, 1.0 / config.rate)
    arrivals = np.cumsum(gaps)
    arrivals = arrivals[arrivals <= config.duration]
    n = len(arrivals)
    prompts = _sample_lengths(
        rng, config.prompt_dist, config.prompt_tokens, config.prompt_spread, config.max_prompt, n
    )
    outputs = _sample_lengths(
        rng, config.output_dist, config.output_tokens, config.output_spread, config.max_output, n
    )
    ids = range(first_id, first_id + n)
    batches = (
        map(
            Request,
            ids[lo : lo + _BATCH],
            (arrivals[lo : lo + _BATCH] + start).tolist(),
            prompts[lo : lo + _BATCH].tolist(),
            outputs[lo : lo + _BATCH].tolist(),
        )
        for lo in range(0, n, _BATCH)
    )
    return n, itertools.chain.from_iterable(batches)


def generate_trace(config: TraceConfig, seed: int = 0) -> List[Request]:
    """Generate a request trace according to ``config``.

    Arrivals are Poisson (exponential gaps) or evenly spaced; the trace is
    truncated at ``config.duration`` seconds.

    >>> trace = generate_trace(TraceConfig(rate=5, duration=10), seed=1)
    >>> all(r.arrival <= 10 for r in trace)
    True
    """
    return list(_window(config, seed)[1])


def iter_trace(
    config: TraceConfig, seed: int = 0, window: float = 60.0
) -> Iterator[Request]:
    """Generate a trace lazily in bounded time windows.

    The streaming counterpart of :func:`generate_trace` for traces too
    large to materialize (a 10M-request day): requests are drawn one
    ``window``-second segment at a time, so peak memory is
    O(``rate * window``) instead of O(``rate * duration``).  Arrivals are
    non-decreasing — exactly what the engines' one-ahead arrival feeding
    requires — and request ids are sequential from 0.

    Each window's RNG seed derives from ``(seed, window index)`` by
    content hash, so the stream is fully deterministic for a given
    ``(config, seed, window)`` — two iterations yield identical requests —
    but it is a *different* (equally distributed) trace than the one-shot
    :func:`generate_trace` draw or another window size.  Window ``k`` is
    exactly :func:`generate_trace` of that window's span and seed with ids
    offset by the requests before it and arrivals by the window's start
    (``arrival + start``).  Each yielded ``Request`` is constructed once:
    a window holds its draws as arrays and builds each request when it is
    taken, never a list of requests.

    >>> config = TraceConfig(rate=5, duration=120)
    >>> lazy = list(iter_trace(config, seed=1, window=30.0))
    >>> lazy == list(iter_trace(config, seed=1, window=30.0))
    True
    >>> all(a.arrival <= b.arrival for a, b in zip(lazy, lazy[1:]))
    True
    >>> [r.request_id for r in lazy] == list(range(len(lazy)))
    True
    """
    if window <= 0:
        raise SpecError("window must be positive")
    next_id = 0
    start = 0.0
    index = 0
    while start < config.duration:
        span = min(window, config.duration - start)
        count, requests = _window(
            replace(config, duration=span), derive_seed(seed, "window", index), next_id, start
        )
        yield from requests
        next_id += count
        start += span
        index += 1


def imerge_traces(*traces: Iterable[Request]) -> Iterator[Request]:
    """Merge arrival-ordered request streams lazily with fresh ids.

    The streaming counterpart of :func:`merge_traces`: memory stays
    O(number of streams) regardless of trace length.  Each input must be
    arrival-ordered (as :func:`iter_trace` and :func:`generate_trace`
    outputs are); ties on arrival break deterministically by input stream
    position.

    >>> a = generate_trace(TraceConfig(rate=2, duration=5), seed=0)
    >>> b = generate_trace(TraceConfig(rate=3, duration=5), seed=1)
    >>> lazy = list(imerge_traces(iter(a), iter(b)))
    >>> [r.arrival for r in lazy] == [r.arrival for r in merge_traces(a, b)]
    True
    >>> [r.request_id for r in lazy] == list(range(len(a) + len(b)))
    True
    """
    merged = heapq.merge(*traces, key=lambda r: r.arrival)
    for i, r in enumerate(merged):
        yield replace(r, request_id=i)


def generate_piecewise_trace(
    segments: Sequence[tuple],
    base: TraceConfig | None = None,
    seed: int = 0,
) -> List[Request]:
    """A bursty trace from back-to-back constant-rate segments.

    ``segments`` is a sequence of ``(rate, duration)`` pairs; each segment
    reuses every other knob of ``base`` (token shapes, arrival process)
    and is shifted to start where the previous one ended — the diurnal /
    burst workloads the elastic control plane is judged on.  Segment RNG
    seeds derive from ``seed`` by content hash, so two traces differing
    only in one segment's rate share nothing.

    >>> trace = generate_piecewise_trace([(2.0, 10.0), (8.0, 10.0)], seed=1)
    >>> max(r.arrival for r in trace) <= 20.0
    True
    >>> len([r for r in trace if r.arrival > 10]) > len([r for r in trace if r.arrival <= 10])
    True
    """
    if not segments:
        raise SpecError("segments must be non-empty")
    base = base or TraceConfig()
    pieces: List[List[Request]] = []
    start = 0.0
    for index, (rate, duration) in enumerate(segments):
        config = replace(base, rate=rate, duration=duration)
        pieces.append(list(_window(config, derive_seed(seed, "segment", index), 0, start)[1]))
        start += duration
    return merge_traces(*pieces)


def merge_traces(*traces: Sequence[Request]) -> List[Request]:
    """Merge traces into one arrival-ordered trace with fresh request ids.

    Used to compose multi-tenant workloads (e.g. a chatty short-output
    tenant plus a long-prompt summarization tenant) for the serving
    simulators, which require unique ``request_id`` values.  Ordering is
    deterministic: ties on arrival break by the original id.

    >>> a = generate_trace(TraceConfig(rate=2, duration=5), seed=0)
    >>> b = generate_trace(TraceConfig(rate=3, duration=5), seed=1)
    >>> merged = merge_traces(a, b)
    >>> len(merged) == len(a) + len(b)
    True
    >>> all(x.arrival <= y.arrival for x, y in zip(merged, merged[1:]))
    True
    >>> sorted({r.request_id for r in merged}) == list(range(len(merged)))
    True
    """
    ordered = sorted(
        (r for trace in traces for r in trace), key=lambda r: (r.arrival, r.request_id)
    )
    return [replace(r, request_id=i) for i, r in enumerate(ordered)]


def trace_fingerprint(trace: Sequence[Request]) -> str:
    """Content hash of a trace, for experiment cache keys.

    Covers the workload-identity fields of every request (id, arrival,
    prompt and output tokens — not the resilience annotations); arrivals
    hash via ``float.hex`` so the fingerprint is exact (two traces collide
    only if identical).

    >>> a = generate_trace(TraceConfig(rate=5, duration=10), seed=1)
    >>> trace_fingerprint(a) == trace_fingerprint(list(a))
    True
    >>> b = generate_trace(TraceConfig(rate=5, duration=10), seed=2)
    >>> trace_fingerprint(a) != trace_fingerprint(b)
    True
    """
    digest = hashlib.sha256()
    for r in trace:
        digest.update(
            f"{r.request_id},{r.arrival.hex()},{r.prompt_tokens},{r.output_tokens};".encode()
        )
    return digest.hexdigest()


def trace_stats(trace: Sequence[Request]) -> dict:
    """Summary statistics of a trace (used by reports and tests)."""
    if not trace:
        return {"requests": 0}
    prompts = np.array([r.prompt_tokens for r in trace])
    outputs = np.array([r.output_tokens for r in trace])
    arrivals = np.array([r.arrival for r in trace])
    duration = float(arrivals.max()) if len(arrivals) else 0.0
    return {
        "requests": len(trace),
        "duration": duration,
        "rate": len(trace) / duration if duration > 0 else float("inf"),
        "prompt_mean": float(prompts.mean()),
        "prompt_p50": float(np.median(prompts)),
        "output_mean": float(outputs.mean()),
        "output_p50": float(np.median(outputs)),
        "total_prompt_tokens": int(prompts.sum()),
        "total_output_tokens": int(outputs.sum()),
    }
