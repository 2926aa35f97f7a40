"""Layer tracer: wrappers around the simulator's public calls, installed from here.

Two kinds of boundary are recorded, both on one stack of open frames:

- **spans** for coarse calls (a simulator construction, an engine run, a
  fluid report, a shard): name, start, end and the enclosing span, kept in
  memory and written out when the benchmark ends;
- **per-event counters** for calls made hundreds of thousands of times (a
  heap push, a service-time lookup, a sketch insert): a call count and
  accumulated seconds at the same boundary, because a span per call would
  cost more than the call.

A frame's *self time* is its duration minus the part its children cover.
For spans that is the union of the child spans' intervals (clipped to the
parent) plus the per-event time spent directly inside it; for per-event
frames it is the accumulated time minus everything timed inside them.  Self
times of every frame plus the benchmark's own root spans add up to the
traced wall time, which is how the per-layer table reconciles.

Frame names are ``<layer>.<call>``, with layers named after the program's
modules (``engine``, ``provider``, ``roofline``, ``streaming``, ...).
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

perf_counter = time.perf_counter


@dataclass
class Span:
    """One coarse call: ``parent`` indexes the enclosing span (or is None)."""

    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    # Per-event seconds timed directly inside this span (not in a child span).
    inner: float = 0.0
    # False when a per-event frame sits between this span and its parent:
    # that frame's time already covers this span, so the parent must not
    # subtract the span's interval a second time.
    direct: bool = True
    # Set while open: the span's own index, so children can point at it.
    index: int = -1


class _Event:
    """An open per-event frame: accumulates the time of frames nested in it."""

    __slots__ = ("name", "inner")

    def __init__(self, name: str) -> None:
        self.name = name
        self.inner = 0.0


def union_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``.

    >>> union_length([(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)], 0.0, 10.0)
    7.0
    """
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def span_self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of every span: duration minus children's covered part.

    Children are the spans whose ``parent`` is this span's index and that
    were opened directly inside it; their intervals are merged (overlapping
    children count once) and clipped to the parent, and the per-event time
    recorded directly inside the span (``inner``) is subtracted as well.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None and span.direct:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = union_length(children.get(i, ()), span.start, span.end)
        out.append(span.end - span.start - covered - span.inner)
    return out


@dataclass
class Phase:
    """Everything recorded between two :meth:`Tracer.take` calls."""

    spans: List[Span] = field(default_factory=list)
    # name -> [calls, total seconds, seconds of frames nested inside]
    events: Dict[str, List[float]] = field(default_factory=dict)
    # Plain counters (pushes by kind, requests generated, misses, ...).
    counts: Dict[str, float] = field(default_factory=dict)
    # Maxima (heap depth, sketch centroids, shard imbalance).
    peaks: Dict[str, float] = field(default_factory=dict)

    def span_total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def span_self(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        return sum(
            own for s, own in zip(self.spans, span_self_times(self.spans)) if s.name == name
        )

    def event_self(self, name: str) -> float:
        _, total, inner = self.events.get(name, (0, 0.0, 0.0))
        return total - inner


class Tracer:
    """Records spans and per-event counters on one stack of open frames."""

    def __init__(self) -> None:
        self.phase = Phase()
        self.stack: List[object] = []

    # --- recording --------------------------------------------------------

    def open_span(self, name: str) -> Span:
        parent = None
        for frame in reversed(self.stack):
            if isinstance(frame, Span):
                parent = frame.index
                break
        direct = not (self.stack and isinstance(self.stack[-1], _Event))
        span = Span(name=name, start=perf_counter(), parent=parent, direct=direct)
        span.index = len(self.phase.spans)
        self.phase.spans.append(span)
        self.stack.append(span)
        return span

    def close_span(self, span: Span) -> None:
        span.end = perf_counter()
        self.stack.pop()
        # A span nested in a per-event frame is part of that frame's
        # nested time; a span nested in a span is covered by its interval.
        if self.stack and isinstance(self.stack[-1], _Event):
            self.stack[-1].inner += span.end - span.start

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """``with tracer.span("bench.op"): ...``"""
        span = self.open_span(name)
        try:
            yield span
        finally:
            self.close_span(span)

    def inside(self, layer: str) -> bool:
        """Is the innermost open frame part of ``layer``?"""
        if not self.stack:
            return False
        return self.stack[-1].name.split(".", 1)[0] == layer

    def count(self, name: str, amount: float = 1) -> None:
        counts = self.phase.counts
        counts[name] = counts.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        peaks = self.phase.peaks
        if value > peaks.get(name, float("-inf")):
            peaks[name] = value

    def take(self) -> Phase:
        """Hand over what was recorded so far and start a fresh phase."""
        if self.stack:
            raise RuntimeError("tracer.take() with frames still open")
        phase, self.phase = self.phase, Phase()
        return phase

    # --- wrappers ---------------------------------------------------------

    def spanned(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call is a span; ``after(result, args)`` may count."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close_span(span)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` as a per-event boundary: count plus accumulated time."""
        stack = self.stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Event(name)
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                record = tracer.phase.events.get(name)
                if record is None:
                    record = tracer.phase.events[name] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += frame.inner
                if stack:
                    stack[-1].inner += elapsed

        return wrapper


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        # Read through __dict__ so staticmethod wrappers are restored as-is.
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
