"""Constant-memory streaming metrics: quantile sketches and reservoirs.

The exact simulation path materializes every completed request and latency
sample before computing percentiles — O(requests) memory, which caps how
long a trace the engine can replay.  This module provides the bounded
accumulators behind ``SimConfig(metrics="streaming")``:

- :class:`QuantileSketch` — a mergeable t-digest-style sketch (Dunning &
  Ertl, arXiv 1902.04023): centroids sized by a ``q·(1-q)`` scale bound,
  so tail quantiles (P99 TTFT/TBT) keep high resolution while the middle
  compresses.  Deterministic (no RNG) and associative under :meth:`merge`
  up to floating-point tolerance — the property sharded simulation needs.
- :class:`ReservoirSampler` — a seeded, mergeable uniform sample of an
  unbounded stream, for distribution-level analysis (histograms, QQ plots)
  where a sketch's centroids are too coarse.
- :class:`StreamingMetrics` — the engine-facing bundle: one sketch per
  latency metric (TTFT, mean TBT, E2E) plus exact integer counters.
  Counters merge bit-exactly across shards; sketch quantiles are estimates
  (≤1% relative error on P50/P99 at 10k+ samples, property-pinned in
  ``tests/analysis/test_streaming.py``).

Everything here is plain Python + numpy, picklable, and free of imports
from the cluster layer, so worker processes can ship sketches back for a
deterministic merge.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SpecError

__all__ = ["QuantileSketch", "ReservoirSampler", "StreamingMetrics"]

#: Unsorted values buffered before a compression pass.  Larger buffers
#: amortize sorting; the sketch's memory bound is ``O(compression + buffer)``.
_BUFFER_LIMIT = 512


class QuantileSketch:
    """Mergeable t-digest-style quantile sketch with bounded memory.

    ``compression`` bounds the resident centroid count (and so the rank
    error, roughly ``q·(1-q)/compression``); 200 keeps P50/P99 within 1%
    relative error on the latency-shaped distributions the simulator
    produces while holding ~2 KiB of state.  ``add`` is amortized O(1);
    ``quantile`` interpolates linearly between centroid midpoints with the
    exact stream min/max as anchors, so Q0/Q1 are exact.

    >>> sketch = QuantileSketch()
    >>> for value in range(1, 10001):
    ...     sketch.add(float(value))
    >>> abs(sketch.quantile(0.5) - 5000.5) / 5000.5 < 0.01
    True
    """

    __slots__ = ("compression", "count", "_sum", "_min", "_max",
                 "_means", "_weights", "_buffer")

    def __init__(self, compression: int = 200) -> None:
        if compression < 20:
            raise SpecError("compression must be at least 20")
        self.compression = int(compression)
        self.count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._means: List[float] = []
        self._weights: List[float] = []
        self._buffer: List[float] = []

    @property
    def mean(self) -> float:
        """Exact running mean of the stream (NaN when empty)."""
        return self._sum / self.count if self.count else float("nan")

    def add(self, value: float) -> None:
        """Absorb one observation."""
        value = float(value)
        self.count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._buffer.append(value)
        if len(self._buffer) >= _BUFFER_LIMIT:
            self._flush()

    def extend(self, values: Sequence[float]) -> None:
        """Absorb a batch of observations."""
        for value in values:
            self.add(value)

    def _flush(self) -> None:
        if not self._buffer:
            return
        items = sorted(
            list(zip(self._means, self._weights))
            + [(value, 1.0) for value in self._buffer]
        )
        self._buffer.clear()
        self._set_compressed(items)

    def _set_compressed(self, items: List[Tuple[float, float]]) -> None:
        """Compress ``items`` into the resident centroids, enforcing the cap.

        One pass usually suffices; when tail singletons keep the count above
        ``4·compression`` (they can never pair under a weight limit of 1),
        further passes double the allowed cluster weight until the hard cap
        holds — so memory is strictly bounded, not just bounded-in-practice.
        """
        means, weights = self._compress(items)
        scale = 1.0
        while len(means) > 4 * self.compression:
            scale *= 2.0
            means, weights = self._compress(list(zip(means, weights)), scale)
        self._means, self._weights = means, weights

    def _compress(
        self, items: List[Tuple[float, float]], scale: float = 1.0
    ) -> Tuple[List[float], List[float]]:
        """One merge pass over mean-sorted ``(mean, weight)`` centroids.

        A centroid at mid-quantile ``q`` may hold at most
        ``scale · max(1, 4·total·q·(1-q)/compression)`` weight — small near
        the tails, so extreme quantiles stay sharp (the t-digest size
        bound).
        """
        total = math.fsum(weight for _, weight in items)
        # Hoisted out of the loop; every float operation keeps its order.
        span = 4.0 * total
        compression = self.compression
        means: List[float] = []
        weights: List[float] = []
        cur_mean, cur_weight = items[0]
        before = 0.0
        for mean, weight in items[1:]:
            merged = cur_weight + weight
            q = (before + cur_weight + weight / 2.0) / total
            bound = span * q * (1.0 - q) / compression
            limit = scale * (bound if bound > 1.0 else 1.0)
            if merged <= limit:
                cur_mean += (mean - cur_mean) * (weight / merged)
                cur_weight = merged
            else:
                means.append(cur_mean)
                weights.append(cur_weight)
                before += cur_weight
                cur_mean, cur_weight = mean, weight
        means.append(cur_mean)
        weights.append(cur_weight)
        return means, weights

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile of the stream seen so far.

        >>> QuantileSketch().quantile(0.5)  # empty stream
        nan
        """
        if not 0.0 <= q <= 1.0:
            raise SpecError("q must be in [0, 1]")
        self._flush()
        if self.count == 0:
            return float("nan")
        if self.count == 1 or q <= 0.0:
            return self._min if q <= 0.5 or self.count > 1 else self._max
        if q >= 1.0:
            return self._max
        weights = np.asarray(self._weights)
        # Centroid midpoint ranks, anchored by the exact stream extremes at
        # ranks 0 and count: linear interpolation between them.
        mids = np.concatenate(([0.0], np.cumsum(weights) - weights / 2.0, [float(self.count)]))
        means = np.concatenate(([self._min], np.asarray(self._means), [self._max]))
        return float(np.interp(q * self.count, mids, means))

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        """Vectorized :meth:`quantile` over several ranks."""
        return [self.quantile(q) for q in qs]

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch (in place; returns ``self``).

        Deterministic: merging the same sketches in the same order always
        yields the same centroids; different merge orders agree within the
        sketch's rank-error bound (property-pinned).
        """
        if not isinstance(other, QuantileSketch):
            raise SpecError("can only merge another QuantileSketch")
        other._flush()
        if other.count == 0:
            return self
        self._flush()
        items = sorted(
            list(zip(self._means, self._weights)) + list(zip(other._means, other._weights))
        )
        self.count += other.count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        self._set_compressed(items)
        return self

    def centroid_count(self) -> int:
        """Resident centroids (the memory bound; for tests/benchmarks)."""
        self._flush()
        return len(self._means)

    def __getstate__(self):
        self._flush()
        return {
            "compression": self.compression, "count": self.count, "sum": self._sum,
            "min": self._min, "max": self._max,
            "means": self._means, "weights": self._weights,
        }

    def __setstate__(self, state) -> None:
        self.compression = state["compression"]
        self.count = state["count"]
        self._sum = state["sum"]
        self._min = state["min"]
        self._max = state["max"]
        self._means = state["means"]
        self._weights = state["weights"]
        self._buffer = []


class ReservoirSampler:
    """Uniform fixed-capacity sample of an unbounded stream (Algorithm R).

    Seeded and therefore deterministic: the same stream under the same seed
    always yields the same sample.  :meth:`merge` draws a capacity-bounded
    sample of the *combined* stream by picking each slot from one side with
    probability proportional to how many items that side has seen.

    >>> r = ReservoirSampler(capacity=8, seed=1)
    >>> for value in range(1000):
    ...     r.add(float(value))
    >>> r.seen, len(r.sample)
    (1000, 8)
    """

    __slots__ = ("capacity", "seen", "sample", "_rng")

    def __init__(self, capacity: int = 4096, seed: int = 0) -> None:
        if capacity < 1:
            raise SpecError("capacity must be at least 1")
        self.capacity = int(capacity)
        self.seen = 0
        self.sample: List[float] = []
        self._rng = np.random.default_rng(seed)

    def add(self, value: float) -> None:
        """Absorb one observation, keeping a uniform sample."""
        self.seen += 1
        if len(self.sample) < self.capacity:
            self.sample.append(float(value))
            return
        slot = int(self._rng.integers(0, self.seen))
        if slot < self.capacity:
            self.sample[slot] = float(value)

    def merge(self, other: "ReservoirSampler") -> "ReservoirSampler":
        """Fold ``other`` into this reservoir (in place; returns ``self``)."""
        if not isinstance(other, ReservoirSampler):
            raise SpecError("can only merge another ReservoirSampler")
        if other.seen == 0:
            return self
        if self.seen == 0:
            self.seen, self.sample = other.seen, list(other.sample)
            return self
        total = self.seen + other.seen
        mine = list(self.sample)
        theirs = list(other.sample)
        merged: List[float] = []
        for _ in range(min(self.capacity, total)):
            take_mine = bool(mine) and (
                not theirs or self._rng.random() < self.seen / total
            )
            source = mine if take_mine else theirs
            merged.append(source.pop(int(self._rng.integers(0, len(source)))))
            if not mine and not theirs:
                break
        self.sample = merged
        self.seen = total
        return self

    def percentile(self, q: float) -> float:
        """``numpy.percentile`` over the resident sample (NaN when empty)."""
        if not self.sample:
            return float("nan")
        return float(np.percentile(np.asarray(self.sample), q * 100.0))


class StreamingMetrics:
    """Constant-memory accumulator behind ``SimConfig(metrics="streaming")``.

    One :class:`QuantileSketch` per latency metric plus exact integer
    counters.  Counters merge bit-exactly (integer sums commute); sketch
    quantiles are estimates.  Picklable, so shard workers can return one.
    """

    __slots__ = ("ttft", "tbt", "e2e", "completed", "output_tokens")

    def __init__(self, compression: int = 200) -> None:
        self.ttft = QuantileSketch(compression)
        self.tbt = QuantileSketch(compression)
        self.e2e = QuantileSketch(compression)
        self.completed = 0
        self.output_tokens = 0

    def record(self, ttft: float, mean_tbt: float, e2e: float, output_tokens: int) -> None:
        """Absorb one completed request."""
        self.ttft.add(ttft)
        self.tbt.add(mean_tbt)
        self.e2e.add(e2e)
        self.completed += 1
        self.output_tokens += int(output_tokens)

    def merge(self, other: "StreamingMetrics") -> "StreamingMetrics":
        """Fold another shard's metrics into this one (in place)."""
        if not isinstance(other, StreamingMetrics):
            raise SpecError("can only merge another StreamingMetrics")
        self.ttft.merge(other.ttft)
        self.tbt.merge(other.tbt)
        self.e2e.merge(other.e2e)
        self.completed += other.completed
        self.output_tokens += other.output_tokens
        return self

    @staticmethod
    def merged(parts: Sequence["StreamingMetrics"],
               compression: Optional[int] = None) -> "StreamingMetrics":
        """Merge shard metrics into a fresh accumulator (inputs untouched)."""
        if not parts:
            raise SpecError("cannot merge zero StreamingMetrics")
        out = StreamingMetrics(compression or parts[0].ttft.compression)
        for part in parts:
            out.merge(part)
        return out

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)
