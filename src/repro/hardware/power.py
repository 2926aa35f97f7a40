"""GPU power and DVFS models.

Section 3's power-management opportunity: a big GPU down-clocks *all* its SMs
together, while a cluster of Lite-GPUs can down-clock (or power-gate) each
small GPU independently — "akin to down-clocking only a portion of SMs in a
larger GPU" — and conversely over-clock a few Lite-GPUs to absorb peaks.

The models here are first-order but standard:

- dynamic power scales as ``f * V^2`` with voltage roughly linear in
  frequency over the DVFS range, so dynamic power ~ f^3 (configurable
  exponent, default 2.4 which matches measured GPU DVFS curves better than
  the cubic ideal);
- static (leakage) power is a constant fraction of TDP and is eliminated
  only by power-gating the whole device — which Lite-GPUs can do at 1/split
  granularity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import SpecError
from .gpu import GPUSpec


class ClockPolicy(enum.Enum):
    """Cluster clocking policies compared in the Section 3 experiments."""

    #: All devices at base clock at all times.
    ALWAYS_BASE = "base"
    #: Scale every device's clock together to match load (big-GPU behaviour).
    UNIFORM_DVFS = "uniform"
    #: Run ceil(load * n) devices at base clock, power-gate the rest
    #: (Lite-GPU behaviour: per-device granularity).
    POWER_GATE = "gate"
    #: Jointly choose the active-device count and their shared clock to
    #: minimize power (gate the rest).  This is the true granularity
    #: advantage: with superlinear DVFS there is an optimal per-device
    #: clock (~0.55 of base for the default curve), and only a fleet of
    #: many small devices can track it closely.
    GATE_PLUS_DVFS = "gate+dvfs"


@dataclass(frozen=True)
class DVFSCurve:
    """Frequency-to-power mapping for one device.

    ``static_fraction`` of TDP is leakage/baseline, burnt whenever the device
    is on; the dynamic remainder scales as ``clock_ratio ** exponent``.
    ``min_clock_ratio`` bounds how far DVFS can go down.
    """

    exponent: float = 2.4
    static_fraction: float = 0.25
    min_clock_ratio: float = 0.4

    def __post_init__(self) -> None:
        if self.exponent < 1.0:
            raise SpecError("DVFS exponent below 1 is unphysical")
        if not 0.0 <= self.static_fraction < 1.0:
            raise SpecError("static_fraction must be in [0, 1)")
        if not 0.0 < self.min_clock_ratio <= 1.0:
            raise SpecError("min_clock_ratio must be in (0, 1]")

    def power_ratio(self, clock_ratio: float) -> float:
        """Power as a fraction of TDP at ``clock_ratio`` of base clock."""
        if clock_ratio == 0.0:
            return 0.0  # power-gated
        if clock_ratio < 0.0:
            raise SpecError("clock_ratio must be non-negative")
        c = max(clock_ratio, self.min_clock_ratio)
        return self.static_fraction + (1.0 - self.static_fraction) * c**self.exponent

    def clock_for_power(self, power_fraction: float) -> float:
        """Largest clock ratio whose power fits ``power_fraction`` of TDP.

        The inverse of :meth:`power_ratio` over the DVFS range: returns a
        clock in ``[min_clock_ratio, 1]`` when the budget is reachable and
        ``0.0`` when even the DVFS floor exceeds it (the caller must then
        power-gate devices instead — exactly the granularity trade the
        power-cap controller makes).

        >>> curve = DVFSCurve()
        >>> curve.clock_for_power(1.0)
        1.0
        >>> curve.clock_for_power(0.0)
        0.0
        """
        if power_fraction < 0:
            raise SpecError("power_fraction must be non-negative")
        if power_fraction >= self.power_ratio(1.0):
            return 1.0
        if power_fraction < self.power_ratio(self.min_clock_ratio):
            return 0.0
        clock = (
            (power_fraction - self.static_fraction) / (1.0 - self.static_fraction)
        ) ** (1.0 / self.exponent)
        return min(1.0, max(self.min_clock_ratio, clock))

    def clock_for_throughput(self, throughput_ratio: float) -> float:
        """Clock ratio needed for ``throughput_ratio`` of base throughput
        (throughput assumed linear in clock, compute-bound)."""
        if not 0.0 <= throughput_ratio <= 1.0:
            raise SpecError("throughput_ratio must be in [0, 1]")
        if throughput_ratio == 0.0:
            return 0.0
        return max(self.min_clock_ratio, throughput_ratio)


@dataclass(frozen=True)
class PowerModel:
    """Power accounting for a homogeneous group of GPUs under a load level.

    ``load`` is the fraction of the group's aggregate base-clock throughput
    demanded (0..1 for the normal range; >1 requires overclocking).
    """

    gpu: GPUSpec
    count: int
    curve: DVFSCurve = DVFSCurve()

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise SpecError("count must be positive")

    @property
    def peak_power(self) -> float:
        """Aggregate TDP of the group (W)."""
        return self.count * self.gpu.tdp

    def power_at_load(self, load: float, policy: ClockPolicy) -> float:
        """Group power (W) serving ``load`` under ``policy``.

        Loads above 1.0 are served by uniform overclocking (all policies),
        with power following the DVFS exponent — valid only for GPU types
        whose cooling admits it (small dies; see :mod:`.cooling`).
        """
        if load < 0:
            raise SpecError("load must be non-negative")
        tdp = self.gpu.tdp
        if load > 1.0:
            return self.count * tdp * self.curve.power_ratio(load)
        if policy is ClockPolicy.ALWAYS_BASE:
            return self.count * tdp * self.curve.power_ratio(1.0)
        if policy is ClockPolicy.UNIFORM_DVFS:
            clock = self.curve.clock_for_throughput(load)
            return self.count * tdp * self.curve.power_ratio(clock)
        active_exact = load * self.count
        if policy is ClockPolicy.POWER_GATE:
            active = int(np.ceil(active_exact))
            return active * tdp * self.curve.power_ratio(1.0)
        if policy is ClockPolicy.GATE_PLUS_DVFS:
            if load == 0.0:
                return 0.0
            # Joint optimum over (active count, shared clock): throughput
            # active * clock must cover load * count; clock in
            # [min_clock, 1].  O(count) scan — exact, and naturally finer
            # for fleets of many small devices.
            best = float("inf")
            lowest = max(1, int(np.ceil(active_exact)))
            for active in range(lowest, self.count + 1):
                clock = max(active_exact / active, self.curve.min_clock_ratio)
                best = min(best, active * tdp * self.curve.power_ratio(clock))
            return best
        raise SpecError(f"unknown policy {policy}")  # pragma: no cover

    def energy_over_profile(self, loads: np.ndarray, interval_s: float, policy: ClockPolicy) -> float:
        """Energy (J) over a load profile sampled every ``interval_s``."""
        if interval_s <= 0:
            raise SpecError("interval_s must be positive")
        return float(sum(self.power_at_load(float(load), policy) for load in loads) * interval_s)

    def savings_vs_base(self, loads: np.ndarray, interval_s: float, policy: ClockPolicy) -> float:
        """Fractional energy saving of ``policy`` vs. ALWAYS_BASE."""
        base = self.energy_over_profile(loads, interval_s, ClockPolicy.ALWAYS_BASE)
        this = self.energy_over_profile(loads, interval_s, policy)
        return 1.0 - this / base if base > 0 else 0.0


def diurnal_load_profile(
    samples: int = 96,
    low: float = 0.25,
    high: float = 0.95,
    peak_hour: float = 14.0,
    seed: int | None = None,
    noise: float = 0.02,
) -> np.ndarray:
    """A smooth 24h load profile (fraction of peak) for power experiments.

    Sinusoidal day/night swing between ``low`` and ``high`` peaking at
    ``peak_hour``, with optional Gaussian noise, clipped to [0, 1].
    """
    if samples <= 0:
        raise SpecError("samples must be positive")
    if not 0.0 <= low <= high <= 1.0:
        raise SpecError("need 0 <= low <= high <= 1")
    hours = np.linspace(0.0, 24.0, samples, endpoint=False)
    phase = (hours - peak_hour) / 24.0 * 2.0 * np.pi
    mid = (low + high) / 2.0
    amp = (high - low) / 2.0
    profile = mid + amp * np.cos(phase)
    if seed is not None and noise > 0:
        rng = np.random.default_rng(seed)
        profile = profile + rng.normal(0.0, noise, size=samples)
    return np.clip(profile, 0.0, 1.0)
