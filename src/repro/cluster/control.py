"""Elastic cluster controllers: the serving engine's control plane.

The paper's Section 3 economics arguments — perf-per-TCO and perf-per-watt
under *real* serving load — hinge on dynamic behavior the simulators could
not express before this module: pools that grow with diurnal traffic, shed
capacity in lulls, and throttle under datacenter power caps.  A
:class:`ClusterController` closes that loop.  The engine steps it on a
configurable epoch inside the event loop; each step observes the cluster
(:class:`ControlObservation`) and returns a :class:`ControlAction`:

- ``scale`` — per-pool instance deltas.  Spawns are placement-aware
  (new instances take pre-placed topology groups) and pay a warm-up
  delay (``warmup_s``: weight loading / scheduling); drains are graceful
  (no new work, resident sequences finish, then the GPUs are released);
- ``frequency`` — a DVFS clock scalar that flows through
  :class:`~repro.cluster.engine.AbstractServiceTimeProvider` (service
  times stretch by ``1/f``) and into the energy accounting (power follows
  the :class:`~repro.hardware.power.DVFSCurve`).

"No control plane" is ``None``: every controller object steps, on a
positive ``epoch``.  Four controllers plus the ``static`` name are
registered:

- ``static``   — fixed capacity: resolves to ``None``, a controller-free run;
- ``reactive`` — queue-depth / KV-occupancy thresholds with hysteresis;
- ``slo``      — scales on rolling TTFT/TBT percentile violations;
- ``forecast`` — tracks a scheduled rate profile (provision *ahead* of
  the ramp by the warm-up lead), optionally seeded from a
  :class:`~repro.cluster.provisioning.ProvisioningPlan`;
- ``power_cap``— integrates :class:`~repro.cluster.power_manager.ClusterPowerManager`
  so cap events throttle via DVFS first and drain instances only when the
  clock floor still cannot fit the cap.

All controllers are deterministic: state lives in plain counters, and the
simulators deep-copy the controller per run so repeated runs never share
hysteresis state.
"""

from __future__ import annotations

import abc
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .._registry import Registry
from ..errors import SpecError
from ..hardware.power import DVFSCurve
from .power_manager import ClusterPowerManager
from .provisioning import ProvisioningPlan

__all__ = [
    "PoolStats",
    "ControlObservation",
    "ControlAction",
    "NO_ACTION",
    "ClusterController",
    "ReactiveController",
    "SLOController",
    "ForecastController",
    "PowerCapController",
    "CONTROLLERS",
    "get_controller",
]


# --- observations and actions -------------------------------------------------


@dataclass(frozen=True)
class PoolStats:
    """One pool's state as the controller sees it at an epoch boundary.

    ``alive`` counts warmed-up, non-draining instances (the capacity that
    can accept work right now — a failed-but-provisioned instance still
    counts); ``warming`` counts spawned instances still loading weights;
    ``draining`` counts instances finishing their residents.  ``busy`` is
    the subset of provisioned instances currently holding work.
    ``occupancy`` is the mean KV-occupancy fraction over alive instances
    (0.0 for prefill pools, which hold no KV state between batches).
    """

    alive: int
    warming: int
    draining: int
    busy: int
    queue_depth: int
    occupancy: float
    gpus_per_instance: int

    @property
    def provisioned(self) -> int:
        """Instances currently holding GPUs (alive + warming + draining)."""
        return self.alive + self.warming + self.draining

    @property
    def incoming(self) -> int:
        """Capacity present or arriving (alive + warming)."""
        return self.alive + self.warming


@dataclass(frozen=True)
class ControlObservation:
    """Everything a controller may react to at one epoch boundary.

    ``window_ttfts`` / ``window_tbts`` are the first-token latencies and
    per-request mean inter-token latencies recorded *since the previous
    step* — an SLO controller folds them into its own rolling window.
    """

    time: float
    pools: Mapping[str, PoolStats]
    window_ttfts: Tuple[float, ...] = ()
    window_tbts: Tuple[float, ...] = ()
    frequency: float = 1.0

    def total_gpus(self) -> int:
        """GPUs currently provisioned across every pool."""
        return sum(s.provisioned * s.gpus_per_instance for s in self.pools.values())


@dataclass(frozen=True)
class ControlAction:
    """What a controller wants done: per-pool scale deltas + a DVFS scalar.

    Positive deltas spawn instances (warm-up applies), negative deltas
    drain them gracefully; ``frequency=None`` leaves the clock untouched.
    """

    scale: Mapping[str, int] = field(default_factory=dict)
    frequency: Optional[float] = None

    def is_noop(self) -> bool:
        """True when applying this action changes nothing."""
        return self.frequency is None and not any(self.scale.values())


NO_ACTION = ControlAction()


# --- the controller interface -------------------------------------------------


class ClusterController(abc.ABC):
    """Steps the cluster's capacity/clock on a fixed epoch.

    ``epoch`` is the stepping period in simulated seconds and must be
    positive: a run without a control plane passes ``controller=None``
    (or the ``static`` name, which resolves to it).

    ``min_instances`` / ``max_instances`` bound each pool's provisioned
    instance count; ``warmup_s`` is the spawn-to-serving delay (weight
    loading), the provisioning cost every scale-up pays.
    """

    name = "controller"

    def __init__(
        self, epoch: float, warmup_s: float, min_instances: int, max_instances: int
    ) -> None:
        if epoch <= 0:
            raise SpecError("epoch must be positive; controller=None runs without one")
        if warmup_s < 0:
            raise SpecError("warmup_s must be non-negative")
        if min_instances < 1 or max_instances < min_instances:
            raise SpecError("need 1 <= min_instances <= max_instances")
        self.epoch = epoch
        self.warmup_s = warmup_s
        self.min_instances = min_instances
        self.max_instances = max_instances

    @abc.abstractmethod
    def step(self, obs: ControlObservation) -> ControlAction:
        """Decide the next action from the observation."""

    def _clamped_delta(self, stats: PoolStats, desired: int) -> int:
        """Delta moving ``incoming`` capacity toward ``desired`` within bounds."""
        target = max(self.min_instances, min(self.max_instances, desired))
        return target - stats.incoming

    def describe(self) -> str:
        """One-line summary."""
        return (
            f"{self.name}: epoch {self.epoch:g}s, warmup {self.warmup_s:g}s, "
            f"{self.min_instances}..{self.max_instances} instances/pool"
        )


#: :class:`ReactiveController` thresholds: KV occupancy that scales a pool
#: up, and the occupancy and busy fraction of alive instances a quiet epoch
#: stays at or under.
OCCUPANCY_HIGH = 0.85
OCCUPANCY_LOW = 0.30
BUSY_LOW = 0.5


class ReactiveController(ClusterController):
    """Threshold autoscaler with hysteresis, over every pool.

    Scale **up** a pool by one instance when its queue backlog per
    incoming instance reaches ``queue_high`` requests or its KV occupancy
    reaches :data:`OCCUPANCY_HIGH`.  Scale **down** by one only after
    ``calm_epochs`` consecutive quiet epochs (empty queue, occupancy at
    most :data:`OCCUPANCY_LOW`, at most :data:`BUSY_LOW` of the alive
    instances holding work) — the hysteresis that stops thrashing on
    bursty arrivals.  Each scale-down resets the calm counter, so capacity
    bleeds off one instance per quiet window rather than collapsing at
    once.
    """

    name = "reactive"

    def __init__(
        self,
        queue_high: float = 4.0,
        calm_epochs: int = 3,
        epoch: float = 10.0,
        warmup_s: float = 30.0,
        min_instances: int = 1,
        max_instances: int = 8,
    ) -> None:
        super().__init__(epoch, warmup_s, min_instances, max_instances)
        if queue_high <= 0 or calm_epochs < 1:
            raise SpecError("queue_high and calm_epochs must be positive")
        self.queue_high = queue_high
        self.calm_epochs = calm_epochs
        self._calm: Dict[str, int] = {}

    def step(self, obs: ControlObservation) -> ControlAction:
        scale: Dict[str, int] = {}
        for name, stats in obs.pools.items():
            incoming = stats.incoming
            pressure = stats.queue_depth / max(1, incoming)
            if pressure >= self.queue_high or stats.occupancy >= OCCUPANCY_HIGH:
                self._calm[name] = 0
                if incoming < self.max_instances:
                    scale[name] = 1
            elif (
                stats.queue_depth == 0
                and stats.occupancy <= OCCUPANCY_LOW
                and stats.busy <= BUSY_LOW * max(1, stats.alive)
            ):
                calm = self._calm.get(name, 0) + 1
                self._calm[name] = calm
                if calm >= self.calm_epochs and incoming > self.min_instances:
                    scale[name] = -1
                    self._calm[name] = 0
            else:
                self._calm[name] = 0
        return ControlAction(scale=scale) if scale else NO_ACTION


#: :class:`SLOController` statistics: the latency percentile it holds to
#: its targets, the fraction of each target under which an epoch counts as
#: comfortable, and the rolling window of TTFT/TBT samples it reads.
SLO_PERCENTILE = 99.0
SLO_RELAX_MARGIN = 0.5
SLO_WINDOW = 256


class SLOController(ClusterController):
    """Scales on rolling latency-percentile violations.

    Keeps a rolling window of the last :data:`SLO_WINDOW` TTFT and TBT
    samples.  A TTFT percentile (:data:`SLO_PERCENTILE`) above
    ``ttft_target`` adds capacity to the pool that produces first tokens
    (``prefill`` when phase-split, else the colocated pool); a TBT
    violation scales the decode pool.  When both percentiles sit at or
    below :data:`SLO_RELAX_MARGIN` of their targets for ``calm_epochs``
    consecutive epochs, one instance is drained from the largest scalable
    pool.
    """

    name = "slo"

    def __init__(
        self,
        ttft_target: float = 1.0,
        tbt_target: float = 0.05,
        calm_epochs: int = 4,
        min_samples: int = 8,
        epoch: float = 15.0,
        warmup_s: float = 30.0,
        min_instances: int = 1,
        max_instances: int = 8,
    ) -> None:
        super().__init__(epoch, warmup_s, min_instances, max_instances)
        if ttft_target <= 0 or tbt_target <= 0:
            raise SpecError("SLO targets must be positive")
        self.ttft_target = ttft_target
        self.tbt_target = tbt_target
        self.calm_epochs = calm_epochs
        self.min_samples = min_samples
        self._ttfts: Deque[float] = deque(maxlen=SLO_WINDOW)
        self._tbts: Deque[float] = deque(maxlen=SLO_WINDOW)
        self._calm = 0

    def _first_token_pool(self, pools: Mapping[str, PoolStats]) -> str:
        return "prefill" if "prefill" in pools else next(iter(pools))

    def _decode_pool(self, pools: Mapping[str, PoolStats]) -> str:
        return "decode" if "decode" in pools else next(iter(pools))

    def step(self, obs: ControlObservation) -> ControlAction:
        self._ttfts.extend(obs.window_ttfts)
        self._tbts.extend(obs.window_tbts)
        scale: Dict[str, int] = {}
        ttft_p = (
            float(np.percentile(list(self._ttfts), SLO_PERCENTILE))
            if len(self._ttfts) >= self.min_samples
            else 0.0
        )
        tbt_p = (
            float(np.percentile(list(self._tbts), SLO_PERCENTILE))
            if len(self._tbts) >= self.min_samples
            else 0.0
        )
        violated = False
        if ttft_p > self.ttft_target:
            violated = True
            pool = self._first_token_pool(obs.pools)
            if obs.pools[pool].incoming < self.max_instances:
                scale[pool] = 1
        if tbt_p > self.tbt_target:
            violated = True
            pool = self._decode_pool(obs.pools)
            if obs.pools[pool].incoming < self.max_instances:
                scale[pool] = scale.get(pool, 0) + 1
        if violated:
            self._calm = 0
            return ControlAction(scale=scale) if scale else NO_ACTION
        comfortable = (
            ttft_p <= SLO_RELAX_MARGIN * self.ttft_target
            and tbt_p <= SLO_RELAX_MARGIN * self.tbt_target
            and len(self._ttfts) >= self.min_samples
        )
        if not comfortable:
            self._calm = 0
            return NO_ACTION
        self._calm += 1
        if self._calm < self.calm_epochs:
            return NO_ACTION
        self._calm = 0
        # Drain one instance from the largest shrinkable pool (stable on
        # ties: first declared wins).
        floor = self.min_instances
        candidates = [(n, s) for n, s in obs.pools.items() if s.incoming > floor]
        if not candidates:
            return NO_ACTION
        name, _ = max(candidates, key=lambda item: item[1].incoming)
        return ControlAction(scale={name: -1})


class ForecastController(ClusterController):
    """Drives capacity from a scheduled rate profile.

    ``profile`` is a stepwise schedule of ``(start_time_s, multiplier)``
    pairs: the expected arrival rate relative to the baseline the pools
    were provisioned for.  Each epoch the controller looks the warm-up
    delay ahead, so capacity lands *as* the ramp arrives, not after it,
    and scales every pool toward ``ceil(baseline * multiplier)``.
    Baselines default to each pool's provisioned count at the first step;
    :meth:`from_plan` seeds them from a
    :class:`~repro.cluster.provisioning.ProvisioningPlan` instead.
    """

    name = "forecast"

    def __init__(
        self,
        profile: Sequence[Tuple[float, float]] = ((0.0, 1.0),),
        base_counts: Optional[Mapping[str, int]] = None,
        epoch: float = 15.0,
        warmup_s: float = 30.0,
        min_instances: int = 1,
        max_instances: int = 8,
    ) -> None:
        super().__init__(epoch, warmup_s, min_instances, max_instances)
        if not profile:
            raise SpecError("profile must be non-empty")
        self.profile = tuple(sorted((float(t), float(m)) for t, m in profile))
        if any(m < 0 for _, m in self.profile):
            raise SpecError("profile multipliers must be non-negative")
        self.base_counts: Optional[Dict[str, int]] = (
            dict(base_counts) if base_counts is not None else None
        )

    @classmethod
    def from_plan(
        cls, plan: ProvisioningPlan, profile: Sequence[Tuple[float, float]], **kwargs
    ) -> "ForecastController":
        """Baseline counts from a provisioning plan's pool sizes."""
        base = {"prefill": plan.pools.n_prefill, "decode": plan.pools.n_decode}
        return cls(profile=profile, base_counts=base, **kwargs)

    def multiplier_at(self, time: float) -> float:
        """The stepwise profile value at ``time`` (first entry before t=0)."""
        current = self.profile[0][1]
        for start, mult in self.profile:
            if start <= time:
                current = mult
            else:
                break
        return current

    def step(self, obs: ControlObservation) -> ControlAction:
        if self.base_counts is None:
            self.base_counts = {name: max(1, s.provisioned) for name, s in obs.pools.items()}
        mult = self.multiplier_at(obs.time + self.warmup_s)
        scale: Dict[str, int] = {}
        for name, stats in obs.pools.items():
            base = self.base_counts.get(name)
            if base is None:
                continue
            desired = math.ceil(base * mult)
            delta = self._clamped_delta(stats, desired)
            if delta:
                scale[name] = delta
        return ControlAction(scale=scale) if scale else NO_ACTION


class PowerCapController(ClusterController):
    """Runs the cluster under datacenter power-cap events.

    ``caps`` is a schedule of ``(start_s, end_s, cap_watts)`` windows.
    Inside a window the controller first throttles via DVFS: it picks the
    highest clock whose fleet power fits the cap
    (:meth:`~repro.hardware.power.DVFSCurve.clock_for_power`) — the
    "down-clock a portion of the SMs" move that Section 3 argues Lite
    clusters make at per-device granularity.  If even the DVFS floor
    exceeds the cap, it also drains instances (largest pool first) until
    the floored fleet fits.  When the window ends, the clock returns to
    1.0 and drained pools are restored to their pre-cap baselines.
    """

    name = "power_cap"

    def __init__(
        self,
        manager: Optional[ClusterPowerManager] = None,
        caps: Sequence[Tuple[float, float, float]] = (),
        epoch: float = 10.0,
        warmup_s: float = 30.0,
        min_instances: int = 1,
        max_instances: int = 64,
    ) -> None:
        super().__init__(epoch, warmup_s, min_instances, max_instances)
        for start, end, watts in caps:
            if end <= start or watts <= 0:
                raise SpecError("caps need end > start and positive watts")
        self.manager = manager
        self.caps = tuple((float(s), float(e), float(w)) for s, e, w in caps)
        self._baseline: Optional[Dict[str, int]] = None

    def cap_at(self, time: float) -> Optional[float]:
        """The binding cap at ``time`` (tightest of overlapping windows)."""
        active = [w for s, e, w in self.caps if s <= time < e]
        return min(active) if active else None

    def _curve(self) -> DVFSCurve:
        return self.manager.curve if self.manager is not None else DVFSCurve()

    def _tdp(self, obs: ControlObservation) -> float:
        if self.manager is not None:
            return self.manager.gpu.tdp
        raise SpecError("PowerCapController needs a ClusterPowerManager to price power")

    def step(self, obs: ControlObservation) -> ControlAction:
        if self._baseline is None:
            self._baseline = {name: s.provisioned for name, s in obs.pools.items()}
        cap = self.cap_at(obs.time)
        if cap is None:
            # Cap lifted: full clock, restore drained pools to baseline.
            scale: Dict[str, int] = {}
            for name, stats in obs.pools.items():
                target = min(self.max_instances, self._baseline.get(name, stats.provisioned))
                if stats.incoming < target:
                    scale[name] = target - stats.incoming
            return ControlAction(scale=scale, frequency=1.0)
        curve = self._curve()
        tdp = self._tdp(obs)
        total_gpus = obs.total_gpus()
        if total_gpus == 0:
            return ControlAction(frequency=1.0)
        clock = curve.clock_for_power(cap / (total_gpus * tdp))
        if clock > 0.0:
            return ControlAction(frequency=clock)
        # Even the DVFS floor blows the cap: drain capacity until the
        # floored fleet fits (largest pools shed first, deterministically).
        frequency = curve.min_clock_ratio
        floor_power = tdp * curve.power_ratio(frequency)
        budget_gpus = int(cap // floor_power)
        scale: Dict[str, int] = {}
        excess = total_gpus - budget_gpus
        pools = sorted(obs.pools.items(), key=lambda item: (-item[1].provisioned, item[0]))
        for name, stats in pools:
            if excess <= 0:
                break
            sheddable = max(0, stats.incoming - self.min_instances)
            shed = min(sheddable, -(-excess // max(1, stats.gpus_per_instance)))
            if shed > 0:
                scale[name] = -shed
                excess -= shed * stats.gpus_per_instance
        return ControlAction(scale=scale, frequency=frequency)


# --- registry -----------------------------------------------------------------


CONTROLLERS: Registry = Registry("cluster controller")
CONTROLLERS.register("static", lambda: None)  # fixed capacity: no control plane
CONTROLLERS.register("reactive", ReactiveController)
CONTROLLERS.register("slo", SLOController)
CONTROLLERS.register("forecast", ForecastController)
CONTROLLERS.register("power_cap", PowerCapController)


def get_controller(
    spec: "ClusterController | str | None",
) -> Optional[ClusterController]:
    """Resolve a controller: pass instances through, look names up.

    ``None`` and the ``static`` name resolve to ``None``: no control plane,
    so the engine schedules no controller events.

    >>> get_controller(None) is None
    True
    >>> get_controller("static") is None
    True
    """
    if spec is None:
        return None
    if isinstance(spec, ClusterController):
        return spec
    if isinstance(spec, str):
        return CONTROLLERS.get(spec)()
    raise SpecError(f"cannot resolve cluster controller from {spec!r}")
