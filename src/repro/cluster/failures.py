"""Failure models: per-GPU reliability, blast radius, instance MTBF.

Section 3 ("Fault-tolerance"): *"Reducing the size of the GPU naturally
reduces the blast radius should a GPU fail ... leading to higher available
FLOPS, memory capacity, and memory bandwidth at any time."*  And the caveat:
*"today's large-scale inference pipelines already impose larger blast radii
than the hardware-imposed blast radii: if one GPU out of a group of GPUs
serving a model instance fails, the entire instance is taken offline."*

The model:

- each GPU fails as a Poisson process with rate ``1 / mtbf`` (an optional
  Weibull shape models infant mortality / wear-out);
- a **hardware blast radius** of ``r`` means one failure takes out ``r``
  GPUs' worth of capacity (1 for an isolated Lite-GPU; the whole group for
  direct-connect groups sharing a fate domain);
- an **instance** of ``k`` GPUs is a series system: it fails at rate
  ``k / mtbf`` and loses all ``k`` GPUs' service until recovery.

Closed forms below; the Monte-Carlo counterpart with hot spares lives in
:mod:`repro.cluster.availability`.

Beyond per-GPU reliability, the **component-level fault model** at the
bottom of this module breaks by physical part — GPU die, link, switch,
rack power domain — and resolves each part's blast radius through a
:class:`~repro.cluster.placement.Placement` onto the serving instances it
downs, emitting the same ``(time, pool, index, duration)`` tuples the
engines consume.

This module decides *what breaks*; what happens next — deadlines, client
retries, checkpointed restarts, brown-out shedding, and the goodput/MTTR/
availability accounting — lives in :mod:`repro.cluster.resilience`, and
the canned failure scenarios that measure blast radius end-to-end are in
:mod:`repro.cluster.chaos` (``python -m repro chaos``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SpecError
from ..exec.seeding import derive_seed
from ..network.topology import Topology
from ..units import HOUR
from .placement import Placement


@dataclass(frozen=True)
class FailureModel:
    """Per-GPU reliability parameters.

    ``mtbf`` seconds between failures per GPU, ``mttr`` seconds to repair /
    replace, ``weibull_shape`` = 1.0 for the exponential (memoryless) case.
    Lite-GPUs plausibly see a *better* per-die failure rate (smaller dies,
    lower power density), which callers express via ``mtbf``.
    """

    mtbf: float = 4380.0 * HOUR  # ~6 months, in line with large-fleet reports
    mttr: float = 12.0 * HOUR
    weibull_shape: float = 1.0

    def __post_init__(self) -> None:
        if self.mtbf <= 0 or self.mttr <= 0:
            raise SpecError("mtbf and mttr must be positive")
        if self.weibull_shape <= 0:
            raise SpecError("weibull_shape must be positive")

    @property
    def failure_rate(self) -> float:
        """Failures per second per GPU (exponential approximation)."""
        return 1.0 / self.mtbf

    @property
    def gpu_availability(self) -> float:
        """Steady-state availability of one GPU: MTBF / (MTBF + MTTR)."""
        return self.mtbf / (self.mtbf + self.mttr)

    def sample_lifetimes(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` times-to-failure (Weibull with the model's shape,
        scaled so the mean equals ``mtbf``)."""
        if n < 0:
            raise SpecError("n must be non-negative")
        shape = self.weibull_shape
        scale = self.mtbf / math.gamma(1.0 + 1.0 / shape)
        return scale * rng.weibull(shape, size=n)


@dataclass(frozen=True)
class BlastRadius:
    """How much capacity one hardware failure removes.

    ``gpus_per_failure``: GPUs lost per failure event (hardware fate
    sharing); ``sms_per_gpu`` converts to capacity terms.
    """

    gpus_per_failure: int
    sms_per_gpu: int

    def __post_init__(self) -> None:
        if self.gpus_per_failure <= 0 or self.sms_per_gpu <= 0:
            raise SpecError("blast radius fields must be positive")

    @property
    def sms_per_failure(self) -> int:
        """SMs of capacity removed by one failure."""
        return self.gpus_per_failure * self.sms_per_gpu

    def capacity_fraction(self, total_gpus: int) -> float:
        """Fraction of the cluster one failure takes out."""
        if total_gpus <= 0:
            raise SpecError("total_gpus must be positive")
        return min(1.0, self.gpus_per_failure / total_gpus)


@dataclass(frozen=True)
class InstanceReliability:
    """A model instance spanning ``k`` GPUs as a series system."""

    k: int
    gpu_model: FailureModel

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise SpecError("k must be positive")

    @property
    def instance_mtbf(self) -> float:
        """Any-of-k failure: MTBF / k."""
        return self.gpu_model.mtbf / self.k

    @property
    def instance_availability(self) -> float:
        """All-k-up steady state: per-GPU availability to the k-th power."""
        return self.gpu_model.gpu_availability**self.k

    def expected_failures(self, horizon_s: float) -> float:
        """Expected instance-down events over a horizon."""
        if horizon_s < 0:
            raise SpecError("horizon must be non-negative")
        return horizon_s * self.k / self.gpu_model.mtbf


def fleet_available_capacity(
    n_gpus: int,
    instance_size: int,
    model: FailureModel,
) -> float:
    """Steady-state fraction of fleet capacity serving traffic when every
    instance spans ``instance_size`` GPUs and a failure downs its instance.

    The Lite-GPU trade-off in one formula: quadrupling the fleet quadruples
    ``instance_size`` (same model, 4x the devices), but each device is
    smaller, so the lost capacity per failure is the same *fraction* —
    availability only drops if the per-device failure rate stays at the
    parent's.  With equal silicon reliability per mm^2 (per-GPU rate / 4),
    the Lite fleet matches the parent exactly; hot spares then tip the
    balance (see :mod:`repro.cluster.availability`).

    >>> round(fleet_available_capacity(8, 8, FailureModel()), 4) > 0.9
    True
    """
    if n_gpus <= 0 or instance_size <= 0:
        raise SpecError("n_gpus and instance_size must be positive")
    if n_gpus % instance_size:
        raise SpecError("n_gpus must be divisible by instance_size")
    instance = InstanceReliability(instance_size, model)
    return instance.instance_availability


def sample_failure_schedule(
    model: FailureModel,
    pool: str,
    n_instances: int,
    horizon: float,
    seed: int = 0,
    gpus_per_instance: int = 1,
) -> List[Tuple[float, str, int, float]]:
    """Sample a stochastic failure schedule for one instance pool.

    Each instance of ``gpus_per_instance`` GPUs is a series system: its
    time-to-failure is the minimum of per-GPU Weibull lifetimes drawn from
    ``model``, and after each failure it is down for ``model.mttr`` seconds
    before the clock restarts.  The result is a sorted list of
    ``(time, pool, index, repair_duration)`` tuples — exactly the scripted
    format the serving simulators accept, so sampled and hand-written
    schedules compose.  Deterministic for a given ``seed``.

    >>> schedule = sample_failure_schedule(
    ...     FailureModel(mtbf=200.0, mttr=50.0), "decode", 2, horizon=1000.0, seed=7)
    >>> all(t < 1000.0 and d == 50.0 for t, _, _, d in schedule)
    True
    >>> schedule == sample_failure_schedule(
    ...     FailureModel(mtbf=200.0, mttr=50.0), "decode", 2, horizon=1000.0, seed=7)
    True
    """
    if n_instances <= 0 or gpus_per_instance <= 0:
        raise SpecError("n_instances and gpus_per_instance must be positive")
    if horizon <= 0:
        raise SpecError("horizon must be positive")
    rng = np.random.default_rng(seed)
    schedule: List[Tuple[float, str, int, float]] = []
    for index in range(n_instances):
        t = 0.0
        while True:
            lifetime = float(model.sample_lifetimes(gpus_per_instance, rng).min())
            t += lifetime
            if t >= horizon:
                break
            schedule.append((t, pool, index, model.mttr))
            t += model.mttr
    return sorted(schedule)


# --- component-level faults ---------------------------------------------------
#
# The instance-level schedule above answers "which replica went down when";
# the component-level model below answers the harder, paper-shaped question:
# *which physical part broke* — a GPU die, a link, a switch, a rack power
# domain — and which instances its blast radius takes out, resolved through
# the Placement.  The output is the same (time, pool, index, duration)
# tuple format the serving engines already consume, so hardware-rooted and
# instance-level schedules compose freely.

COMPONENT_KINDS = ("gpu", "link", "switch", "rack")


@dataclass(frozen=True)
class ComponentFailure:
    """One hardware fault: a component of the fabric breaks at ``time``.

    ``component`` is one of :data:`COMPONENT_KINDS`; ``index`` identifies
    the component within its kind (GPU index, edge index of the topology
    graph in construction order, switch node id, or rack number).
    """

    time: float
    component: str
    index: int
    duration: float

    def __post_init__(self) -> None:
        if self.component not in COMPONENT_KINDS:
            raise SpecError(f"component must be one of {'/'.join(COMPONENT_KINDS)}")
        if self.time < 0 or self.duration <= 0:
            raise SpecError("failure time must be >= 0 and duration > 0")
        if self.index < 0:
            raise SpecError("component index must be non-negative")


@lru_cache(maxsize=64)
def _topology_graph(topology: Topology):
    """Memoized materialized graph: topologies are frozen/hashable, and
    ``graph()`` rebuilds from scratch on every call — far too hot for the
    per-event lookups below (link endpoints, switch neighbours)."""
    return topology.graph()


@lru_cache(maxsize=64)
def _link_inventory(topology: Topology) -> Tuple[Tuple[tuple, tuple], ...]:
    return tuple(_topology_graph(topology).edges())


@lru_cache(maxsize=64)
def _switch_inventory(topology: Topology) -> Tuple[tuple, ...]:
    return tuple(n for n in _topology_graph(topology).nodes() if n[0] == "sw")


def link_inventory(topology: Topology) -> List[Tuple[tuple, tuple]]:
    """The topology graph's edges in deterministic construction order.

    This is the component id space for ``link`` failures; networkx preserves
    insertion order and the ``graph()`` builders are deterministic, so edge
    ``i`` always names the same physical link for a given topology.
    """
    return list(_link_inventory(topology))


def switch_inventory(topology: Topology) -> List[tuple]:
    """All switch-like nodes (switches, hubs) in construction order."""
    return list(_switch_inventory(topology))


def affected_gpus(
    topology: Topology,
    component: str,
    index: int,
    rack_size: int = 8,
) -> Tuple[int, ...]:
    """The GPU indices a component failure takes offline.

    - ``gpu``: the GPU itself;
    - ``link``: the GPU endpoints of the failed cable (a switch-to-switch
      uplink strands no GPU directly — multi-path fabrics absorb it);
    - ``switch``: every GPU attached to the switch (for direct-connect
      topologies the hub models the external network, so its loss downs
      each group's uplink holder);
    - ``rack``: the ``rack_size`` consecutive GPUs sharing the power domain.
    """
    if component == "gpu":
        if not 0 <= index < topology.n_gpus:
            raise SpecError(f"GPU index {index} out of range")
        return (index,)
    if component == "link":
        links = _link_inventory(topology)
        if not 0 <= index < len(links):
            raise SpecError(f"link index {index} out of range [0, {len(links)})")
        return tuple(sorted(node[1] for node in links[index] if node[0] == "gpu"))
    if component == "switch":
        switches = _switch_inventory(topology)
        if not 0 <= index < len(switches):
            raise SpecError(f"switch index {index} out of range [0, {len(switches)})")
        g = _topology_graph(topology)
        return tuple(
            sorted(node[1] for node in g.neighbors(switches[index]) if node[0] == "gpu")
        )
    if component == "rack":
        if rack_size <= 0:
            raise SpecError("rack_size must be positive")
        lo = index * rack_size
        if lo >= topology.n_gpus:
            raise SpecError(f"rack index {index} out of range")
        return tuple(range(lo, min(lo + rack_size, topology.n_gpus)))
    raise SpecError(f"component must be one of {'/'.join(COMPONENT_KINDS)}")


def component_blast_radius(
    topology: Topology,
    component: str,
    index: int,
    sms_per_gpu: int,
    rack_size: int = 8,
) -> BlastRadius:
    """The :class:`BlastRadius` one component failure imposes.

    Unifies the hardware fate-sharing view (this module's closed forms and
    :mod:`repro.cluster.availability`'s Monte-Carlo) with the topology: a
    switch that fronts 64 GPUs *is* a 64-GPU blast radius.
    """
    gpus = affected_gpus(topology, component, index, rack_size)
    return BlastRadius(gpus_per_failure=max(1, len(gpus)), sms_per_gpu=sms_per_gpu)


def resolve_component_failures(
    schedule: Sequence[ComponentFailure],
    topology: Topology,
    placement: Placement,
    rack_size: int = 8,
) -> List[Tuple[float, str, int, float]]:
    """Map component failures onto the instances their blast radius downs.

    Returns instance-level ``(time, pool, index, duration)`` tuples in the
    engines' scripted-failure format — one per affected instance per event
    (an event hitting two GPUs of the same instance downs it once).

    >>> from repro.network.topology import DirectConnectTopology
    >>> from repro.cluster.placement import Placement
    >>> topo = DirectConnectTopology(n_gpus=8, group=4)
    >>> pl = Placement(8, (("decode", ((0, 1), (2, 3), (4, 5), (6, 7))),))
    >>> resolve_component_failures(
    ...     [ComponentFailure(10.0, "rack", 0, 60.0)], topo, pl, rack_size=4)
    [(10.0, 'decode', 0, 60.0), (10.0, 'decode', 1, 60.0)]
    """
    resolved: List[Tuple[float, str, int, float]] = []
    for event in schedule:
        gpus = affected_gpus(topology, event.component, event.index, rack_size)
        for pool, index in placement.affected_instances(gpus):
            resolved.append((event.time, pool, index, event.duration))
    return sorted(resolved)


@dataclass(frozen=True)
class ComponentFailureModel:
    """Stochastic failure rates per hardware component class.

    Any ``None`` member disables that class.  GPU faults model die-level
    failures (use :func:`scaled_lite_failure_model` for Lite dies); link and
    switch faults model optics/cable and switch-chassis outages; rack faults
    model shared power/cooling domains of ``rack_size`` GPUs.
    """

    gpu: Optional[FailureModel] = None
    link: Optional[FailureModel] = None
    switch: Optional[FailureModel] = None
    rack: Optional[FailureModel] = None
    rack_size: int = 8

    def __post_init__(self) -> None:
        if self.rack_size <= 0:
            raise SpecError("rack_size must be positive")

    def _counts(self, topology: Topology) -> Dict[str, int]:
        return {
            "gpu": topology.n_gpus,
            "link": len(link_inventory(topology)),
            "switch": len(switch_inventory(topology)),
            "rack": math.ceil(topology.n_gpus / self.rack_size),
        }

    def sample_component_schedule(
        self,
        topology: Topology,
        horizon: float,
        seed: int = 0,
    ) -> List[ComponentFailure]:
        """Draw a deterministic component-failure schedule over ``horizon``.

        Each enabled component class reuses the seeded Weibull renewal
        process of :func:`sample_failure_schedule` (one "instance" per
        component), with a per-class derived seed so classes never share a
        stream.
        """
        if horizon <= 0:
            raise SpecError("horizon must be positive")
        counts = self._counts(topology)
        schedule: List[ComponentFailure] = []
        for kind in COMPONENT_KINDS:
            model: Optional[FailureModel] = getattr(self, kind)
            if model is None or counts[kind] == 0:
                continue
            # derive_seed, not seed+offset: sequential seeds collide across
            # experiment families (the exec/seeding module's whole point).
            events = sample_failure_schedule(
                model, kind, counts[kind], horizon, seed=derive_seed(seed, kind)
            )
            schedule.extend(
                ComponentFailure(time, kind, index, duration)
                for time, _, index, duration in events
            )
        return sorted(schedule, key=lambda e: (e.time, e.component, e.index))


def scaled_lite_failure_model(parent: FailureModel, split: int, area_scaling: bool = True) -> FailureModel:
    """Failure model of a Lite-GPU derived from its parent.

    With ``area_scaling`` (default), failure rate scales with die area —
    1/split the parent's rate, i.e. MTBF * split — reflecting that most
    hardware failures (transistor faults, hotspots, debris) are
    area-proportional.  Repair time is unchanged.
    """
    if split <= 0:
        raise SpecError("split must be positive")
    mtbf = parent.mtbf * split if area_scaling else parent.mtbf
    return FailureModel(mtbf=mtbf, mttr=parent.mttr, weibull_shape=parent.weibull_shape)
