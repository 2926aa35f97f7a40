"""Derive Lite-GPUs from a parent GPU: the Figure 2 construction.

Figure 2 replaces each H100 with four Lite-GPUs.  :func:`derive_lite_gpu`
generalizes the construction to any split factor and shoreline allocation:

- compute, capacity and SMs divide by the split factor;
- each Lite die is the parent die split geometrically, so the *group* of
  Lite dies has ``sqrt(split)`` times the parent's total shoreline;
- that shoreline surplus is allocated between extra memory bandwidth and
  extra network bandwidth via :class:`LiteScaling`;
- an optional overclock (enabled by the lower power density of small dies)
  scales FLOPS.

The exact Table 1 rows are pre-registered in :mod:`repro.hardware.gpu`; this
module exists to *generate* such rows, and to let the ablation benchmarks
sweep split factors and shoreline allocations continuously.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SpecError
from .die import shoreline_ratio
from .gpu import GPUSpec


@dataclass(frozen=True)
class LiteScaling:
    """How to build a Lite-GPU from a parent.

    ``split``: how many Lite-GPUs replace one parent.
    ``mem_bw_boost`` / ``net_bw_boost``: per-GPU bandwidth multipliers applied
    *after* the 1/split division.  The physically available total boost is
    bounded by the shoreline gain ``sqrt(split)``; :meth:`validate` enforces
    a (configurable) budget so that derived GPUs remain buildable.
    ``clock_factor``: compute overclock (1.0 = none).
    """

    split: int = 4
    mem_bw_boost: float = 1.0
    net_bw_boost: float = 1.0
    clock_factor: float = 1.0
    shoreline_budget_slack: float = 1.05  # allow 5% engineering slack

    def __post_init__(self) -> None:
        if self.split <= 0:
            raise SpecError("split must be positive")
        if min(self.mem_bw_boost, self.net_bw_boost) <= 0:
            raise SpecError("bandwidth boosts must be positive")
        if self.clock_factor <= 0:
            raise SpecError("clock_factor must be positive")

    @property
    def shoreline_gain(self) -> float:
        """Per-GPU shoreline gain relative to a 1/split share of the parent:
        each of the ``split`` dies has ``sqrt(split)``x the per-area
        perimeter of the parent."""
        return shoreline_ratio(self.split)

    def shoreline_demand(self, parent: GPUSpec) -> float:
        """Fraction of the per-Lite-GPU shoreline budget this scaling uses.

        Shoreline is consumed proportionally to bandwidth.  A Lite-GPU's
        budget is ``shoreline_gain`` times the parent's per-quarter I/O; the
        demand is the bandwidth-weighted sum of the boosts.
        """
        base_mem = parent.mem_bandwidth / self.split
        base_net = parent.net_bandwidth / self.split
        demanded = base_mem * self.mem_bw_boost + base_net * self.net_bw_boost
        budget = (base_mem + base_net) * self.shoreline_gain
        return demanded / budget

    def validate(self, parent: GPUSpec) -> None:
        """Raise :class:`SpecError` if the scaling over-subscribes shoreline."""
        demand = self.shoreline_demand(parent)
        if demand > self.shoreline_budget_slack:
            raise SpecError(
                f"shoreline over-subscribed: demand {demand:.2f}x of budget "
                f"(split={self.split}, mem x{self.mem_bw_boost:g}, net x{self.net_bw_boost:g})"
            )


def derive_lite_gpu(
    parent: GPUSpec,
    scaling: LiteScaling,
    name: str | None = None,
    validate_shoreline: bool = True,
) -> GPUSpec:
    """Construct a Lite-GPU spec from ``parent`` under ``scaling``.

    >>> from repro.hardware import H100
    >>> lite = derive_lite_gpu(H100, LiteScaling(split=4))
    >>> lite.peak_flops / 1e12
    500.0
    >>> round(lite.mem_bandwidth / 1e9)
    838
    """
    if validate_shoreline:
        scaling.validate(parent)
    split = scaling.split
    sms = max(1, round(parent.sms / split))
    # TDP scales with compute share and (superlinearly) with clock.
    tdp = (parent.tdp / split) * scaling.clock_factor**2
    net_bandwidth = (parent.net_bandwidth / split) * scaling.net_bw_boost
    # The Lite group replacing one parent is a direct-connect mesh
    # (Figure 2): one extra link to each of the (split - 1) neighbours at
    # the network link rate — same convention as the registered Table 1
    # Lite variants.
    mesh_bandwidth = max(1, split - 1) * net_bandwidth if split > 1 else 0.0
    return GPUSpec(
        name=name or f"{parent.name}-Lite/{split}",
        peak_flops=(parent.peak_flops / split) * scaling.clock_factor,
        mem_capacity=parent.mem_capacity / split,
        mem_bandwidth=(parent.mem_bandwidth / split) * scaling.mem_bw_boost,
        net_bandwidth=net_bandwidth,
        sms=sms,
        max_cluster=parent.max_cluster * split,
        die=parent.die.split(split),
        tdp=tdp,
        base_clock_ghz=parent.base_clock_ghz * scaling.clock_factor,
        scaleup_domain=split if split > 1 else parent.scaleup_domain,
        mesh_bandwidth=mesh_bandwidth,
    )


def group_properties(parent: GPUSpec, scaling: LiteScaling) -> dict:
    """Aggregate properties of the Lite group replacing one parent GPU.

    Returns the cluster-level Figure 2 comparison: total FLOPS, total memory
    bandwidth, total shoreline, power density, bandwidth-to-compute gain.
    """
    lite = derive_lite_gpu(parent, scaling, validate_shoreline=False)
    n = scaling.split
    return {
        "lite": lite,
        "count": n,
        "total_flops": lite.peak_flops * n,
        "total_mem_bandwidth": lite.mem_bandwidth * n,
        "total_net_bandwidth": lite.net_bandwidth * n,
        "total_capacity": lite.mem_capacity * n,
        "total_shoreline_mm": lite.die.perimeter_mm * n,
        "parent_shoreline_mm": parent.die.perimeter_mm,
        "shoreline_gain": (lite.die.perimeter_mm * n) / parent.die.perimeter_mm,
        "bw_to_compute_gain": (lite.mem_bytes_per_flop / parent.mem_bytes_per_flop),
        "power_density_ratio": lite.power_density_w_mm2 / parent.power_density_w_mm2,
        "total_tdp": lite.tdp * n,
    }


def max_overclock_from_power_density(parent: GPUSpec, split: int, power_exponent: float = 2.0) -> float:
    """Clock factor at which a Lite-GPU reaches the parent's power density.

    Small dies start at the parent's power density (TDP and area both divide
    by ``split``); headroom comes from easier heat *extraction* per package,
    modeled as the clock factor that keeps per-package power within the
    parent's per-quarter envelope scaled by the perimeter advantage.
    """
    if split <= 0:
        raise SpecError("split must be positive")
    if power_exponent <= 0:
        raise SpecError("power_exponent must be positive")
    headroom = shoreline_ratio(split)  # heat escapes through more edge per area
    return headroom ** (1.0 / power_exponent)
