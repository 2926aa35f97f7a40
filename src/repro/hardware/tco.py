"""Total cost of operation: the analysis the paper defers.

Section 4: *"Further analysis on performance and total cost of operation is
vital for the viability of deploying Lite-GPUs at scale, though it is
out-of-scope for this paper."*  This module builds that analysis from the
pieces the library already has:

- **capex**: GPU packages (yield/packaging cost model, with a street-price
  multiplier), network fabric, and facility cost per provisioned kW;
- **opex**: IT power at a datacenter PUE and electricity price, plus a
  maintenance fraction of capex per year;
- amortization over a service life, producing $/hour and — combined with a
  throughput — $/Mtoken, the operator's actual unit economics.

Everything is explicit and overridable; defaults are representative public
numbers (PUE 1.25, $0.08/kWh, 4-year life).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from ..errors import SpecError
from ..units import HOUR, KILOWATT, YEAR
from .cost import CostModel

if TYPE_CHECKING:  # pragma: no cover - the cluster package imports this module
    from ..cluster.spec import ClusterSpec


@dataclass(frozen=True)
class TCOAssumptions:
    """Operator-side economic assumptions."""

    electricity_usd_per_kwh: float = 0.08
    pue: float = 1.25
    amortization_years: float = 4.0
    maintenance_fraction_per_year: float = 0.03
    facility_usd_per_kw: float = 10_000.0  # building + power + cooling plant
    gpu_price_multiplier: float = 4.0  # BOM -> street price
    utilization: float = 0.6  # average fabric/GPU duty

    def __post_init__(self) -> None:
        if min(self.electricity_usd_per_kwh, self.amortization_years) <= 0:
            raise SpecError("electricity price and amortization must be positive")
        if self.pue < 1.0:
            raise SpecError("PUE cannot be below 1.0")
        if not 0.0 <= self.maintenance_fraction_per_year < 1.0:
            raise SpecError("maintenance fraction must be in [0, 1)")
        if self.facility_usd_per_kw < 0 or self.gpu_price_multiplier <= 0:
            raise SpecError("facility cost must be >= 0, price multiplier > 0")
        if not 0.0 < self.utilization <= 1.0:
            raise SpecError("utilization must be in (0, 1]")


@dataclass(frozen=True)
class TCOBreakdown:
    """Amortized hourly cost components (USD/hour)."""

    gpu_capex: float
    network_capex: float
    facility_capex: float
    power_opex: float
    maintenance_opex: float

    @property
    def capex_per_hour(self) -> float:
        """All amortized capital components."""
        return self.gpu_capex + self.network_capex + self.facility_capex

    @property
    def opex_per_hour(self) -> float:
        """All operating components."""
        return self.power_opex + self.maintenance_opex

    @property
    def total_per_hour(self) -> float:
        """Full hourly cost of the deployment."""
        return self.capex_per_hour + self.opex_per_hour

    def usd_per_mtoken(self, tokens_per_s: float) -> float:
        """Unit economics given a sustained throughput."""
        if tokens_per_s <= 0:
            raise SpecError("tokens_per_s must be positive")
        tokens_per_hour = tokens_per_s * 3600.0
        return self.total_per_hour / tokens_per_hour * 1e6


def cluster_tco(
    cluster: ClusterSpec,
    assumptions: TCOAssumptions | None = None,
    cost_model: CostModel | None = None,
) -> TCOBreakdown:
    """Amortized hourly TCO of a cluster.

    >>> from repro.cluster.spec import ClusterSpec
    >>> from repro.hardware.gpu import H100
    >>> bd = cluster_tco(ClusterSpec(H100, 8))
    >>> bd.total_per_hour > 0
    True
    """
    assumptions = assumptions or TCOAssumptions()
    cost_model = cost_model or CostModel()
    hours = assumptions.amortization_years * YEAR / HOUR

    gpu_capex_usd = cluster.gpu_capex(cost_model, assumptions.gpu_price_multiplier)
    fabric = cluster.fabric_report(assumptions.utilization)
    it_power_w = cluster.gpu_power * assumptions.utilization + fabric.power_w
    wall_power_kw = it_power_w * assumptions.pue / KILOWATT
    facility_usd = (cluster.gpu_power + fabric.power_w) / KILOWATT * assumptions.facility_usd_per_kw

    power_per_hour = wall_power_kw * assumptions.electricity_usd_per_kwh
    maintenance_per_hour = (
        (gpu_capex_usd + fabric.capex_usd)
        * assumptions.maintenance_fraction_per_year
        * (YEAR / HOUR) ** -1
    )
    return TCOBreakdown(
        gpu_capex=gpu_capex_usd / hours,
        network_capex=fabric.capex_usd / hours,
        facility_capex=facility_usd / hours,
        power_opex=power_per_hour,
        maintenance_opex=maintenance_per_hour,
    )


@lru_cache(maxsize=256)
def gpu_hour_rate(
    gpu,
    n_gpus: int,
    assumptions: TCOAssumptions | None = None,
    topology_kind: str = "circuit",
    group: int = 4,
    include_power: bool = False,
) -> float:
    """Amortized USD per GPU-hour of a cluster of ``n_gpus`` of ``gpu``.

    The serving simulator's economics bridge: multiply by the gpu-hours a
    deployment actually *held* (elastic pools hold fewer in the lulls) to
    get its amortized capital cost.  By default the rate covers capex
    (GPU + fabric + facility) and maintenance only — energy is charged
    separately from the simulated joules, so a throttled or drained
    cluster pays less.  ``include_power=True`` folds the TCO model's
    utilization-assumption power back in instead (the static view).

    >>> from repro.hardware.gpu import H100
    >>> gpu_hour_rate(H100, 8) > 0
    True
    """
    from ..cluster.spec import ClusterSpec  # local: the cluster package imports this module

    assumptions = assumptions or TCOAssumptions()
    n = max(2, int(n_gpus))  # every fabric model needs at least two endpoints
    if topology_kind == "direct":
        n = math.ceil(n / group) * group
    breakdown = cluster_tco(ClusterSpec(gpu, n, topology_kind, group), assumptions)
    per_hour = breakdown.capex_per_hour + breakdown.maintenance_opex
    if include_power:
        per_hour += breakdown.power_opex
    return per_hour / n


def tokens_per_dollar_comparison(
    h100_cluster: ClusterSpec,
    lite_cluster: ClusterSpec,
    h100_tokens_per_s: float,
    lite_tokens_per_s: float,
    assumptions: TCOAssumptions | None = None,
) -> dict:
    """Head-to-head unit economics of two deployments.

    Returns $/Mtoken for each plus the Lite saving fraction — the number the
    paper says decides viability.
    """
    assumptions = assumptions or TCOAssumptions()
    h100 = cluster_tco(h100_cluster, assumptions)
    lite = cluster_tco(lite_cluster, assumptions)
    h100_unit = h100.usd_per_mtoken(h100_tokens_per_s)
    lite_unit = lite.usd_per_mtoken(lite_tokens_per_s)
    return {
        "h100_usd_per_mtoken": h100_unit,
        "lite_usd_per_mtoken": lite_unit,
        "lite_saving": 1.0 - lite_unit / h100_unit,
        "h100_per_hour": h100.total_per_hour,
        "lite_per_hour": lite.total_per_hour,
    }
