"""Cluster composition: GPUs plus fabric, with capability/economics rollups.

A :class:`ClusterSpec` binds a GPU type, a count, and a network topology so
deployments can be compared at equal aggregate compute — the Figure 2
exercise (8x H100 vs. 32x Lite) generalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import SpecError
from ..hardware.cost import CostModel, PackagingTier
from ..hardware.gpu import GPUSpec
from ..hardware.scaling import LiteScaling, derive_lite_gpu
from ..network.fabric import Fabric, FabricReport
from ..network.routing import hop_count_matrix
from ..network.topology import (
    DirectConnectTopology,
    FlatCircuitTopology,
    SwitchedTopology,
    Topology,
)
from .placement import Placement, PoolShape, place


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous GPU cluster with a named topology.

    ``topology_kind`` is one of "direct", "switched", "circuit"; the
    corresponding :class:`~repro.network.topology.Topology` is materialized
    on demand so the spec itself stays cheap to construct and hash.
    """

    gpu: GPUSpec
    n_gpus: int
    topology_kind: str = "circuit"
    group: int = 4

    def __post_init__(self) -> None:
        if self.n_gpus <= 0:
            raise SpecError("n_gpus must be positive")
        if self.topology_kind not in ("direct", "switched", "circuit"):
            raise SpecError("topology_kind must be direct|switched|circuit")
        if self.group <= 0:
            raise SpecError("group must be positive")

    # --- aggregates ---------------------------------------------------------

    @property
    def total_flops(self) -> float:
        """Aggregate peak FLOP/s."""
        return self.n_gpus * self.gpu.peak_flops

    @property
    def total_mem_capacity(self) -> float:
        """Aggregate HBM bytes."""
        return self.n_gpus * self.gpu.mem_capacity

    @property
    def total_mem_bandwidth(self) -> float:
        """Aggregate HBM bandwidth (bytes/s)."""
        return self.n_gpus * self.gpu.mem_bandwidth

    @property
    def total_sms(self) -> int:
        """Aggregate SM count (the Figure 3 normalizer)."""
        return self.n_gpus * self.gpu.sms

    @property
    def gpu_power(self) -> float:
        """Aggregate GPU TDP (W), excluding the network."""
        return self.n_gpus * self.gpu.tdp

    # --- fabric -----------------------------------------------------------------

    def topology(self) -> Topology:
        """Materialize the network topology."""
        if self.topology_kind == "direct":
            n = self.n_gpus
            if n % self.group:
                raise SpecError("direct topology needs n_gpus divisible by group")
            return DirectConnectTopology(n_gpus=n, group=self.group)
        if self.topology_kind == "switched":
            return SwitchedTopology(n_gpus=self.n_gpus)
        return FlatCircuitTopology(n_gpus=self.n_gpus)

    def placement_for(
        self,
        shapes: "Sequence[PoolShape]",
        placer: str = "packed",
        seed: int = 0,
    ) -> "Placement":
        """Place a deployment's pool shapes onto this cluster's topology.

        >>> from repro.hardware import H100
        >>> cluster = ClusterSpec(H100, 8, "direct", group=4)
        >>> p = cluster.placement_for([PoolShape("decode", 2, 4)])
        >>> p.gpus("decode", 0)
        (0, 1, 2, 3)
        """
        return place(self.topology(), shapes, placer=placer, seed=seed)

    def hop_matrix(self):
        """The (memoized, read-only) dense hop-count matrix of the fabric."""
        return hop_count_matrix(self.topology())

    def fabric_report(self, utilization: float = 0.5) -> FabricReport:
        """Cost/power/capacity report of the cluster's network."""
        return Fabric(self.topology(), utilization).report(
            f"{self.gpu.name} x{self.n_gpus} ({self.topology_kind})"
        )

    def total_power(self, utilization: float = 0.5) -> float:
        """GPUs + network power (W)."""
        return self.gpu_power + self.fabric_report(utilization).power_w

    def gpu_capex(
        self, cost_model: CostModel | None = None, price_multiplier: float = 1.0
    ) -> float:
        """Total GPU cost (USD) from the hardware cost model.

        ``price_multiplier`` converts manufacturing BOM into what an
        operator pays (vendor gross margin); 1.0 reports pure BOM, ~4.0 is
        representative of data-center GPU street prices and is the right
        basis for "network is a small fraction of GPU cost" comparisons.
        """
        if price_multiplier <= 0:
            raise SpecError("price_multiplier must be positive")
        cm = cost_model or CostModel()
        per_gpu = cm.package_cost(
            die_area_mm2=self.gpu.die.area_mm2,
            hbm_gb=self.gpu.mem_capacity / 1e9,
            tier=PackagingTier.INTERPOSER_2_5D,
        ).total
        return per_gpu * self.n_gpus * price_multiplier

    def total_capex(self, cost_model: CostModel | None = None, utilization: float = 0.5) -> float:
        """GPU + network capital cost (USD)."""
        return self.gpu_capex(cost_model) + self.fabric_report(utilization).capex_usd

    def describe(self) -> str:
        """One-line summary."""
        return (
            f"{self.n_gpus}x {self.gpu.name} [{self.topology_kind}]: "
            f"{self.total_flops / 1e15:.1f} PFLOPS, "
            f"{self.total_mem_capacity / 1e9:.0f} GB, {self.total_sms} SMs"
        )


def lite_equivalent(
    cluster: ClusterSpec,
    scaling: LiteScaling | None = None,
    topology_kind: str = "circuit",
) -> ClusterSpec:
    """The Lite-GPU cluster replacing ``cluster`` at equal aggregate compute.

    Each parent GPU becomes ``scaling.split`` Lite-GPUs (Figure 2 defaults to
    a 4-way split).

    >>> from repro.hardware import H100
    >>> base = ClusterSpec(H100, 8)
    >>> lite = lite_equivalent(base)
    >>> lite.n_gpus
    32
    """
    scaling = scaling or LiteScaling(split=4)
    lite_gpu = derive_lite_gpu(cluster.gpu, scaling)
    return ClusterSpec(
        gpu=lite_gpu,
        n_gpus=cluster.n_gpus * scaling.split,
        topology_kind=topology_kind,
        group=scaling.split,
    )
