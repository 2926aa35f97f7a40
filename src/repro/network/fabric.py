"""Whole-fabric rollups: cost, power, and capacity of a cluster network.

Section 2 closes its economics with: *"the networking costs are only a small
fraction compared to the GPU costs today"* — and Section 4 warns the network
cost "can turn into a bottleneck with increased scale".  :class:`Fabric`
makes both ends of that argument computable: given a topology, a link
technology and a switch model, it reports capital cost, power, and the
cost/power *per GPU* so deployments of H100s and Lite-GPUs can be compared
at equal total compute.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SpecError
from ..units import GB_PER_S, KILOWATT
from .switches import SwitchSpec
from .topology import DirectConnectTopology, FlatCircuitTopology, SwitchedTopology, Topology


@dataclass(frozen=True)
class FabricReport:
    """Inventory, economics, and capacity summary of one fabric."""

    name: str
    n_gpus: int
    n_switches: int
    n_links: int
    n_ports: int
    capex_usd: float
    power_w: float
    per_gpu_bandwidth: float
    bisection_bandwidth: float
    avg_hops: float

    @property
    def capex_per_gpu(self) -> float:
        """Network capital cost per endpoint."""
        return self.capex_usd / self.n_gpus

    @property
    def power_per_gpu(self) -> float:
        """Network power per endpoint (W)."""
        return self.power_w / self.n_gpus

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        return (
            f"{self.name}: {self.n_gpus} GPUs, {self.n_switches} switches, "
            f"{self.n_links} links ({self.n_ports} ports)\n"
            f"  capex ${self.capex_usd:,.0f} (${self.capex_per_gpu:,.0f}/GPU), "
            f"power {self.power_w / KILOWATT:.1f} kW ({self.power_per_gpu:.0f} W/GPU)\n"
            f"  per-GPU {self.per_gpu_bandwidth / GB_PER_S:.0f} GB/s, "
            f"bisection {self.bisection_bandwidth / GB_PER_S:,.0f} GB/s, "
            f"avg hops {self.avg_hops:.2f}"
        )


@dataclass(frozen=True)
class Fabric:
    """A topology bound to concrete switch hardware for costing.

    The topology's own ``switch`` spec (when it has one) drives switching
    cost/power; link transceiver cost and energy come from the topology's
    link spec.  ``utilization`` sets the average traffic level for power.
    """

    topology: Topology
    utilization: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.utilization <= 1.0:
            raise SpecError("utilization must be in [0, 1]")

    @property
    def _switch_spec(self) -> SwitchSpec | None:
        return getattr(self.topology, "switch", None)

    @property
    def n_ports(self) -> int:
        """Transceiver ports (two per link)."""
        return 2 * self.topology.n_links

    def capex(self) -> float:
        """Capital cost: switches + transceivers."""
        cost = self.n_ports * self.topology.link.cost_per_port_usd
        switch = self._switch_spec
        if switch is not None and self.topology.n_switches > 0:
            cost += self.topology.n_switches * switch.cost_usd
        return cost

    def power(self) -> float:
        """Operating power: link ports at utilization + switch power."""
        port_power = self.n_ports * self.topology.link.watts_at_line_rate() * self.utilization
        switch = self._switch_spec
        if switch is None or self.topology.n_switches == 0:
            return port_power
        return port_power + self.topology.n_switches * switch.power_at_utilization(self.utilization)

    def report(self, name: str | None = None) -> FabricReport:
        """Produce the full :class:`FabricReport`."""
        topo = self.topology
        return FabricReport(
            name=name or type(topo).__name__,
            n_gpus=topo.n_gpus,
            n_switches=topo.n_switches,
            n_links=topo.n_links,
            n_ports=self.n_ports,
            capex_usd=self.capex(),
            power_w=self.power(),
            per_gpu_bandwidth=topo.per_gpu_bandwidth,
            bisection_bandwidth=topo.bisection_bandwidth,
            avg_hops=topo.avg_hops,
        )


def compare_fabrics(n_gpus: int, group: int = 4, utilization: float = 0.5) -> list[FabricReport]:
    """Build the Section 3 three-way comparison at a given scale.

    Returns reports for direct-connect groups, a leaf-spine packet fabric,
    and a flat circuit-switched fabric over the same ``n_gpus``.
    """
    if n_gpus % group != 0:
        raise SpecError("n_gpus must be a multiple of the group size")
    candidates: list[tuple[str, Topology]] = [
        ("direct-connect", DirectConnectTopology(n_gpus=n_gpus, group=group)),
        ("packet-switched", SwitchedTopology(n_gpus=n_gpus)),
        ("flat-circuit", FlatCircuitTopology(n_gpus=n_gpus)),
    ]
    return [Fabric(topo, utilization).report(name) for name, topo in candidates]
