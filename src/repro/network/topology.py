"""Cluster network topologies for Lite-GPU deployments.

Section 3 ("Network management") sketches the options this module implements:

- :class:`DirectConnectTopology` — *"as the traffic across Lite-GPUs that
  replace one large GPU is predictable, we can build a direct-connect
  topology within that group ... and leave the remaining network as is"*.
  Full mesh inside each group, a group-level uplink outside.  Cheap, but the
  group is a shared fate domain (it "eliminates the benefits of the smaller
  blast radius").
- :class:`SwitchedTopology` — a flat or two-level (leaf-spine) packet-
  switched fabric over the whole cluster: flexible, fault-tolerant, pricier.
- :class:`FlatCircuitTopology` — a single stage of optical circuit switches
  across the entire cluster (Sirius-style), the paper's favoured endpoint:
  OCS port counts "allow for larger and flatter networks" at low cost/power.

Each topology reports the metrics the comparison benchmarks need: switch and
link inventories, per-GPU injection bandwidth, bisection bandwidth, hop
counts, cost, and power.  Graphs are materialized through networkx on demand
(see :mod:`repro.network.routing`).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import networkx as nx

from ..errors import SpecError
from .links import CPO_OPTICS, LinkSpec
from .switches import CIRCUIT_SWITCH_OCS, PACKET_SWITCH_TOR, SwitchSpec


@dataclass(frozen=True)
class Topology(abc.ABC):
    """Base class: a network connecting ``n_gpus`` endpoints."""

    n_gpus: int
    link: LinkSpec = CPO_OPTICS

    def __post_init__(self) -> None:
        if self.n_gpus <= 0:
            raise SpecError("n_gpus must be positive")

    # --- inventory ------------------------------------------------------------

    @property
    @abc.abstractmethod
    def n_switches(self) -> int:
        """Number of switches in the fabric."""

    @property
    @abc.abstractmethod
    def n_links(self) -> int:
        """Number of cables/links (each with two ports)."""

    @property
    @abc.abstractmethod
    def per_gpu_bandwidth(self) -> float:
        """Injection bandwidth each GPU gets into the fabric (bytes/s)."""

    @property
    @abc.abstractmethod
    def bisection_bandwidth(self) -> float:
        """Worst-case bandwidth across a balanced cut (bytes/s)."""

    @abc.abstractmethod
    def hop_count(self, a: int, b: int) -> int:
        """Network hops (links traversed) between GPUs ``a`` and ``b``."""

    @abc.abstractmethod
    def graph(self) -> nx.Graph:
        """Materialize the topology as a networkx graph.  GPU nodes are
        ``("gpu", i)``, switch nodes ``("sw", j)``."""

    # --- derived ---------------------------------------------------------------

    @property
    def avg_hops(self) -> float:
        """Mean hop count over distinct GPU pairs (analytic where easy,
        otherwise sampled from the definition)."""
        if self.n_gpus == 1:
            return 0.0
        total = 0
        pairs = 0
        step = max(1, self.n_gpus // 64)  # sample for very large fabrics
        idx = range(0, self.n_gpus, step)
        for a in idx:
            for b in idx:
                if a < b:
                    total += self.hop_count(a, b)
                    pairs += 1
        return total / pairs if pairs else 0.0

    def latency(self, a: int, b: int, switch_latency: float = 0.0) -> float:
        """One-way latency between two GPUs (link + switch traversals)."""
        hops = self.hop_count(a, b)
        switches = max(0, hops - 1)
        return hops * self.link.latency + switches * switch_latency

    def _check_gpu(self, idx: int) -> None:
        if not 0 <= idx < self.n_gpus:
            raise SpecError(f"GPU index {idx} out of range [0, {self.n_gpus})")


@dataclass(frozen=True)
class DirectConnectTopology(Topology):
    """Full mesh inside fixed-size groups; one uplink per group outside.

    ``group`` is the Lite-group size (4 in Figure 2).  Each GPU has
    ``group - 1`` mesh links; each group shares ``uplinks_per_group`` links
    to the outside network (abstracted as a single hub node).
    """

    group: int = 4
    uplinks_per_group: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.group <= 0:
            raise SpecError("group size must be positive")
        if self.n_gpus % self.group != 0:
            raise SpecError("n_gpus must be a multiple of the group size")
        if self.uplinks_per_group <= 0:
            raise SpecError("uplinks_per_group must be positive")

    @property
    def n_groups(self) -> int:
        """Number of Lite-groups."""
        return self.n_gpus // self.group

    @property
    def n_switches(self) -> int:
        """Direct-connect groups need no switches; the external network is
        represented by one hub (not counted as fabric inventory here)."""
        return 0

    @property
    def n_links(self) -> int:
        mesh = self.n_groups * (self.group * (self.group - 1) // 2)
        uplinks = self.n_groups * self.uplinks_per_group
        return mesh + uplinks

    @property
    def per_gpu_bandwidth(self) -> float:
        """Each GPU's aggregate injection: its mesh links (intra-group)."""
        return (self.group - 1) * self.link.bandwidth if self.group > 1 else self.link.bandwidth

    @property
    def bisection_bandwidth(self) -> float:
        """Cutting between groups crosses only uplinks — the weak spot."""
        crossing_groups = self.n_groups / 2.0
        return crossing_groups * self.uplinks_per_group * self.link.bandwidth

    def hop_count(self, a: int, b: int) -> int:
        self._check_gpu(a)
        self._check_gpu(b)
        if a == b:
            return 0
        if a // self.group == b // self.group:
            return 1  # mesh neighbour
        # Cross-group: mesh hop to the group's uplink holder (GPU 0 of the
        # group) unless the endpoint *is* the holder, then up and over.
        extra = (a % self.group != 0) + (b % self.group != 0)
        return 2 + extra

    def graph(self) -> nx.Graph:
        g = nx.Graph()
        hub = ("sw", 0)
        g.add_node(hub, kind="hub")
        for i in range(self.n_gpus):
            g.add_node(("gpu", i), kind="gpu")
        for grp in range(self.n_groups):
            members = range(grp * self.group, (grp + 1) * self.group)
            for a in members:
                for b in members:
                    if a < b:
                        g.add_edge(("gpu", a), ("gpu", b), kind="mesh")
            g.add_edge(("gpu", grp * self.group), hub, kind="uplink")
        return g


@dataclass(frozen=True)
class SwitchedTopology(Topology):
    """Packet-switched fabric: flat (one tier) or leaf-spine (two tiers).

    ``oversubscription`` applies to the leaf uplink stage (1.0 = full
    bisection).  Switch radix comes from the switch spec; if one switch can
    host every GPU, the fabric is flat.
    """

    switch: SwitchSpec = PACKET_SWITCH_TOR
    oversubscription: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.oversubscription < 1.0:
            raise SpecError("oversubscription must be >= 1.0")

    @property
    def is_flat(self) -> bool:
        """Whether a single switch suffices."""
        return self.n_gpus <= self.switch.ports

    @property
    def n_leaves(self) -> int:
        """Leaf switches (half the radix faces down in two-tier mode)."""
        if self.is_flat:
            return 1
        down = self.switch.ports // 2
        return math.ceil(self.n_gpus / down)

    @property
    def n_spines(self) -> int:
        """Spine switches sized for the (possibly oversubscribed) uplinks."""
        if self.is_flat:
            return 0
        down = self.switch.ports // 2
        up_per_leaf = math.ceil(down / self.oversubscription)
        return max(1, math.ceil(self.n_leaves * up_per_leaf / self.switch.ports))

    @property
    def n_switches(self) -> int:
        return self.n_leaves + self.n_spines

    @property
    def n_links(self) -> int:
        gpu_links = self.n_gpus
        if self.is_flat:
            return gpu_links
        down = self.switch.ports // 2
        up_per_leaf = math.ceil(down / self.oversubscription)
        return gpu_links + self.n_leaves * up_per_leaf

    @property
    def per_gpu_bandwidth(self) -> float:
        return min(self.link.bandwidth, self.switch.port_bandwidth)

    @property
    def bisection_bandwidth(self) -> float:
        if self.is_flat:
            return self.n_gpus / 2.0 * self.per_gpu_bandwidth
        return self.n_gpus / 2.0 * self.per_gpu_bandwidth / self.oversubscription

    def hop_count(self, a: int, b: int) -> int:
        self._check_gpu(a)
        self._check_gpu(b)
        if a == b:
            return 0
        if self.is_flat:
            return 2
        down = self.switch.ports // 2
        if a // down == b // down:
            return 2  # same leaf
        return 4  # leaf -> spine -> leaf

    def graph(self) -> nx.Graph:
        g = nx.Graph()
        for i in range(self.n_gpus):
            g.add_node(("gpu", i), kind="gpu")
        if self.is_flat:
            g.add_node(("sw", 0), kind="leaf")
            for i in range(self.n_gpus):
                g.add_edge(("gpu", i), ("sw", 0), kind="access")
            return g
        down = self.switch.ports // 2
        for leaf in range(self.n_leaves):
            g.add_node(("sw", leaf), kind="leaf")
        for spine in range(self.n_spines):
            g.add_node(("sw", self.n_leaves + spine), kind="spine")
        for i in range(self.n_gpus):
            g.add_edge(("gpu", i), ("sw", i // down), kind="access")
        for leaf in range(self.n_leaves):
            for spine in range(self.n_spines):
                g.add_edge(("sw", leaf), ("sw", self.n_leaves + spine), kind="uplink")
        return g


@dataclass(frozen=True)
class FlatCircuitTopology(Topology):
    """One stage of optical circuit switches over the whole cluster.

    Every GPU connects to an OCS plane; circuits are reconfigured between
    traffic phases (the paper: AI traffic is predictable enough).  ``planes``
    parallel OCS planes multiply per-GPU bandwidth and fault tolerance.
    """

    switch: SwitchSpec = CIRCUIT_SWITCH_OCS
    planes: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.planes <= 0:
            raise SpecError("planes must be positive")

    @property
    def switches_per_plane(self) -> int:
        """OCS count per plane (port-limited)."""
        return math.ceil(self.n_gpus / self.switch.ports)

    @property
    def n_switches(self) -> int:
        return self.planes * self.switches_per_plane

    @property
    def n_links(self) -> int:
        return self.planes * self.n_gpus

    @property
    def per_gpu_bandwidth(self) -> float:
        return self.planes * min(self.link.bandwidth, self.switch.port_bandwidth)

    @property
    def bisection_bandwidth(self) -> float:
        """Circuits can realize any matching: full bisection."""
        return self.n_gpus / 2.0 * self.per_gpu_bandwidth

    def hop_count(self, a: int, b: int) -> int:
        self._check_gpu(a)
        self._check_gpu(b)
        return 0 if a == b else 2  # gpu -> OCS -> gpu, regardless of scale

    def graph(self) -> nx.Graph:
        g = nx.Graph()
        for i in range(self.n_gpus):
            g.add_node(("gpu", i), kind="gpu")
        sw_id = 0
        for _plane in range(self.planes):
            plane_switches = []
            for _ in range(self.switches_per_plane):
                node = ("sw", sw_id)
                g.add_node(node, kind="ocs")
                plane_switches.append(node)
                sw_id += 1
            for i in range(self.n_gpus):
                g.add_edge(("gpu", i), plane_switches[i % len(plane_switches)], kind="access")
        return g

    def reconfiguration_penalty(self, phases_per_second: float) -> float:
        """Fraction of time lost to circuit reconfiguration at a given
        traffic-phase change rate."""
        if phases_per_second < 0:
            raise SpecError("phases_per_second must be non-negative")
        return min(1.0, phases_per_second * self.switch.reconfig_time)
