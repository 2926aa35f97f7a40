"""Traffic matrices and congestion: which workloads distribute well.

Section 3 warns: *"There are workloads that would be challenging to
distribute further using Lite-GPUs, such as workloads that introduce
randomness and congestion to the network traffic"* — while AI collectives
are predictable and schedule cleanly.  This module makes the distinction
computable:

- :func:`traffic_matrix` builds canonical demand patterns (ring-neighbour
  collectives, uniform all-to-all, random permutations, group-local,
  many-to-one hotspots);
- :func:`completion_time` bounds how long each topology takes to deliver a
  matrix (per-link-class bottleneck analysis; circuit switches additionally
  pay one reconfiguration per matching, approximated by the demand graph's
  maximum degree);
- :func:`congestion_slowdown` normalizes by the port-limited lower bound, so
  1.0 means "the network is not the problem".

The punchline the paper wants: predictable patterns (ring, group-local) run
at ~1.0 on the cheap topologies; random/hotspot traffic exposes the
direct-connect groups' thin uplinks, and only the switched/circuit fabrics
keep slowdowns bounded.
"""

from __future__ import annotations

import enum

import numpy as np

from ..errors import SpecError
from .topology import DirectConnectTopology, FlatCircuitTopology, SwitchedTopology, Topology


class TrafficPattern(enum.Enum):
    """Canonical demand patterns."""

    RING = "ring"  # each GPU -> next GPU (collective-like)
    ALL_TO_ALL = "all_to_all"  # uniform (MoE dispatch-like)
    PERMUTATION = "permutation"  # random one-to-one
    GROUP_LOCAL = "group_local"  # uniform within groups (Figure-2 traffic)
    HOTSPOT = "hotspot"  # everyone -> GPU 0 (parameter-server-like)


def traffic_matrix(
    pattern: TrafficPattern,
    n: int,
    total_bytes: float,
    group: int = 4,
    seed: int = 0,
) -> np.ndarray:
    """An ``n x n`` demand matrix moving ``total_bytes`` in aggregate.

    >>> m = traffic_matrix(TrafficPattern.RING, 8, 8e9)
    >>> float(m.sum())
    8000000000.0
    """
    if n <= 1:
        raise SpecError("n must be at least 2")
    if total_bytes <= 0:
        raise SpecError("total_bytes must be positive")
    if group <= 0 or n % group:
        raise SpecError("group must divide n")
    matrix = np.zeros((n, n))
    if pattern is TrafficPattern.RING:
        for i in range(n):
            matrix[i, (i + 1) % n] = 1.0
    elif pattern is TrafficPattern.ALL_TO_ALL:
        matrix[:] = 1.0
        np.fill_diagonal(matrix, 0.0)
    elif pattern is TrafficPattern.PERMUTATION:
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        while np.any(perm == np.arange(n)):  # avoid self-loops
            perm = rng.permutation(n)
        for i in range(n):
            matrix[i, perm[i]] = 1.0
    elif pattern is TrafficPattern.GROUP_LOCAL:
        for g in range(n // group):
            lo, hi = g * group, (g + 1) * group
            matrix[lo:hi, lo:hi] = 1.0
        np.fill_diagonal(matrix, 0.0)
    elif pattern is TrafficPattern.HOTSPOT:
        matrix[1:, 0] = 1.0
    else:  # pragma: no cover - exhaustive enum
        raise SpecError(f"unknown pattern {pattern}")
    return matrix * (total_bytes / matrix.sum())


def port_lower_bound(matrix: np.ndarray, port_bandwidth: float) -> float:
    """The LP lower bound: no network beats the busiest port.

    Every byte leaves a source port and enters a destination port, so
    completion time >= max(max row-sum, max col-sum) / port bandwidth.
    """
    if port_bandwidth <= 0:
        raise SpecError("port bandwidth must be positive")
    out = matrix.sum(axis=1).max()
    inbound = matrix.sum(axis=0).max()
    return max(out, inbound) / port_bandwidth


def completion_time(topo: Topology, matrix: np.ndarray) -> float:
    """Time for ``topo`` to deliver ``matrix`` (bottleneck analysis)."""
    n = topo.n_gpus
    if matrix.shape != (n, n):
        raise SpecError(f"matrix shape {matrix.shape} != ({n}, {n})")
    link_bw = topo.link.bandwidth

    if isinstance(topo, DirectConnectTopology):
        g = topo.group
        groups = np.arange(n) // g
        # Mesh links are dedicated per pair: the slowest pair bounds them.
        same = groups[:, None] == groups[None, :]
        mesh_demand = (matrix * same).max(initial=0.0)
        mesh_time = mesh_demand / link_bw
        # Cross-group traffic funnels through each group's uplinks, twice
        # (source uplink, destination uplink) plus the hub.
        cross = matrix * ~same
        per_group_out = np.array([cross[groups == k].sum() for k in range(n // g)])
        per_group_in = np.array([cross[:, groups == k].sum() for k in range(n // g)])
        uplink_bytes = np.maximum(per_group_out, per_group_in).max(initial=0.0)
        uplink_time = uplink_bytes / (topo.uplinks_per_group * link_bw)
        return max(mesh_time, uplink_time)

    if isinstance(topo, SwitchedTopology):
        port = min(link_bw, topo.switch.port_bandwidth)
        base = port_lower_bound(matrix, port)
        if topo.is_flat:
            return base
        down = topo.switch.ports // 2
        leaves = np.arange(n) // down
        cross = 0.0
        for leaf in range(topo.n_leaves):
            mask = leaves == leaf
            cross = max(cross, matrix[mask][:, ~mask].sum(), matrix[~mask][:, mask].sum())
        uplink_bw = down * port / topo.oversubscription
        return max(base, cross / uplink_bw)

    if isinstance(topo, FlatCircuitTopology):
        port = topo.per_gpu_bandwidth
        base = port_lower_bound(matrix, port)
        # A circuit plane serves one matching at a time; a demand graph of
        # maximum degree d needs ~d matchings (Vizing), each paying one
        # reconfiguration.
        degree = int(max((matrix > 0).sum(axis=1).max(), (matrix > 0).sum(axis=0).max()))
        matchings = max(1, degree)
        return base + matchings * topo.switch.reconfig_time

    raise SpecError(f"unsupported topology {type(topo).__name__}")


def congestion_slowdown(topo: Topology, matrix: np.ndarray) -> float:
    """completion time / the port-limited lower bound (>= 1.0)."""
    ideal = port_lower_bound(matrix, topo.per_gpu_bandwidth)
    if ideal <= 0:
        raise SpecError("degenerate traffic matrix")
    return completion_time(topo, matrix) / ideal


def pattern_topology_study(
    n: int = 32,
    total_bytes: float = 32e9,
    group: int = 4,
    seed: int = 0,
) -> dict:
    """The Section 3 matrix: slowdown of each pattern on each topology."""
    topologies = {
        "direct": DirectConnectTopology(n_gpus=n, group=group),
        "switched": SwitchedTopology(n_gpus=n),
        "circuit": FlatCircuitTopology(n_gpus=n),
    }
    out: dict = {}
    for pattern in TrafficPattern:
        matrix = traffic_matrix(pattern, n, total_bytes, group, seed)
        out[pattern.value] = {
            name: congestion_slowdown(topo, matrix) for name, topo in topologies.items()
        }
    return out
