"""One frozen, picklable description of a serving-simulation run.

Construction rejects inputs that do not compose
(:func:`~repro.cluster.simulator.check_composition`); ``dataclasses.replace``
derives a variant (a sweep point, another controller); :meth:`RunSpec.run`
is the one entry for unsharded, sharded and fluid runs:

>>> from repro.cluster import ColocatedPool, InstanceSpec, SimConfig
>>> from repro.hardware.gpu import H100
>>> from repro.workloads.models import LLAMA3_8B
>>> pool = ColocatedPool(InstanceSpec(LLAMA3_8B, H100, 1), n_instances=2)
>>> spec = RunSpec(pool, SimConfig(backend="fluid"), trace=TraceConfig(rate=2.0, duration=5.0))
>>> spec.run().backend
'fluid'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..cluster.control import ClusterController, get_controller
from ..cluster.failures import FailureModel
from ..cluster.placement import Placement
from ..cluster.policies import PolicyBundle
from ..cluster.scheduler import ColocatedPool, PhasePools
from ..cluster.simulator import SimConfig, SimReport, check_composition, simulator_for
from ..errors import SpecError
from ..network.topology import (
    DirectConnectTopology,
    FlatCircuitTopology,
    SwitchedTopology,
    Topology,
)
from ..workloads.traces import Request, TraceConfig, generate_piecewise_trace, generate_trace
from .sharding import run_sharded

__all__ = ["RunSpec", "TOPOLOGIES"]

#: Topology recipes: no fabric, or a direct-connect, packet-switched or
#: flat-circuit one.
TOPOLOGIES = ("none", "direct", "switched", "circuit")


@dataclass(frozen=True)
class RunSpec:
    """A run, described by its inputs rather than its requests.

    The trace is a recipe: ``trace`` and ``seed``, plus ``segments`` of
    ``(rate, duration)`` pairs for a piecewise trace on ``trace``.  So is the
    fabric: ``topology`` names it, over ``cluster_gpus`` endpoints (0: the
    deployment's total) in direct-connect groups of ``group``.  ``shards >
    1`` splits the run with :func:`~repro.exec.sharding.run_sharded`,
    routing requests to shards by ``shard_policy``.
    """

    deployment: "PhasePools | ColocatedPool"
    config: SimConfig = SimConfig()
    trace: TraceConfig = TraceConfig()
    seed: int = 0
    segments: Tuple[Tuple[float, float], ...] = ()
    policy: "PolicyBundle | str" = "fcfs"
    failure_model: Optional[FailureModel] = None
    failure_seed: int = 0
    topology: str = "none"
    cluster_gpus: int = 0
    group: int = 4
    placer: "str | Placement" = "packed"
    network_model: str = "none"
    controller: "ClusterController | str | None" = None
    shards: int = 1
    shard_policy: str = "least-loaded"

    def __post_init__(self) -> None:
        simulator_for(self.deployment)
        if self.topology not in TOPOLOGIES:
            raise SpecError(f"topology must be one of {'/'.join(TOPOLOGIES)}")
        if self.topology != "none" and (self.group <= 0 or self.cluster_gpus < 0):
            raise SpecError("--group must be positive and --cluster-gpus non-negative")
        check_composition(
            self.config, shards=self.shards, topology=self.topology != "none",
            placer=self.placer, cluster_gpus=self.cluster_gpus,
            network_model=self.network_model, controller=get_controller(self.controller),
            failure_model=self.failure_model,
        )

    def requests(self) -> List[Request]:
        """The trace the recipe generates (deterministic in ``seed``)."""
        if self.segments:
            return generate_piecewise_trace(self.segments, self.trace, seed=self.seed)
        return generate_trace(self.trace, seed=self.seed)

    def build_topology(self) -> Optional[Topology]:
        """The fabric of the topology recipe, or ``None`` without one."""
        if self.topology == "none":
            return None
        n_gpus = self.cluster_gpus or self.deployment.total_gpus
        if self.topology == "direct":  # whole groups: spare endpoints stay unplaced
            n_gpus = -(-n_gpus // self.group) * self.group
            return DirectConnectTopology(n_gpus=n_gpus, group=self.group)
        fabric = SwitchedTopology if self.topology == "switched" else FlatCircuitTopology
        return fabric(n_gpus=n_gpus)

    def simulator(self):
        """The unsharded simulator of this spec, ready to ``run`` a trace."""
        return simulator_for(self.deployment)(
            self.deployment, self.config, policies=self.policy,
            failure_model=self.failure_model, failure_seed=self.failure_seed,
            topology=self.build_topology(), placer=self.placer,
            network_model=self.network_model, controller=self.controller,
        )

    def run(self, trace: Optional[Sequence[Request]] = None, *, workers: int = 1) -> SimReport:
        """Simulate ``trace`` (default: the recipe's); ``workers`` serve the shards."""
        trace = self.requests() if trace is None else trace
        if self.shards > 1:
            return run_sharded(
                self.deployment, trace, self.config, shards=self.shards,
                policies=self.policy, failure_model=self.failure_model,
                failure_seed=self.failure_seed, shard_policy=self.shard_policy,
                workers=workers,
            )
        return self.simulator().run(trace)
