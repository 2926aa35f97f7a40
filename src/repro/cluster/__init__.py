"""Cluster substrate: allocation, scheduling, failures, power, simulation.

Makes Section 3's systems opportunities executable:

- :mod:`repro.cluster.spec` — cluster composition and rollups.
- :mod:`repro.cluster.placement` — mapping simulator instances onto
  physical topology GPUs (packed / scattered / random / greedy placers).
- :mod:`repro.cluster.allocator` — finer-granularity resource management.
- :mod:`repro.cluster.failures` — failure models and blast radius.
- :mod:`repro.cluster.availability` — Monte-Carlo availability + hot spares.
- :mod:`repro.cluster.memory` — disaggregated memory pools and KV placement.
- :mod:`repro.cluster.power_manager` — cluster-level clocking policies.
- :mod:`repro.cluster.scheduler` — deployment shapes: phase-split
  (Splitwise-style) and colocated (SARATHI-style) pools.
- :mod:`repro.cluster.policies` — pluggable routing / batching / admission
  / requeue policies, registered by name.
- :mod:`repro.cluster.engine` — the discrete-event core: event heap,
  instance state machines, memoized service times.
- :mod:`repro.cluster.control` — the elastic control plane: cluster
  controllers (reactive / slo / forecast / power_cap; ``static`` is
  ``None``) stepped inside the event loop to spawn, drain, and
  DVFS-throttle instances.
- :mod:`repro.cluster.economics` — gpu-seconds, joules, and $/Mtoken
  accounting behind every report's cost fields.
- :mod:`repro.cluster.resilience` — the failure-response loop: deadlines,
  client retries, checkpointed restarts, brown-out degradation, and the
  goodput / MTTR / availability accounting.
- :mod:`repro.cluster.chaos` — scripted failure scenarios measuring blast
  radius, checkpoint recovery, and retry storms (``repro chaos``).
- :mod:`repro.cluster.simulator` — the serving simulators (one per
  deployment shape) whose service times come from the analytical model.
"""

from .spec import ClusterSpec, lite_equivalent
from .placement import (
    PLACERS,
    Placement,
    PoolShape,
    get_placer,
    place,
    placement_hop_stats,
)
from .allocator import Allocation, AllocationRequest, ResourceAllocator, quantization_waste
from .datacenter import RackPlan, RackSpec, floor_plan, lite_vs_h100_floor, plan_racks, reach_check
from .provisioning import ProvisioningPlan, WorkloadForecast, phase_gpu_ratio, provision_pools
from .failures import (
    BlastRadius,
    ComponentFailure,
    ComponentFailureModel,
    FailureModel,
    InstanceReliability,
    resolve_component_failures,
    sample_failure_schedule,
)
from .availability import AvailabilityResult, SparePolicy, simulate_availability
from .memory import DisaggregatedPool, KVPlacementPolicy, MemorySystem
from .power_manager import ClusterPowerManager, PeakStrategy
from .scheduler import ColocatedPool, InstanceSpec, PhasePools
from .policies import POLICY_BUNDLES, PolicyBundle, get_policy_bundle
from .control import (
    CONTROLLERS,
    ClusterController,
    ControlAction,
    ControlObservation,
    ForecastController,
    PoolStats,
    PowerCapController,
    ReactiveController,
    SLOController,
    get_controller,
)
from .economics import EconomicsConfig, EconomicsReport, PoolEconomics, pool_economics
from .resilience import (
    RETRY_POLICIES,
    BrownoutConfig,
    ExpJitterRetry,
    FixedRetry,
    NoRetry,
    ResilienceConfig,
    RetryPolicy,
    get_retry_policy,
    goodput_dip,
)
from .chaos import blast_radius_scenario, checkpoint_scenario, retry_storm_scenario
from .engine import (
    AbstractServiceTimeProvider,
    EventQueue,
    NetworkAwareServiceTimeProvider,
    ServiceTimeProvider,
)
from .simulator import (
    ColocatedSimulator,
    CompletedRequest,
    ServingSimulator,
    SimConfig,
    SimReport,
)
from .fluid import BatchTimeFit, TraceProfile

__all__ = [
    "ClusterSpec",
    "lite_equivalent",
    "PLACERS",
    "Placement",
    "PoolShape",
    "get_placer",
    "place",
    "placement_hop_stats",
    "RackPlan",
    "RackSpec",
    "floor_plan",
    "lite_vs_h100_floor",
    "plan_racks",
    "reach_check",
    "ProvisioningPlan",
    "WorkloadForecast",
    "phase_gpu_ratio",
    "provision_pools",
    "Allocation",
    "AllocationRequest",
    "ResourceAllocator",
    "quantization_waste",
    "BlastRadius",
    "ComponentFailure",
    "ComponentFailureModel",
    "FailureModel",
    "InstanceReliability",
    "resolve_component_failures",
    "sample_failure_schedule",
    "AvailabilityResult",
    "SparePolicy",
    "simulate_availability",
    "DisaggregatedPool",
    "KVPlacementPolicy",
    "MemorySystem",
    "ClusterPowerManager",
    "PeakStrategy",
    "ColocatedPool",
    "InstanceSpec",
    "PhasePools",
    "POLICY_BUNDLES",
    "PolicyBundle",
    "get_policy_bundle",
    "CONTROLLERS",
    "ClusterController",
    "ControlAction",
    "ControlObservation",
    "ForecastController",
    "PoolStats",
    "PowerCapController",
    "ReactiveController",
    "SLOController",
    "get_controller",
    "RETRY_POLICIES",
    "BrownoutConfig",
    "ExpJitterRetry",
    "FixedRetry",
    "NoRetry",
    "ResilienceConfig",
    "RetryPolicy",
    "get_retry_policy",
    "goodput_dip",
    "blast_radius_scenario",
    "checkpoint_scenario",
    "retry_storm_scenario",
    "EconomicsConfig",
    "EconomicsReport",
    "PoolEconomics",
    "pool_economics",
    "AbstractServiceTimeProvider",
    "EventQueue",
    "NetworkAwareServiceTimeProvider",
    "ServiceTimeProvider",
    "ColocatedSimulator",
    "CompletedRequest",
    "ServingSimulator",
    "SimConfig",
    "SimReport",
    "BatchTimeFit",
    "TraceProfile",
]
