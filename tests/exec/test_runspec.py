"""RunSpec: one run description, and the composition rules it shares."""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.cluster.failures import FailureModel
from repro.cluster.placement import place
from repro.cluster.scheduler import ColocatedPool, InstanceSpec, PhasePools
from repro.cluster.simulator import (
    ColocatedSimulator,
    ServingSimulator,
    SimConfig,
    simulator_for,
)
from repro.errors import SpecError
from repro.exec import RunSpec
from repro.exec.sharding import run_sharded
from repro.hardware.gpu import H100
from repro.network.topology import DirectConnectTopology, SwitchedTopology
from repro.workloads.models import LLAMA3_8B
from repro.workloads.traces import TraceConfig, generate_piecewise_trace, generate_trace

TRACE = TraceConfig(rate=2.0, duration=4.0, output_tokens=40, output_spread=0.5)
FLUID = SimConfig(backend="fluid")
FAILURES = FailureModel(mtbf=3600.0, mttr=60.0)


def _pools(n_prefill=2, n_decode=2):
    return PhasePools(
        prefill=InstanceSpec(LLAMA3_8B, H100, 1),
        n_prefill=n_prefill,
        decode=InstanceSpec(LLAMA3_8B, H100, 1),
        n_decode=n_decode,
        max_prefill_batch=4,
        max_decode_batch=64,
    )


def _colocated(n_instances=2):
    return ColocatedPool(
        instance=InstanceSpec(LLAMA3_8B, H100, 1),
        n_instances=n_instances,
        max_decode_batch=64,
    )


def _placement(deployment):
    return place(SwitchedTopology(n_gpus=8), deployment.pool_shapes())


def _scripted(deployment):
    return [(1.0, deployment.pool_shapes()[-1].name, 0, 2.0)]


# Each rule: the message it raises, then the inputs RunSpec takes, the
# inputs both simulators take and the inputs run_sharded takes (None where
# that API has no such input).  Values that depend on the deployment are
# built from it by a callable.
COMPOSITION_RULES = [
    (
        "fluid-with-shards", "fluid.*--shards",
        dict(config=FLUID, shards=2), None, dict(config=FLUID, shards=2),
    ),
    (
        "fluid-with-failure-model", "fluid.*failures",
        dict(config=FLUID, failure_model=FAILURES),
        dict(config=FLUID, failure_model=FAILURES),
        dict(config=FLUID, shards=2, failure_model=FAILURES),
    ),
    # RunSpec holds no scripted failures: no caller sets them on a run yet.
    (
        "fluid-with-scripted-failures", "fluid.*failures",
        None,
        dict(config=FLUID, failures=_scripted),
        dict(config=FLUID, shards=2, failures=_scripted),
    ),
    (
        "fluid-with-controller", "fluid.*elastic",
        dict(config=FLUID, controller="reactive"),
        dict(config=FLUID, controller="reactive"),
        None,
    ),
    (
        "shards-with-topology", "--shards.*--topology",
        dict(shards=2, topology="switched"), None, None,
    ),
    (
        "shards-with-controller", "--shards.*controller",
        dict(shards=2, controller="reactive"), None, None,
    ),
    (
        "shards-with-network-model", "--shards.*--network-model",
        dict(shards=2, network_model="fabric"), None, None,
    ),
    (
        "fabric-without-topology", "topology is required",
        dict(network_model="fabric"), dict(network_model="fabric"), None,
    ),
    (
        "placement-without-topology", "topology is required",
        dict(placer=_placement), dict(placer=_placement), None,
    ),
    (
        "placer-without-topology", "no effect without --topology",
        dict(placer="scattered"), dict(placer="scattered"), None,
    ),
    (
        "cluster-gpus-without-topology", "no effect without --topology",
        dict(cluster_gpus=16), None, None,
    ),
    ("zero-shards", "at least 1", dict(shards=0), None, dict(shards=0)),
    ("negative-shards", "at least 1", dict(shards=-3), None, dict(shards=-3)),
]


def _resolve(kwargs, deployment):
    return {k: v(deployment) if callable(v) else v for k, v in kwargs.items()}


def _rules(column):
    """The rules whose inputs one API takes, as (message, kwargs) params."""
    return [
        pytest.param(rule[1], rule[column], id=rule[0])
        for rule in COMPOSITION_RULES
        if rule[column] is not None
    ]


class TestCompositionRules:
    @pytest.mark.parametrize("message, kwargs", _rules(2))
    def test_runspec_rejects(self, message, kwargs):
        for deployment in (_pools(), _colocated()):
            with pytest.raises(SpecError, match=message):
                RunSpec(deployment, **_resolve(kwargs, deployment))

    @pytest.mark.parametrize("message, kwargs", _rules(3))
    def test_simulators_reject(self, message, kwargs):
        for simulator_cls, deployment in (
            (ServingSimulator, _pools()),
            (ColocatedSimulator, _colocated()),
        ):
            with pytest.raises(SpecError, match=message):
                simulator_cls(deployment, **_resolve(kwargs, deployment))

    @pytest.mark.parametrize("message, kwargs", _rules(4))
    def test_run_sharded_rejects(self, message, kwargs):
        for deployment in (_pools(), _colocated()):
            with pytest.raises(SpecError, match=message):
                run_sharded(deployment, [], **_resolve(kwargs, deployment))


class TestRunSpec:
    def test_pickles(self):
        spec = RunSpec(
            _pools(), SimConfig(max_sim_time=60.0), trace=TRACE, seed=3,
            failure_model=FAILURES, failure_seed=2, controller="reactive",
        )
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_replace_rechecks_composition(self):
        spec = RunSpec(_pools(), trace=TRACE)
        with pytest.raises(SpecError):
            replace(spec, shards=0)

    def test_rejects_unknown_deployment_and_topology(self):
        with pytest.raises(SpecError):
            RunSpec("not-a-deployment")
        with pytest.raises(SpecError):
            RunSpec(_pools(), topology="torus")
        with pytest.raises(SpecError):
            RunSpec(_pools(), topology="direct", group=0)

    @pytest.mark.parametrize(
        "deployment", [_pools(), _colocated()], ids=["phase-split", "colocated"]
    )
    def test_run_equals_the_simulator(self, deployment):
        spec = RunSpec(deployment, SimConfig(max_sim_time=120.0), trace=TRACE, seed=5)
        trace = generate_trace(TRACE, seed=5)
        direct = simulator_for(deployment)(deployment, SimConfig(max_sim_time=120.0)).run(trace)
        assert spec.requests() == trace
        assert spec.run() == direct

    def test_sharded_run_equals_run_sharded(self):
        spec = RunSpec(_colocated(4), trace=TRACE, shards=2, shard_policy="round-robin")
        trace = generate_trace(TRACE, seed=0)
        expected = run_sharded(_colocated(4), trace, shards=2, shard_policy="round-robin")
        assert spec.run(trace) == expected

    def test_fluid_run(self):
        assert RunSpec(_pools(), FLUID, trace=TRACE).run().backend == "fluid"

    def test_segments_make_a_piecewise_trace(self):
        base = TraceConfig(output_tokens=40)
        spec = RunSpec(_pools(), trace=base, seed=7, segments=((1.0, 5.0), (4.0, 5.0)))
        assert spec.requests() == generate_piecewise_trace(
            [(1.0, 5.0), (4.0, 5.0)], base, seed=7
        )

    def test_topology_recipe(self):
        assert RunSpec(_pools()).build_topology() is None
        # Four endpoints by default (the deployment's total), rounded up to
        # whole direct-connect groups of three.
        direct = RunSpec(_pools(), topology="direct", group=3).build_topology()
        assert isinstance(direct, DirectConnectTopology) and direct.n_gpus == 6
        switched = RunSpec(_pools(), topology="switched", cluster_gpus=16).build_topology()
        assert isinstance(switched, SwitchedTopology) and switched.n_gpus == 16

    def test_topology_run_places_instances(self):
        spec = RunSpec(
            _pools(), SimConfig(max_sim_time=120.0), trace=TRACE,
            topology="switched", network_model="fabric", placer="scattered",
        )
        simulator = spec.simulator()
        assert simulator.placement is not None
        assert spec.run() == simulator.run(spec.requests())


class TestSimulatorFor:
    def test_maps_each_shape(self):
        assert simulator_for(_pools()) is ServingSimulator
        assert simulator_for(_colocated()) is ColocatedSimulator

    def test_rejects_other_values(self):
        with pytest.raises(SpecError):
            simulator_for("not-a-deployment")
