"""Policy-layer tests: registries, bundles, and each policy's behaviour."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.policies import (
    ADMISSION_POLICIES,
    POLICY_BUNDLES,
    PREFILL_POLICIES,
    REQUEUE_POLICIES,
    ROUTING_POLICIES,
    BackOfQueueRequeue,
    FCFSAdmission,
    FCFSPrefillBatching,
    FrontOfQueueRequeue,
    IndexOrderRouting,
    LeastLoadedRouting,
    PolicyBundle,
    RoundRobinRouting,
    SJFPrefillBatching,
    SmallestFirstAdmission,
    get_policy_bundle,
)
from repro.errors import RegistryError, SpecError
from repro.workloads.traces import Request


def req(rid, prompt=100, output=50, arrival=0.0) -> Request:
    return Request(request_id=rid, arrival=arrival, prompt_tokens=prompt, output_tokens=output)


class TestRegistries:
    def test_bundle_round_trip(self):
        """Every registered bundle resolves by name to a complete bundle."""
        for name in POLICY_BUNDLES.names():
            bundle = get_policy_bundle(name)
            assert isinstance(bundle, PolicyBundle)
            assert bundle.name == name
            assert name in POLICY_BUNDLES
            assert bundle.describe()

    def test_policy_registries_round_trip(self):
        for registry, classes in (
            (ROUTING_POLICIES, (IndexOrderRouting, LeastLoadedRouting, RoundRobinRouting)),
            (PREFILL_POLICIES, (FCFSPrefillBatching, SJFPrefillBatching)),
            (ADMISSION_POLICIES, (FCFSAdmission, SmallestFirstAdmission)),
            (REQUEUE_POLICIES, (BackOfQueueRequeue, FrontOfQueueRequeue)),
        ):
            assert set(registry.names()) == {cls.name for cls in classes}
            for cls in classes:
                assert registry.get(cls.name) is cls

    def test_unknown_bundle_raises(self):
        with pytest.raises(RegistryError):
            get_policy_bundle("nope")

    def test_bad_spec_raises(self):
        with pytest.raises(SpecError):
            get_policy_bundle(42)

    def test_default_is_fcfs(self):
        assert get_policy_bundle(None).name == "fcfs"

    def test_instances_pass_through(self):
        bundle = get_policy_bundle("fcfs")
        assert get_policy_bundle(bundle) is bundle

    def test_fresh_instances_per_lookup(self):
        """Stateful policies must not leak between simulations."""
        a = get_policy_bundle("round-robin")
        b = get_policy_bundle("round-robin")
        assert a.routing is not b.routing


class TestRouting:
    def test_index_order(self):
        assert IndexOrderRouting().order([5.0, 1.0, 3.0]) == [0, 1, 2]

    def test_least_loaded_stable(self):
        assert LeastLoadedRouting().order([2.0, 1.0, 1.0]) == [1, 2, 0]

    def test_round_robin_rotates(self):
        rr = RoundRobinRouting()
        assert rr.order([0, 0, 0]) == [0, 1, 2]
        assert rr.order([0, 0, 0]) == [1, 2, 0]
        assert rr.order([0, 0, 0]) == [2, 0, 1]
        assert rr.order([]) == []


#: Few distinct values, so most drawn load vectors hold ties.
_LOADS = st.lists(st.sampled_from([0.0, 1.0, 2.5, 7.0, 1e9]), min_size=1, max_size=9)


class TestRoutingFirst:
    """``first(loads)`` is exactly the head of ``order(loads)``."""

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(sorted(ROUTING_POLICIES.names())), loads=_LOADS)
    def test_first_is_head_of_order(self, name, loads):
        assert ROUTING_POLICIES.get(name)().first(loads) == (
            ROUTING_POLICIES.get(name)().order(loads)[0]
        )

    @settings(max_examples=100, deadline=None)
    @given(
        name=st.sampled_from(sorted(ROUTING_POLICIES.names())),
        rounds=st.lists(_LOADS, min_size=1, max_size=12),
    )
    def test_instances_stay_in_step(self, name, rounds):
        """One instance picks with ``first``, a twin with ``order``: a
        stateful policy (round-robin's rotation) must advance alike."""
        picker, twin = ROUTING_POLICIES.get(name)(), ROUTING_POLICIES.get(name)()
        for loads in rounds:
            assert picker.first(loads) == twin.order(loads)[0]


class TestPrefillBatching:
    def test_fcfs_takes_oldest(self):
        queue = deque(req(i, prompt=100 * (i + 1)) for i in range(4))
        batch = FCFSPrefillBatching().select(queue, 2)
        assert [r.request_id for r in batch] == [0, 1]
        assert [r.request_id for r in queue] == [2, 3]

    def test_sjf_takes_shortest(self):
        queue = deque(
            [req(0, prompt=900), req(1, prompt=100), req(2, prompt=500), req(3, prompt=100)]
        )
        batch = SJFPrefillBatching().select(queue, 2)
        assert [r.request_id for r in batch] == [1, 3]  # stable on ties
        assert [r.request_id for r in queue] == [0, 2]

    def test_empty_queue(self):
        assert SJFPrefillBatching().select(deque(), 4) == []


class TestAdmission:
    def test_fcfs_stops_at_first_misfit(self):
        queue = deque([req(0, prompt=50, output=50), req(1, prompt=900, output=100),
                       req(2, prompt=10, output=10)])
        admitted = FCFSAdmission().select(queue, slots=8, budget=200)
        # 100 fits, 1000 does not -> head-of-line blocking stops admission.
        assert [r.request_id for r in admitted] == [0]
        assert [r.request_id for r in queue] == [1, 2]

    def test_smallest_first_packs_around_blocker(self):
        queue = deque([req(0, prompt=50, output=50), req(1, prompt=900, output=100),
                       req(2, prompt=10, output=10)])
        admitted = SmallestFirstAdmission().select(queue, slots=8, budget=200)
        assert [r.request_id for r in admitted] == [2, 0]
        assert [r.request_id for r in queue] == [1]

    def test_slot_bound(self):
        queue = deque(req(i, prompt=1, output=1) for i in range(5))
        assert len(FCFSAdmission().select(queue, slots=3, budget=10**6)) == 3


class TestRequeue:
    def test_back_and_front(self):
        queue = deque([req(0)])
        BackOfQueueRequeue().requeue(req(1), queue)
        FrontOfQueueRequeue().requeue(req(2), queue)
        assert [r.request_id for r in queue] == [2, 0, 1]

    def test_requeue_all_preserves_batch_order(self):
        """The first victim of a batch stays first among the batch wherever
        the policy inserts it."""
        batch = [req(1), req(2), req(3)]
        back = deque([req(0)])
        BackOfQueueRequeue().requeue_all(batch, back)
        assert [r.request_id for r in back] == [0, 1, 2, 3]
        front = deque([req(0)])
        FrontOfQueueRequeue().requeue_all(batch, front)
        assert [r.request_id for r in front] == [1, 2, 3, 0]
