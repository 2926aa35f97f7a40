"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.cluster.engine import ColocatedState, DecodeState
from repro.core.roofline import CommModel, RooflinePolicy
from repro.core.search import SearchConstraints
from repro.hardware.gpu import H100, LITE, LITE_MEMBW, LITE_NETBW
from repro.workloads.models import GPT3_175B, LLAMA3_70B, LLAMA3_405B


@pytest.fixture
def policy() -> RooflinePolicy:
    """Default (paper) roofline policy."""
    return RooflinePolicy()


@pytest.fixture
def ring_policy() -> RooflinePolicy:
    """Flat-ring (pessimistic) policy."""
    return RooflinePolicy(comm_model=CommModel.FLAT_RING)


@pytest.fixture
def constraints() -> SearchConstraints:
    """Paper search constraints (TTFT <= 1 s, TBT <= 50 ms)."""
    return SearchConstraints()


@pytest.fixture(params=[LLAMA3_70B, GPT3_175B, LLAMA3_405B], ids=lambda m: m.name)
def paper_model(request):
    """Each of the paper's three evaluated models."""
    return request.param


@pytest.fixture(params=[H100, LITE, LITE_NETBW, LITE_MEMBW], ids=lambda g: g.name)
def any_gpu(request):
    """A representative set of GPU types."""
    return request.param


#: SimReports recorded when the engine still kept per-sequence token counts
#: and latency lists beside its shared iteration logs (and a test asserted
#: the two paths bit-identical on every run): the answers of the removed
#: per-sequence path, kept as data.
PINNED_REPORTS = Path(__file__).parent / "cluster" / "pinned_reports.json"


@pytest.fixture(scope="session")
def assert_pinned():
    """``check(name, report)``: counters exactly, floats to ``rel=1e-12``.

    ``report`` is a dataclass (a ``SimReport``) or a plain dict of fields.
    """
    pins = json.loads(PINNED_REPORTS.read_text())

    def check(name: str, report) -> None:
        pinned = pins[name]
        fields = report if isinstance(report, dict) else dataclasses.asdict(report)
        assert fields.keys() == pinned.keys()
        for key, value in pinned.items():
            if isinstance(value, float):
                assert fields[key] == pytest.approx(value, rel=1e-12, nan_ok=True), key
            else:
                assert fields[key] == value, key

    return check


def _recount(state: DecodeState) -> None:
    """Recount a decode-capable instance's counters from its residents."""
    holders = [seq.request for seq in state.active]
    if isinstance(state, ColocatedState):
        holders += [partial.request for partial in state.backlog]
        if state.current is not None:
            holders.append(state.current.request)
    assert state.occupied == sum(r.total_tokens for r in holders)
    generated = [state.iter_count - seq.start_iter for seq in state.active]
    assert all(0 <= g < seq.request.output_tokens for g, seq in zip(generated, state.active))
    assert state.context_sum == sum(
        seq.request.prompt_tokens + g for g, seq in zip(generated, state.active)
    )


@pytest.fixture(scope="session")
def recount_every_event():
    """``install(engine)``: recount its counters after every event and tick.

    ``install`` wraps the engine's handlers, and its ``_complete_due`` (run
    once per iteration in both engines, also for ticks an instance runs
    inline without a heap event).  It returns a Counter of the
    ``"events"`` and ``"ticks"`` checked so far.
    """

    def install(engine) -> Counter:
        checked: Counter = Counter()
        handlers = engine.handlers
        complete_due = engine._complete_due

        def recount_all() -> None:
            for states in engine.states.values():
                for state in states:
                    if isinstance(state, DecodeState):
                        _recount(state)

        def wrap(handler):
            def checking(now, payload):
                handler(now, payload)
                recount_all()
                checked["events"] += 1

            return checking

        def checking_tick(inst, finish):
            complete_due(inst, finish)
            recount_all()
            checked["ticks"] += 1

        engine.handlers = lambda: {kind: wrap(h) for kind, h in handlers().items()}
        engine._complete_due = checking_tick
        return checked

    return install
