"""Extension: traffic patterns vs topologies — the congestion caveat.

Section 3 argues AI traffic is predictable enough for cheap topologies but
that "workloads that introduce randomness and congestion" would struggle.
This bench produces the full pattern x topology slowdown matrix at 32
Lite-GPUs and asserts the paper's qualitative split.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.network.traffic import pattern_topology_study

from conftest import emit


def test_ext_traffic_patterns(benchmark):
    study = benchmark(pattern_topology_study, n=32, total_bytes=32e9, group=4, seed=7)
    rows = [
        [pattern, f"{s['direct']:.2f}", f"{s['switched']:.2f}", f"{s['circuit']:.2f}"]
        for pattern, s in study.items()
    ]
    emit(
        "Extension: congestion slowdown (completion / port bound; 1.0 = ideal)",
        format_table(["pattern", "direct-connect", "switched", "circuit"], rows),
    )
    # Predictable patterns run clean on the fabric built for them.
    assert study["group_local"]["direct"] < 3.0
    assert study["ring"]["circuit"] < 1.1
    # Random permutations blow up the direct-connect uplinks only.
    assert study["permutation"]["direct"] > 3.0
    assert study["permutation"]["switched"] < 2.0
    assert study["permutation"]["circuit"] < 1.1
    # Hotspots are port-bound everywhere — no topology saves a bad workload.
    for fabric in ("switched", "circuit"):
        assert study["hotspot"][fabric] < 1.5
