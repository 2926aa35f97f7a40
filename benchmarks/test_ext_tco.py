"""Extension: total cost of operation — the paper's deferred analysis.

"In terms of performance per $-cost, which is the primary metric for cloud
operators, we expect the cost per comparable deployments to decrease with
Lite-GPU" — this bench computes it: $/Mtoken for decode across GPU types,
amortized capex + power at PUE, using each type's best Figure-3b config.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.cluster.spec import ClusterSpec
from repro.core.search import search_best_config
from repro.hardware.gpu import H100, LITE, LITE_MEMBW, LITE_MEMBW_NETBW
from repro.hardware.tco import TCOAssumptions, cluster_tco
from repro.workloads.models import PAPER_MODELS

from conftest import emit

GPUS = (H100, LITE, LITE_MEMBW, LITE_MEMBW_NETBW)


def _unit_economics():
    assumptions = TCOAssumptions()
    records = []
    for model in PAPER_MODELS:
        for gpu in GPUS:
            best = search_best_config(model, gpu, "decode").best
            if best is None:
                continue
            topology = "switched" if gpu.name == "H100" else "circuit"
            breakdown = cluster_tco(ClusterSpec(gpu, best.n_gpus, topology), assumptions)
            records.append(
                (
                    model.name,
                    gpu.name,
                    best.n_gpus,
                    breakdown.total_per_hour,
                    breakdown.usd_per_mtoken(best.result.tokens_per_s),
                )
            )
    return records


def test_ext_tco(benchmark):
    records = benchmark.pedantic(_unit_economics, rounds=1, iterations=1)
    rows = [
        [model, gpu, n, f"${per_hour:.2f}", f"${per_mtok:.4f}"]
        for model, gpu, n, per_hour, per_mtok in records
    ]
    emit(
        "Extension: decode unit economics (amortized capex + power, PUE 1.25)",
        format_table(["model", "gpu", "#GPUs", "$/hour", "$/Mtoken"], rows),
    )
    unit = {(m, g): c for m, g, _, _, c in records}
    # The paper's bottom line holds for 70B and GPT-3: a Lite variant beats
    # H100 on $/Mtoken by a clear margin.
    for model in ("Llama3-70B", "GPT3-175B"):
        h100 = unit[(model, "H100")]
        best_lite = min(
            unit[(model, g.name)] for g in GPUS[1:] if (model, g.name) in unit
        )
        assert best_lite < 0.9 * h100
    # Nuance worth recording: at pod scale (32 GPUs) the 405B Lite cluster's
    # network capex keeps its best variant within ~10% of H100 rather than
    # below it — the paper's own caveat that network cost "can turn into a
    # bottleneck with increased scale", visible already at high TP degrees.
    h100_405 = unit[("Llama3-405B", "H100")]
    best_lite_405 = min(
        unit[("Llama3-405B", g.name)] for g in GPUS[1:]
        if ("Llama3-405B", g.name) in unit
    )
    assert best_lite_405 < 1.10 * h100_405
