"""Textual experiment reports tying model outputs to the paper's claims.

:func:`experiment_report` runs the full reproduction (Table 1, Figures 1-3,
Section 2-3 claims) and renders one document — handy for EXPERIMENTS.md
regeneration and for eyeballing a full run without pytest.
"""

from __future__ import annotations

from typing import Dict, List

from ..cluster.simulator import SimReport
from ..core.roofline import RooflinePolicy
from ..hardware.evolution import evolution_trends
from ..hardware.yieldmodel import yield_gain
from ..hardware.cost import CostModel
from ..network.switches import circuit_vs_packet_energy_gain
from .figures import fig1_evolution_series, fig2_deployment_comparison, fig3a_prefill_series, fig3b_decode_series
from .tables import format_table, render_fig3_panel, render_table1


def simulation_table(reports: Dict[str, SimReport], title: str = "Serving simulation") -> str:
    """Render one row per named :class:`SimReport` (CLI / example output).

    The shared format for comparing deployments or policy bundles: SLO
    metrics (TTFT, TBT), throughput, the failure-recovery counters, and —
    when any report carries cost accounting — the $/Mtoken unit economics.
    A ``backend`` provenance column appears whenever any row came from a
    non-default backend, so fluid estimates are never mistaken for
    event-engine truth.
    """
    with_cost = any(r.usd_cost > 0 for r in reports.values())
    with_backend = any(r.backend != "event" for r in reports.values())
    rows = []
    for name, report in reports.items():
        row = [
            name,
            report.completed,
            f"{report.ttft_p50 * 1e3:.0f}/{report.ttft_p99 * 1e3:.0f}",
            f"{report.tbt_mean * 1e3:.1f}",
            f"{report.e2e_p50:.2f}",
            f"{report.output_tokens_per_s:.0f}",
            report.requeued_on_failure,
            report.restarted_requests,
        ]
        if with_backend:
            row.append(report.backend)
        if with_cost:
            row.append(f"{report.gpu_seconds:.0f}")
            row.append(f"{report.usd_per_mtoken:.2f}")
        rows.append(row)
    headers = [
        "deployment", "done", "TTFT p50/p99 ms", "TBT ms", "e2e p50 s",
        "out tok/s", "requeued", "restarted",
    ]
    if with_backend:
        headers.append("backend")
    if with_cost:
        headers += ["gpu-s", "$/Mtok"]
    return format_table(headers, rows, title=title)


def experiment_report(policy: RooflinePolicy | None = None) -> str:
    """Run every experiment and return the combined text report."""
    policy = policy or RooflinePolicy()
    sections: List[str] = []

    sections.append(render_table1())

    rows = fig1_evolution_series()
    headers = ["name", "year", "dies", "die_area_mm2", "transistors_b", "tdp_w", "mem_bw_gbs"]
    sections.append(
        format_table(
            headers,
            [[r[h] for h in headers] for r in rows],
            title="Figure 1: evolution of data-center GPUs",
        )
    )
    trends = evolution_trends()
    sections.append(
        "trends: transistors x{transistor_growth:.0f}, per-die area x{per_die_area_growth:.2f}, "
        "TDP x{tdp_growth:.1f} over {years} years".format(**trends)
    )

    fig2 = fig2_deployment_comparison()
    sections.append(
        "Figure 2 (1x H100 -> 4x Lite): yield {parent_yield:.3f} -> {lite_yield:.3f} "
        "(x{yield_gain:.2f}), die cost ${parent_die_cost:.0f} -> ${lite_group_die_cost:.0f} "
        "(-{cost_reduction:.0%}), shoreline x{shoreline_gain:.2f}, "
        "bandwidth-to-compute potential x{bw_to_compute_potential:.2f} "
        "(realized by Lite+MemBW: x{bw_to_compute_realized:.2f})".format(**fig2)
    )

    sections.append(render_fig3_panel(fig3a_prefill_series(policy=policy), "Figure 3a: prefill (normalized tokens/s/SM)"))
    sections.append(render_fig3_panel(fig3b_decode_series(policy=policy), "Figure 3b: decode (normalized tokens/s/SM)"))

    sections.append(
        f"Section 2 claims: yield gain at 1/4 area = {yield_gain(814.0, 4):.2f}x (paper: 1.8x); "
        f"silicon cost reduction = {CostModel().cost_reduction():.0%} (paper: ~50%)"
    )
    sections.append(
        "Section 3 claim: circuit vs packet switching energy saving = "
        f"{circuit_vs_packet_energy_gain():.0%} (paper: >50%)"
    )
    return "\n\n".join(sections)
