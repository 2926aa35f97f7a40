"""Section 3 network claims: circuit switching and fabric comparisons."""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.network.fabric import compare_fabrics
from repro.network.switches import (
    CIRCUIT_SWITCH_OCS,
    PACKET_SWITCH_TOR,
    circuit_vs_packet_energy_gain,
    path_energy_comparison,
)

from conftest import emit


def test_sec3_circuit_vs_packet(benchmark):
    comparison = benchmark(path_energy_comparison)
    emit(
        "Section 3: circuit vs packet switching",
        "\n".join(
            [
                f"switch-only energy saving: {circuit_vs_packet_energy_gain():.0%} "
                "(paper: >50%)",
                f"path energy: packet {comparison['packet_pj_per_bit']:.1f} pJ/bit vs "
                f"circuit {comparison['circuit_pj_per_bit']:.1f} pJ/bit "
                f"(saving {comparison['saving']:.0%})",
                f"latency: packet {PACKET_SWITCH_TOR.latency * 1e9:.0f} ns vs "
                f"circuit {CIRCUIT_SWITCH_OCS.latency * 1e9:.0f} ns",
                f"ports at high bandwidth: packet {PACKET_SWITCH_TOR.ports} x "
                f"{PACKET_SWITCH_TOR.port_bandwidth / 1e9:.0f} GB/s vs circuit "
                f"{CIRCUIT_SWITCH_OCS.ports} x {CIRCUIT_SWITCH_OCS.port_bandwidth / 1e9:.0f} GB/s",
            ]
        ),
    )
    # The paper's three numbered benefits.
    assert circuit_vs_packet_energy_gain() > 0.5
    assert CIRCUIT_SWITCH_OCS.latency < PACKET_SWITCH_TOR.latency
    assert CIRCUIT_SWITCH_OCS.ports > PACKET_SWITCH_TOR.ports


def test_sec3_fabric_options(benchmark):
    """The three network options Section 3 sketches, at 128 Lite-GPUs."""
    reports = benchmark(compare_fabrics, n_gpus=128, group=4)
    rows = [
        [
            r.name,
            r.n_switches,
            r.n_links,
            f"${r.capex_per_gpu:,.0f}",
            f"{r.power_per_gpu:.0f} W",
            f"{r.bisection_bandwidth / 1e12:.1f} TB/s",
            f"{r.avg_hops:.2f}",
        ]
        for r in reports
    ]
    emit(
        "Section 3: Lite-GPU network options (128 GPUs)",
        format_table(
            ["fabric", "switches", "links", "capex/GPU", "power/GPU", "bisection", "avg hops"],
            rows,
        ),
    )
    direct, packet, circuit = reports
    # Direct-connect: cheapest, weakest bisection (shared-fate groups).
    assert direct.capex_per_gpu < circuit.capex_per_gpu
    assert direct.bisection_bandwidth < circuit.bisection_bandwidth
    # Flat circuit: full bisection at lower power than packet switching.
    assert circuit.power_per_gpu < packet.power_per_gpu
    assert circuit.bisection_bandwidth >= packet.bisection_bandwidth
