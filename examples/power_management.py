#!/usr/bin/env python3
"""Power management at Lite granularity: the Section 3 energy study.

Walks the paper's two power arguments over a synthetic diurnal day:

1. serving the troughs — compare clocking policies (uniform DVFS, per-device
   power gating, joint gate+DVFS) for an H100 fleet and an equal-silicon
   Lite fleet;
2. serving the peaks — overclock the small, cool Lite dies in place, or
   wake more devices and pay the network power?

Run:  python examples/power_management.py
"""

from __future__ import annotations

from repro.analysis.tables import format_table
import os

from repro.cluster.power_manager import ClusterPowerManager
from repro.hardware.cooling import CoolingKind, CoolingModel
from repro.hardware.gpu import H100, LITE
from repro.hardware.power import ClockPolicy, PowerModel, diurnal_load_profile
from repro.units import KILOWATT


def main() -> None:
    tiny = os.environ.get("REPRO_EXAMPLE_TINY") == "1"  # CI smoke mode
    loads = diurnal_load_profile(samples=24 if tiny else 96, low=0.2, high=0.9, seed=1, noise=0.02)
    interval = 900.0  # 15-minute samples
    print(
        f"diurnal profile: min {loads.min():.2f}, mean {loads.mean():.2f}, "
        f"max {loads.max():.2f} of peak\n"
    )

    rows = []
    for name, gpu, count in (("8x H100", H100, 8), ("32x Lite", LITE, 32)):
        model = PowerModel(gpu, count)
        base = model.energy_over_profile(loads, interval, ClockPolicy.ALWAYS_BASE)
        for policy in (ClockPolicy.UNIFORM_DVFS, ClockPolicy.POWER_GATE, ClockPolicy.GATE_PLUS_DVFS):
            energy = model.energy_over_profile(loads, interval, policy)
            rows.append(
                [
                    name,
                    policy.value,
                    f"{energy / 3.6e6:.1f} kWh",
                    f"{1 - energy / base:.1%}",
                ]
            )
    print(
        format_table(
            ["fleet", "policy", "energy/day", "saving vs always-base"],
            rows,
            title="Serving the troughs (equal total silicon)",
        )
    )

    print("\nServing the peaks (one Lite group = 4 devices):")
    mgr = ClusterPowerManager(LITE, 4)
    air = CoolingModel(CoolingKind.AIR)
    headroom = air.overclock_headroom(LITE)
    print(f"  air-cooling overclock headroom of a Lite die: x{headroom:.2f}")
    rows = []
    for peak in (1.05, 1.10, 1.20, 1.40):
        strategy, power = mgr.best_peak_strategy(peak, air)
        rows.append([f"{peak:.2f}", strategy.value, f"{power / KILOWATT:.2f} kW"])
    print(format_table(["peak load", "cheapest strategy", "power"], rows))

    print(
        "\nReading: small peaks are absorbed by over-clocking the small,\n"
        "easily-cooled dies in place; past the DVFS knee (~1.1-1.2x) waking\n"
        "extra Lite-GPUs — paying their network ports — becomes cheaper.\n"
        "H100-class dies have no air-cooled overclock headroom at all."
    )


if __name__ == "__main__":
    main()
