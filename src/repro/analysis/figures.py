"""Builders for every figure's data series.

Each function returns plain dict/list structures so benchmarks can print the
exact rows/series the paper plots, and tests can assert the shapes (who wins,
by roughly what factor, where crossovers fall) without any plotting stack.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core.inference import Phase
from ..core.metrics import normalize_to_baseline
from ..core.roofline import RooflinePolicy
from ..core.search import SearchConstraints, search_best_config
from ..errors import SpecError
from ..hardware.evolution import GPU_GENERATIONS
from ..hardware.gpu import (
    GPUSpec,
    H100,
    LITE,
    LITE_MEMBW,
    LITE_MEMBW_NETBW,
    LITE_NETBW,
    LITE_NETBW_FLOPS,
)
from ..hardware.scaling import LiteScaling, group_properties
from ..hardware.wafer import WaferSpec
from ..hardware.yieldmodel import YieldModel
from ..workloads.models import PAPER_MODELS
from ..workloads.transformer import ModelSpec

#: GPU types in each Figure 3 panel, in the paper's legend order.
FIG3A_GPUS = (H100, LITE, LITE_NETBW, LITE_NETBW_FLOPS)
FIG3B_GPUS = (H100, LITE, LITE_MEMBW, LITE_MEMBW_NETBW)


def fig1_evolution_series() -> List[Dict]:
    """Figure 1: the GPU-generation evolution rows."""
    rows = []
    for gen in GPU_GENERATIONS:
        rows.append(
            {
                "name": gen.name,
                "year": gen.year,
                "dies": gen.compute_dies,
                "die_area_mm2": gen.die_area_mm2,
                "total_area_mm2": gen.total_die_area_mm2,
                "transistors_b": gen.transistors_b,
                "tdp_w": gen.tdp_w,
                "hbm_gb": gen.hbm_gb,
                "mem_bw_gbs": gen.mem_bw_gbs,
                "power_density": gen.power_density_w_mm2,
                "bw_per_area": gen.bw_per_area,
                "packaging": gen.packaging,
            }
        )
    return rows


def fig2_deployment_comparison(
    split: int = 4,
    defect_density: float = 0.10,
) -> Dict:
    """Figure 2: one H100 vs. its Lite-group — yield, cost, shoreline,
    bandwidth-to-compute, power density."""
    if split <= 0:
        raise SpecError("split must be positive")
    scaling = LiteScaling(split=split, mem_bw_boost=1.0, net_bw_boost=1.0)
    group = group_properties(H100, scaling)
    ym = YieldModel.murphy(defect_density)
    wafer = WaferSpec()
    area = H100.die.area_mm2
    lite_area = area / split
    parent_yield = ym(area)
    lite_yield = ym(lite_area)
    parent_cost = wafer.cost_per_good_die(area, ym)
    lite_cost = wafer.cost_per_good_die(lite_area, ym) * split
    return {
        "split": split,
        "parent": H100.name,
        "parent_yield": parent_yield,
        "lite_yield": lite_yield,
        "yield_gain": lite_yield / parent_yield,
        "parent_die_cost": parent_cost,
        "lite_group_die_cost": lite_cost,
        "cost_reduction": 1.0 - lite_cost / parent_cost,
        "shoreline_gain": group["shoreline_gain"],
        # Shoreline scales with sqrt(split); bandwidth-to-compute can rise by
        # the same factor when the surplus is spent on HBM (the paper's "2x"
        # at split=4) — realized by the Lite+MemBW variant.
        "bw_to_compute_potential": group["shoreline_gain"],
        "bw_to_compute_realized": (
            LITE_MEMBW.mem_bytes_per_flop / H100.mem_bytes_per_flop if split == 4 else None
        ),
        "power_density_ratio": group["power_density_ratio"],
        "lite": group["lite"],
    }


def fig3_series(
    phase: Phase | str,
    gpus: Sequence[GPUSpec],
    models: Sequence[ModelSpec] = PAPER_MODELS,
    constraints: SearchConstraints | None = None,
    policy: RooflinePolicy | None = None,
    baseline: str = "H100",
) -> Dict[str, Dict[str, float]]:
    """Generic Figure 3 panel: {model: {gpu: normalized tokens/s/SM}}.

    Values are normalized per model so the baseline GPU reads 1.0, exactly
    as the paper plots.  Raw values are included under the key
    ``"__raw__"`` -> {model: {gpu: tokens/s/SM}}.
    """
    raw: Dict[str, Dict[str, float]] = {}
    for model in models:
        series = {}
        for gpu in gpus:
            result = search_best_config(model, gpu, phase, constraints, policy)
            series[gpu.name] = result.best_tokens_per_s_per_sm
        raw[model.name] = series
    normalized: Dict[str, Dict[str, float]] = {}
    for model_name, series in raw.items():
        normalized[model_name] = normalize_to_baseline(series, baseline)
    normalized["__raw__"] = raw
    return normalized


def fig3a_prefill_series(
    constraints: SearchConstraints | None = None,
    policy: RooflinePolicy | None = None,
) -> Dict[str, Dict[str, float]]:
    """Figure 3a: prompt prefill, normalized tokens/s/SM.

    Legend order: H100, Lite, Lite+NetBW, Lite+NetBW+FLOPS.
    """
    return fig3_series(Phase.PREFILL, FIG3A_GPUS, constraints=constraints, policy=policy)


def fig3b_decode_series(
    constraints: SearchConstraints | None = None,
    policy: RooflinePolicy | None = None,
) -> Dict[str, Dict[str, float]]:
    """Figure 3b: decode, normalized tokens/s/SM.

    Legend order: H100, Lite, Lite+MemBW, Lite+MemBW+NetBW.
    """
    return fig3_series(Phase.DECODE, FIG3B_GPUS, constraints=constraints, policy=policy)
