"""litegpu — a reproduction of "Good things come in small packages: Should we
build AI clusters with Lite-GPUs?" (HotOS '25).

The library models AI clusters built from *Lite-GPUs* — GPUs with a single
small compute die and a fraction of a flagship GPU's capability, joined by
co-packaged-optics networking — and reproduces every quantitative result of
the paper: the Table 1 GPU catalogue, the Figure 3 roofline study of LLM
inference (prefill and decode), and the Section 2-3 hardware-economics and
systems claims (yield, cost, shoreline, cooling, power management, blast
radius, circuit-switched fabrics).

Quick start::

    from repro import search_best_config, LLAMA3_70B, H100, LITE

    best = search_best_config(LLAMA3_70B, LITE, "decode")
    print(best.describe())

Packages:

- :mod:`repro.core` — the roofline performance model and configuration search.
- :mod:`repro.workloads` — transformer geometry, model catalogue, traces.
- :mod:`repro.hardware` — dies, yield, wafers, cost, GPUs, power, cooling.
- :mod:`repro.network` — links, switches, collectives, topologies, fabrics.
- :mod:`repro.cluster` — allocation, scheduling, failures, the serving simulator.
- :mod:`repro.analysis` — figure/table builders used by the benchmarks.
"""

from .core import (
    CommModel,
    DecodeWorkload,
    KVPlacement,
    PrefillWorkload,
    RooflinePolicy,
    SearchConstraints,
    SearchResult,
    decode_iteration,
    normalize_to_baseline,
    prefill_pass,
    search_best_config,
)
from .core.inference import Phase
from .hardware import (
    GPU_TYPES,
    GPUSpec,
    H100,
    LITE,
    LITE_MEMBW,
    LITE_MEMBW_NETBW,
    LITE_NETBW,
    LITE_NETBW_FLOPS,
    TABLE1_ORDER,
    get_gpu,
)
from .workloads import (
    GPT3_175B,
    LLAMA3_8B,
    LLAMA3_70B,
    LLAMA3_405B,
    MODELS,
    PAPER_MODELS,
    ModelSpec,
    get_model,
)

__version__ = "1.3.0"

__all__ = [
    "CommModel",
    "DecodeWorkload",
    "KVPlacement",
    "Phase",
    "PrefillWorkload",
    "RooflinePolicy",
    "SearchConstraints",
    "SearchResult",
    "decode_iteration",
    "normalize_to_baseline",
    "prefill_pass",
    "search_best_config",
    "GPU_TYPES",
    "GPUSpec",
    "H100",
    "LITE",
    "LITE_MEMBW",
    "LITE_MEMBW_NETBW",
    "LITE_NETBW",
    "LITE_NETBW_FLOPS",
    "TABLE1_ORDER",
    "get_gpu",
    "GPT3_175B",
    "LLAMA3_8B",
    "LLAMA3_70B",
    "LLAMA3_405B",
    "MODELS",
    "PAPER_MODELS",
    "ModelSpec",
    "get_model",
    "__version__",
]
