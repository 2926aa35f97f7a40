"""Regenerate ``reference.json``: the pinned outputs of the reference seeds.

Run from the repository root after a change that is *meant* to move
simulated results (never to make a failing benchmark pass)::

    python3 perfbench/pin.py

Pins, per workload, at its reference seed:

- ``hotpath_h100`` and ``chaos_lite_elastic``: every ``SimReport`` field
  and their digest;
- ``stream_sharded_colocated``: the merged sharded report (fields and
  digest) plus the unsharded exact-metrics path's counters and TTFT
  p50/p99, the reference ``sketch_ttft_p99_err`` is measured against;
- ``screen_lite_grid``: the argbest of simulating all 64 grid points on the
  event engine, which the two-tier screen's verdict must match.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads as w  # noqa: E402


def _pin(report) -> dict:
    return {"digest": w.report_digest(report), "fields": w.report_fields(report)}


def build() -> dict:
    ref = {}
    for name in ("hotpath_h100", "chaos_lite_elastic"):
        seed = w.WORKLOADS[name].default_seed
        prepared = w.WORKLOADS[name].prepare(seed)
        ref[name] = _pin(prepared.simulator.run(prepared.trace))

    seed = w.WORKLOADS["stream_sharded_colocated"].default_seed
    stream = w.prepare_stream(seed)
    stream.op()
    exact, arrivals = w.stream_exact_report(seed)
    ref["stream_sharded_colocated"] = {
        "sharded": _pin(stream.last_report),
        "exact": {
            "arrivals": arrivals,
            "completed": exact.completed,
            "dropped": exact.dropped,
            "output_tokens_per_s": exact.output_tokens_per_s,
            "ttft_p50": exact.ttft_p50,
            "ttft_p99": exact.ttft_p99,
        },
    }

    seed = w.WORKLOADS["screen_lite_grid"].default_seed
    ref["screen_lite_grid"] = {"event_argbest": list(w.full_event_argbest(seed))}
    return ref


def main() -> int:
    ref = build()
    w.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {w.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
