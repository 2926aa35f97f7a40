"""Command-line interface: regenerate the paper's artifacts from a shell.

Usage::

    python -m repro table1
    python -m repro fig1 | fig2 | fig3a | fig3b
    python -m repro report                       # everything
    python -m repro search --model Llama3-70B --gpu Lite+MemBW --phase decode
    python -m repro tco --model Llama3-70B
    python -m repro simulate --shape phase-split --policy fcfs
    python -m repro simulate --shape colocated --mtbf-hours 0.5
    python -m repro simulate --topology direct --group 8 --network-model fabric \
        --placer scattered                       # topology-aware serving
    python -m repro sweep --rates 2,4,6 --sizes 1,2 --workers 4
    python -m repro simulate --backend fluid     # millisecond analytic estimate
    python -m repro screen --rates 2,4,6,8 --sizes 1,2,4  # two-tier sweep
    python -m repro topology --gpus 128 --group 4  # fabric comparison table
    python -m repro autoscale --controllers static,reactive,slo \
        --rates 1,8,1 --segment 60               # static-vs-elastic economics
    python -m repro chaos --scenario blast       # rack-failure blast radius
    python -m repro cache stats | clear          # on-disk result cache

All subcommands print plain text and touch neither the network nor disk —
except ``sweep`` and ``screen``, which (unless ``--no-cache``) persist
finished points under ``--cache-dir`` (default ``.repro_cache/``) so repeat
invocations skip completed work, and ``cache``, which inspects/clears that
directory.

``simulate``, ``sweep``, ``screen`` and ``autoscale`` share one flag table
(:data:`_FLAGS`) and describe each run as one
:class:`~repro.exec.runspec.RunSpec`, whose construction rejects inputs
that do not compose.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from typing import Any, Dict, List, Optional

from .analysis.figures import (
    fig1_evolution_series,
    fig2_deployment_comparison,
    fig3a_prefill_series,
    fig3b_decode_series,
)
from .analysis.report import experiment_report, simulation_table
from .analysis.tables import format_table, render_fig3_panel, render_table1
from .cluster.chaos import (
    blast_radius_scenario,
    checkpoint_scenario,
    retry_storm_scenario,
)
from .cluster.control import (
    CONTROLLERS,
    ForecastController,
    PowerCapController,
    ReactiveController,
    SLOController,
)
from .cluster.failures import FailureModel
from .cluster.placement import PLACERS, placement_hop_stats
from .cluster.policies import POLICY_BUNDLES, ROUTING_POLICIES
from .cluster.resilience import goodput_dip
from .cluster.power_manager import ClusterPowerManager
from .cluster.scheduler import ColocatedPool, InstanceSpec, PhasePools
from .cluster.simulator import NETWORK_MODELS, SimConfig
from .cluster.spec import ClusterSpec
from .analysis.screening import screen_then_simulate
from .analysis.sweeps import argbest
from .core.search import search_best_config
from .errors import LiteGPUError, SimulationError
from .exec.cache import ResultCache
from .exec.runner import Job, run_many
from .exec.runspec import TOPOLOGIES, RunSpec
from .hardware.gpu import H100, get_gpu
from .hardware.tco import tokens_per_dollar_comparison
from .network.fabric import compare_fabrics
from .units import GB_PER_S, HOUR, KILOWATT
from .workloads.models import get_model
from .workloads.traces import TraceConfig, generate_trace, trace_fingerprint


def _csv_floats(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _csv_ints(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _cmd_table1(_: argparse.Namespace) -> None:
    print(render_table1())


def _cmd_fig1(_: argparse.Namespace) -> None:
    rows = fig1_evolution_series()
    headers = ["name", "year", "dies", "die_area_mm2", "transistors_b", "tdp_w", "mem_bw_gbs", "packaging"]
    print(format_table(headers, [[r[h] for h in headers] for r in rows],
                       title="Figure 1: evolution of data-center GPUs"))


def _cmd_fig2(_: argparse.Namespace) -> None:
    fig2 = fig2_deployment_comparison()
    print(
        "Figure 2 (1x H100 -> 4x Lite): "
        f"yield x{fig2['yield_gain']:.2f}, cost -{fig2['cost_reduction']:.0%}, "
        f"shoreline x{fig2['shoreline_gain']:.2f}, "
        f"bandwidth-to-compute potential x{fig2['bw_to_compute_potential']:.2f}"
    )


def _cmd_fig3a(_: argparse.Namespace) -> None:
    print(render_fig3_panel(fig3a_prefill_series(), "Figure 3a: prefill (normalized tokens/s/SM)"))


def _cmd_fig3b(_: argparse.Namespace) -> None:
    print(render_fig3_panel(fig3b_decode_series(), "Figure 3b: decode (normalized tokens/s/SM)"))


def _cmd_report(_: argparse.Namespace) -> None:
    print(experiment_report())


def _cmd_search(args: argparse.Namespace) -> None:
    model = get_model(args.model)
    gpu = get_gpu(args.gpu)
    result = search_best_config(model, gpu, args.phase)
    print(result.describe())
    if result.best and args.verbose:
        breakdown = result.best.result.breakdown()
        for stage, share in breakdown.items():
            print(f"  {stage:12s} {share:6.1%}")
        print(f"  bound by: {result.best.result.bound_by()}")


def _cmd_tco(args: argparse.Namespace) -> None:
    model = get_model(args.model)
    h100_best = search_best_config(model, H100, "decode").best
    lite = get_gpu(args.gpu)
    lite_best = search_best_config(model, lite, "decode").best
    if h100_best is None or lite_best is None:
        print("no feasible configuration", file=sys.stderr)
        raise SystemExit(1)
    comparison = tokens_per_dollar_comparison(
        ClusterSpec(H100, h100_best.n_gpus, "switched"),
        ClusterSpec(lite, lite_best.n_gpus, "circuit"),
        h100_best.result.tokens_per_s,
        lite_best.result.tokens_per_s,
    )
    print(
        f"{model.name} decode unit economics:\n"
        f"  H100 ({h100_best.n_gpus} GPUs): ${comparison['h100_usd_per_mtoken']:.3f}/Mtok "
        f"(${comparison['h100_per_hour']:.2f}/h)\n"
        f"  {lite.name} ({lite_best.n_gpus} GPUs): ${comparison['lite_usd_per_mtoken']:.3f}/Mtok "
        f"(${comparison['lite_per_hour']:.2f}/h)\n"
        f"  Lite saving: {comparison['lite_saving']:.1%}"
    )


def _cmd_topology(args: argparse.Namespace) -> None:
    reports = compare_fabrics(args.gpus, group=args.group, utilization=args.utilization)
    rows = [
        [
            r.name,
            r.n_switches,
            r.n_links,
            r.n_ports,
            f"{r.capex_usd:,.0f}",
            f"{r.capex_per_gpu:,.0f}",
            f"{r.power_w / KILOWATT:.1f}",
            f"{r.per_gpu_bandwidth / GB_PER_S:.0f}",
            f"{r.bisection_bandwidth / GB_PER_S:,.0f}",
            f"{r.avg_hops:.2f}",
        ]
        for r in reports
    ]
    print(
        format_table(
            ["fabric", "switches", "links", "ports", "capex $", "$/GPU",
             "power kW", "GB/s/GPU", "bisection GB/s", "avg hops"],
            rows,
            title=f"Fabric comparison: {args.gpus} GPUs, group {args.group}",
        )
    )


def _pick(flags: Dict[str, Any], *names: str) -> Dict[str, Any]:
    """The named flags a subcommand has (the rest keep library defaults)."""
    return {name: flags[name] for name in names if name in flags}


def _run_spec(flags: Dict[str, Any]) -> RunSpec:
    """The :class:`RunSpec` of a run subcommand's flags (``vars(args)``).

    Flags the subcommand does not define keep the defaults of ``RunSpec``,
    ``SimConfig`` and ``TraceConfig``.  A sweep or screen point arrives
    with its ``rate`` and pool size already folded in.
    """
    model = get_model(flags["model"])
    per_instance = flags["gpus_per_instance"]
    if flags.get("shape", "phase-split") == "phase-split":
        deployment = PhasePools(
            prefill=InstanceSpec(model, get_gpu(flags["prefill_gpu"]), per_instance),
            n_prefill=flags["n_prefill"],
            decode=InstanceSpec(model, get_gpu(flags["decode_gpu"]), per_instance),
            n_decode=flags["n_decode"],
            max_prefill_batch=flags["max_prefill_batch"],
            max_decode_batch=flags["max_decode_batch"],
        )
    else:
        deployment = ColocatedPool(
            instance=InstanceSpec(model, get_gpu(flags["gpu"]), per_instance),
            n_instances=flags["n_instances"],
            max_decode_batch=flags["max_decode_batch"],
            chunk_tokens=flags["chunk_tokens"],
        )
    failure_model = None
    if flags.get("mtbf_hours", 0.0) > 0:
        mtbf, mttr = flags["mtbf_hours"] * HOUR, flags["mttr_hours"] * HOUR
        failure_model = FailureModel(mtbf=mtbf, mttr=mttr)
    segments = ()
    if "segment" in flags:
        segments = tuple((rate, flags["segment"]) for rate in flags["rates"])
    return RunSpec(
        deployment,
        SimConfig(**_pick(flags, "max_sim_time", "context_bucket", "metrics", "backend")),
        trace=TraceConfig(**_pick(flags, "rate", "duration", "output_tokens", "output_spread")),
        segments=segments,
        failure_model=failure_model,
        **_pick(
            flags, "seed", "policy", "failure_seed", "topology", "cluster_gpus", "group",
            "placer", "network_model", "shards", "shard_policy",
        ),
    )


def _cmd_simulate(args: argparse.Namespace) -> None:
    spec = _run_spec(vars(args))
    trace = spec.requests()
    report = spec.run(trace, workers=args.workers)
    failure_note = (
        f"stochastic failures MTBF {args.mtbf_hours:g}h / MTTR {args.mttr_hours:g}h "
        f"(seed {args.failure_seed})" if spec.failure_model else "no failures"
    )
    print(spec.deployment.describe())
    print(f"policy '{args.policy}', trace {len(trace)} requests @ {args.rate:g}/s, {failure_note}")
    if spec.shards > 1:
        print(
            f"sharded x{args.shards} ('{args.shard_policy}' shard routing, "
            f"{args.workers} worker(s), streaming metrics)"
        )
    if spec.topology != "none":
        simulator = spec.simulator()  # a fresh one: the run's own is not kept
        stats = placement_hop_stats(simulator.topology, simulator.placement)
        print(
            f"topology {args.topology} x{simulator.topology.n_gpus}, placer '{args.placer}', "
            f"network model '{args.network_model}' "
            f"(intra-instance hops mean {stats['mean_hops']:.2f} max {stats['max_hops']:.0f})"
        )
    print(simulation_table({args.shape: report}))
    print(report.describe())


def _point_flags(args: argparse.Namespace) -> Dict[str, Any]:
    """The flags of a sweep or screen point's run: not the grid, not its execution."""
    grid = _GRID_FLAGS + ("margin", "fn", "command")
    return {name: value for name, value in vars(args).items() if name not in grid}


def _grid_point(flags: Dict[str, Any], backend: str, rate: float, size: int):
    """Run one sweep or screen point (module-level so workers can pickle it).

    The point's :class:`RunSpec` is built inside the job: a point that does
    not fit fails alone, an unset ``--cluster-gpus`` sizes the fabric from
    this point's pools, and the trace regenerates from its recipe.
    """
    point = {**flags, "backend": backend, "rate": rate, "n_decode": size, "n_instances": size}
    return _run_spec(point).run()


def _cmd_sweep(args: argparse.Namespace) -> None:
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    flags = _point_flags(args)
    jobs = []
    for rate in args.rates:
        fingerprint = None
        if cache is not None:
            # Fingerprint the actual requests (not just the config) so a change
            # to trace *generation* invalidates cached points within one version.
            config = TraceConfig(
                rate=rate, **_pick(flags, "duration", "output_tokens", "output_spread")
            )
            fingerprint = trace_fingerprint(generate_trace(config, seed=args.seed))
        for size in args.sizes:
            key = None if cache is None else cache.key("cli-sweep", flags, rate, size, fingerprint)
            jobs.append(
                Job(
                    fn=_grid_point,
                    args=(flags, args.backend, rate, size),
                    key=key,
                    label=f"rate={rate:g} size={size}",
                )
            )
    outcomes = run_many(jobs, workers=args.workers, cache=cache)
    print(
        f"sweep: {args.shape} {args.model}, {len(jobs)} points "
        f"({len(args.rates)} rates x {len(args.sizes)} sizes), "
        f"{args.workers} worker(s), policy '{args.policy}'"
    )
    records = []
    reports = {}
    for outcome in outcomes:
        if outcome.ok:
            reports[outcome.label + (" [cached]" if outcome.cached else "")] = outcome.value
            records.append({"point": outcome.label, "result": outcome.value})
        else:
            records.append({"point": outcome.label, "error": outcome.error})
    if reports:
        print(simulation_table(reports, title="Sweep grid"))
    for record in records:
        if "error" in record:
            print(f"  {record['point']}: ERROR {record['error']}")
    if not reports:
        raise SimulationError("no sweep point completed successfully")
    best = argbest(records, key=lambda r: r["result"].output_tokens_per_s)
    print(
        f"best throughput: {best['point']} "
        f"({best['result'].output_tokens_per_s:.0f} out tok/s)"
    )
    if cache is not None:
        info = cache.cache_info()
        print(
            f"cache: {info['hits']} hits, {info['misses']} misses, "
            f"{info['stores']} stored, {info['entries']} on disk ({cache.root})"
        )
    else:
        print("cache: disabled")


def _cmd_screen(args: argparse.Namespace) -> None:
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    fn = functools.partial(_grid_point, _point_flags(args))
    points = [{"rate": rate, "size": size} for rate in args.rates for size in args.sizes]

    def cost(record):
        return float(record["size"])

    def quality(record):
        return record["result"].output_tokens_per_s

    result = screen_then_simulate(
        fn, points,
        cost=cost, quality=quality,
        margin=args.margin, workers=args.workers, cache=cache,
    )
    print(
        f"screen: {args.shape} {args.model}, {result.n_points} points "
        f"({len(args.rates)} rates x {len(args.sizes)} sizes), "
        f"margin {args.margin:.0%}, policy '{args.policy}'"
    )
    print(result.table(cost, quality))
    best = result.best
    print(
        f"best (event-verified): rate={best['rate']:g} size={best['size']} "
        f"({best['result'].output_tokens_per_s:.0f} out tok/s); "
        f"event simulated {len(result.promoted)}/{result.n_points} points "
        f"({result.promotion_fraction:.0%})"
    )


def _build_controller(name: str, args: argparse.Namespace, deployment):
    """Materialize a named controller from the autoscale CLI knobs; ``static`` is ``None``."""
    key = name.strip().lower().replace("-", "_")
    if key == "static":
        return None
    bounds = dict(
        epoch=args.epoch,
        warmup_s=args.warmup,
        min_instances=args.min_instances,
        max_instances=args.max_instances,
    )
    if key == "reactive":
        return ReactiveController(queue_high=args.queue_high, **bounds)
    if key == "slo":
        return SLOController(ttft_target=args.slo_ttft, tbt_target=args.slo_tbt, **bounds)
    if key == "forecast":
        profile = [
            (i * args.segment, rate / args.rates[0]) for i, rate in enumerate(args.rates)
        ]
        return ForecastController(profile=profile, **bounds)
    if key == "power_cap":
        if args.cap is None:
            raise SimulationError("power_cap needs --cap start:end:watts")
        try:
            start, end, watts = (float(p) for p in args.cap.split(":"))
        except ValueError as exc:
            raise SimulationError(
                f"--cap must be start:end:watts (three numbers), got {args.cap!r}"
            ) from exc
        manager = ClusterPowerManager(
            deployment.decode.gpu, deployment.total_gpus
        )
        return PowerCapController(manager=manager, caps=[(start, end, watts)], **bounds)
    raise SimulationError(
        f"unknown controller '{name}' (have {', '.join(CONTROLLERS.names())})"
    )


def _cmd_autoscale(args: argparse.Namespace) -> None:
    if len(args.rates) < 2:
        raise SimulationError("--rates needs at least two segments to be bursty")
    spec = _run_spec(vars(args))
    # Build every controller before the first run, so a bad bound fails
    # before any output.
    controllers = [(name, _build_controller(name, args, spec.deployment))
                   for name in args.controllers]
    trace = spec.requests()
    print(
        f"{spec.deployment.describe()}\n"
        f"bursty trace: {len(trace)} requests, rates "
        f"{'/'.join(f'{r:g}' for r in args.rates)} req/s x {args.segment:g}s segments"
    )
    reports = {}
    records = []
    for name, controller in controllers:
        report = replace(spec, controller=controller).run(trace)
        label = name
        if report.spawned_instances or report.retired_instances:
            label += f" (+{report.spawned_instances}/-{report.retired_instances})"
        reports[label] = report
        records.append({"controller": name, "result": report})
    print(simulation_table(reports, title="Static vs elastic provisioning"))
    meeting_slo = [
        r for r in records
        if r["result"].completed > 0 and r["result"].ttft_p99 <= args.slo_ttft
    ]
    if meeting_slo:
        best = argbest(
            meeting_slo, key=lambda r: r["result"].usd_per_mtoken, maximize=False
        )
        print(
            f"cheapest at P99-TTFT <= {args.slo_ttft:g}s: '{best['controller']}' "
            f"(${best['result'].usd_per_mtoken:.2f}/Mtok, "
            f"{best['result'].gpu_seconds:.0f} gpu-s)"
        )
    else:
        print(f"no controller met the P99-TTFT <= {args.slo_ttft:g}s SLO")


def _resilience_table(reports, title: str) -> str:
    """One row per report, resilience counters only (chaos verdicts)."""
    rows = [
        [
            name,
            r.completed,
            f"{r.goodput_tokens_per_s:.0f}",
            f"{r.slo_violation_rate:.3f}",
            f"{r.deadline_miss_rate:.3f}",
            r.timed_out,
            r.load_shed,
            r.retries,
            r.abandoned,
            f"{r.e2e_p99:.1f}",
            f"{r.mttr_s:.2f}",
            f"{r.availability:.4f}",
        ]
        for name, r in reports.items()
    ]
    headers = [
        "scenario", "done", "goodput tok/s", "SVR", "miss", "timeout",
        "shed", "retries", "abandoned", "e2e p99 s", "MTTR s", "avail",
    ]
    return format_table(headers, rows, title=title)


def _cmd_chaos(args: argparse.Namespace) -> None:
    scenarios = (
        ("blast", "checkpoint", "storm") if args.scenario == "all"
        else (args.scenario,)
    )
    for key in scenarios:
        if key == "blast":
            reports = blast_radius_scenario(metrics=args.metrics)
            print(_resilience_table(
                reports, title="Blast radius: one rack dies for 45s"
            ))
            big = goodput_dip(reports["big/base"], reports["big/rack"])
            lite = goodput_dip(reports["lite/base"], reports["lite/rack"])
            print(
                f"goodput dip from one rack failure: big {big:.1%}, "
                f"lite {lite:.1%} "
                f"({'smaller Lite blast radius' if lite < big else 'no separation'})"
            )
        elif key == "checkpoint":
            reports = checkpoint_scenario(metrics=args.metrics)
            print(_resilience_table(
                reports, title="Checkpointed restarts vs restart-from-prefill"
            ))
            plain, ckpt = reports["plain"], reports["ckpt"]
            print(
                f"checkpointing: goodput {plain.goodput_tokens:,} -> "
                f"{ckpt.goodput_tokens:,} tokens, "
                f"MTTR {plain.mttr_s:.2f}s -> {ckpt.mttr_s:.2f}s"
            )
        else:
            reports = retry_storm_scenario(metrics=args.metrics)
            print(_resilience_table(
                reports, title="Retry storm: 400 req/s burst, three client policies"
            ))
            fixed, expj = reports["fixed"], reports["exp_jitter"]
            recovered = (
                expj.slo_violation_rate < fixed.slo_violation_rate
                and expj.e2e_p99 < fixed.e2e_p99
            )
            print(
                f"storm recovery: fixed backoff SVR {fixed.slo_violation_rate:.3f} "
                f"(e2e p99 {fixed.e2e_p99:.0f}s) vs exp_jitter "
                f"{expj.slo_violation_rate:.3f} ({expj.e2e_p99:.0f}s) — "
                f"{'jittered backoff recovers' if recovered else 'no separation'}"
            )


def _cmd_cache(args: argparse.Namespace) -> None:
    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} record(s) from {cache.root}")
        return
    entries = cache.entries()
    size = cache.size_bytes()
    if size >= 1 << 20:
        human = f"{size / (1 << 20):.1f} MiB"
    elif size >= 1 << 10:
        human = f"{size / (1 << 10):.1f} KiB"
    else:
        human = f"{size} B"
    print(
        f"cache {cache.root}: {entries} record(s), {human} on disk "
        f"(salt '{cache.salt}')"
    )


#: Every flag of the run subcommands, defined once: ``--name-with-dashes``
#: maps to these ``add_argument`` options.  A subcommand picks its flags
#: with :func:`_add_flags` and re-defaults some through ``set_defaults``.
_FLAGS: Dict[str, Dict[str, Any]] = {
    # deployment
    "shape": dict(choices=("phase-split", "colocated"), default="colocated"),
    "model": dict(default="Llama3-8B"),
    "prefill_gpu": dict(default="Lite+NetBW+FLOPS", help="prefill pool GPU (phase-split)"),
    "decode_gpu": dict(default="Lite+MemBW", help="decode pool GPU (phase-split)"),
    "gpu": dict(default="H100", help="GPU type (the colocated pool's)"),
    "gpus_per_instance": dict(type=int, default=1),
    "n_prefill": dict(type=int, default=2, help="prefill pool size (phase-split)"),
    "n_decode": dict(type=int, default=2, help="decode pool size (phase-split)"),
    "n_instances": dict(type=int, default=4, help="pool size (colocated)"),
    "max_prefill_batch": dict(type=int, default=4),
    "max_decode_batch": dict(type=int, default=64),
    "chunk_tokens": dict(type=int, default=512, help="prefill chunk per mixed iteration"),
    "policy": dict(default="fcfs", choices=POLICY_BUNDLES.names(), help="scheduling policy bundle"),
    # trace
    "rate": dict(type=float, default=6.0, help="arrival rate (req/s)"),
    "rates": dict(type=_csv_floats, default=[2.0, 4.0],
                  help="comma-separated arrival rates (req/s): a grid axis, or "
                       "autoscale's per-segment rates"),
    "sizes": dict(type=_csv_ints, default=[1, 2],
                  help="comma-separated pool sizes (decode/colocated instances), "
                       "the other grid axis"),
    "segment": dict(type=float, default=60.0, help="segment duration (s)"),
    "duration": dict(type=float, default=20.0, help="trace length (s)"),
    "output_tokens": dict(type=int, default=100),
    "output_spread": dict(type=float, default=0.5),
    "seed": dict(type=int, default=0, help="trace RNG seed"),
    # engine and execution
    "max_sim_time": dict(type=float, default=600.0),
    "context_bucket": dict(type=int, default=1, help="service-time cache granularity (1 = exact)"),
    "backend": dict(default="event", choices=("event", "fluid"),
                    help="event = discrete-event truth; fluid = millisecond "
                         "analytic ODE estimate"),
    "metrics": dict(default="exact", choices=("exact", "streaming"),
                    help="exact per-request metrics, or constant-memory sketches"),
    "shards": dict(type=int, default=1,
                   help="split the run into N independent engine shards (>1 "
                        "implies streaming metrics; excludes --topology)"),
    "shard_policy": dict(default="least-loaded", choices=sorted(ROUTING_POLICIES.names()),
                         help="routing policy assigning requests to shards"),
    "workers": dict(type=int, default=1, help="worker processes (1 = in-process)"),
    # failures
    "mtbf_hours": dict(type=float, default=0.0, help="per-GPU MTBF of sampled failures (0 = off)"),
    "mttr_hours": dict(type=float, default=0.25),
    "failure_seed": dict(type=int, default=0),
    # topology co-simulation
    "topology": dict(default="none", choices=TOPOLOGIES, help="co-simulate a network fabric"),
    "cluster_gpus": dict(type=int, default=0, help="fabric endpoint count (0 = deployment total)"),
    "group": dict(type=int, default=4, help="direct-connect Lite-group size"),
    "placer": dict(default="packed", choices=sorted(PLACERS), help="instance-to-GPU placement"),
    "network_model": dict(default="none", choices=NETWORK_MODELS,
                          help="service-time network model (fabric = placed collectives)"),
    # result cache and screening
    "cache_dir": dict(default=".repro_cache", help="result-cache directory"),
    "no_cache": dict(action="store_true", help="disable the on-disk result cache"),
    "margin": dict(type=float, default=0.10, help="safety margin widening the fluid Pareto front"),
    # autoscale controllers
    "controllers": dict(type=lambda text: [p for p in text.split(",") if p],
                        default=["static", "reactive", "slo"],
                        help="comma-separated controller names to compare"),
    "epoch": dict(type=float, default=5.0, help="controller stepping period (s)"),
    "warmup": dict(type=float, default=15.0, help="instance spawn warm-up delay (s)"),
    "min_instances": dict(type=int, default=1),
    "max_instances": dict(type=int, default=8),
    "queue_high": dict(type=float, default=2.0, help="reactive scale-up queue per instance"),
    "slo_ttft": dict(type=float, default=1.0, help="P99 TTFT SLO (s): slo controller + verdict"),
    "slo_tbt": dict(type=float, default=0.05, help="P99 TBT target (s) for the slo controller"),
    "cap": dict(default=None, help="power_cap window as start:end:watts"),
}

# Flag groups the run subcommands share.
_POOL_FLAGS = (
    "model", "prefill_gpu", "decode_gpu", "gpus_per_instance", "n_prefill",
    "max_prefill_batch", "max_decode_batch", "policy",
    "output_tokens", "output_spread", "seed", "max_sim_time",
)
_SHAPE_FLAGS = ("shape", "gpu", "chunk_tokens", "duration")
_ENGINE_FLAGS = (
    "context_bucket", "metrics", "backend",
    "topology", "cluster_gpus", "group", "placer", "network_model",
)
_GRID_FLAGS = ("rates", "sizes", "workers", "cache_dir", "no_cache")


def _add_flags(parser: argparse.ArgumentParser, names, **defaults) -> None:
    """Add the named :data:`_FLAGS` to ``parser``, re-defaulting some."""
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), **_FLAGS[name])
    parser.set_defaults(**defaults)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Lite-GPU paper reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table1", help="print Table 1").set_defaults(fn=_cmd_table1)
    sub.add_parser("fig1", help="print the Figure 1 dataset").set_defaults(fn=_cmd_fig1)
    sub.add_parser("fig2", help="print the Figure 2 comparison").set_defaults(fn=_cmd_fig2)
    sub.add_parser("fig3a", help="regenerate Figure 3a").set_defaults(fn=_cmd_fig3a)
    sub.add_parser("fig3b", help="regenerate Figure 3b").set_defaults(fn=_cmd_fig3b)
    sub.add_parser("report", help="full experiment report").set_defaults(fn=_cmd_report)

    search = sub.add_parser("search", help="run the Section 4 configuration search")
    _add_flags(search, ("model", "gpu"), model="Llama3-70B", gpu="Lite+MemBW", fn=_cmd_search)
    search.add_argument("--phase", choices=("prefill", "decode"), default="decode")
    search.add_argument("--verbose", action="store_true")

    tco = sub.add_parser("tco", help="decode unit economics vs H100")
    _add_flags(tco, ("model", "gpu"), model="Llama3-70B", gpu="Lite+MemBW", fn=_cmd_tco)

    simulate = sub.add_parser("simulate", help="run the discrete-event serving simulator")
    _add_flags(
        simulate,
        _POOL_FLAGS + _SHAPE_FLAGS + _ENGINE_FLAGS + (
            "n_decode", "n_instances", "rate", "shards", "shard_policy", "workers",
            "mtbf_hours", "mttr_hours", "failure_seed",
        ),
        shape="phase-split", model="Llama3-70B", gpu="Lite+MemBW", gpus_per_instance=8,
        max_decode_batch=256, duration=40.0, output_tokens=150, fn=_cmd_simulate,
    )

    topology = sub.add_parser(
        "topology", help="compare the three fabric options at a given scale"
    )
    topology.add_argument("--gpus", type=int, default=64, help="cluster GPU count")
    _add_flags(topology, ("group",), fn=_cmd_topology)
    topology.add_argument("--utilization", type=float, default=0.5,
                          help="average traffic level for the power rollup")

    sweep = sub.add_parser(
        "sweep",
        help="sweep a simulation grid in parallel with on-disk result caching",
    )
    _add_flags(sweep, _POOL_FLAGS + _SHAPE_FLAGS + _ENGINE_FLAGS + _GRID_FLAGS, fn=_cmd_sweep)

    screen = sub.add_parser(
        "screen",
        help="two-tier sweep: fluid-screen the grid, event-simulate survivors",
    )
    _add_flags(
        screen, _POOL_FLAGS + _SHAPE_FLAGS + _GRID_FLAGS + ("margin",),
        rates=[2.0, 4.0, 6.0], sizes=[1, 2, 4], fn=_cmd_screen,
    )

    autoscale = sub.add_parser(
        "autoscale",
        help="compare cluster controllers on a bursty trace ($/Mtoken economics)",
    )
    _add_flags(
        autoscale,
        _POOL_FLAGS + (
            "n_decode", "rates", "segment", "controllers", "epoch", "warmup",
            "min_instances", "max_instances", "queue_high", "slo_ttft", "slo_tbt", "cap",
        ),
        prefill_gpu="H100", decode_gpu="H100", n_decode=6, max_decode_batch=32,
        rates=[1.0, 8.0, 1.0], max_sim_time=1800.0, fn=_cmd_autoscale,
    )

    chaos = sub.add_parser(
        "chaos",
        help="replay scripted failures and measure blast radius / recovery",
    )
    chaos.add_argument("--scenario", default="all",
                       choices=("all", "blast", "checkpoint", "storm"),
                       help="which canned chaos scenario(s) to run")
    _add_flags(chaos, ("metrics",), fn=_cmd_chaos)

    cache_cmd = sub.add_parser(
        "cache", help="inspect or clear the on-disk result cache"
    )
    cache_cmd.add_argument("action", choices=("stats", "clear"))
    _add_flags(cache_cmd, ("cache_dir",), fn=_cmd_cache)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (returns an exit code)."""
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except LiteGPUError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
