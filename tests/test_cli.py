"""CLI smoke tests."""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"

# Every subcommand's option strings and parsed defaults (without ``fn``).
# The run subcommands share one flag table, so a flag cannot be added to,
# dropped from or re-defaulted in one of them without this test noticing.
PARSER_PIN = {
    "table1": (
        [],
        {
            "command": "table1",
        },
    ),
    "fig1": (
        [],
        {
            "command": "fig1",
        },
    ),
    "fig2": (
        [],
        {
            "command": "fig2",
        },
    ),
    "fig3a": (
        [],
        {
            "command": "fig3a",
        },
    ),
    "fig3b": (
        [],
        {
            "command": "fig3b",
        },
    ),
    "report": (
        [],
        {
            "command": "report",
        },
    ),
    "search": (
        [
            "--gpu", "--model", "--phase", "--verbose",
        ],
        {
            "command": "search", "gpu": "Lite+MemBW", "model": "Llama3-70B",
            "phase": "decode", "verbose": False,
        },
    ),
    "tco": (
        [
            "--gpu", "--model",
        ],
        {
            "command": "tco", "gpu": "Lite+MemBW", "model": "Llama3-70B",
        },
    ),
    "simulate": (
        [
            "--backend", "--chunk-tokens", "--cluster-gpus", "--context-bucket",
            "--decode-gpu", "--duration", "--failure-seed", "--gpu", "--gpus-per-instance",
            "--group", "--max-decode-batch", "--max-prefill-batch", "--max-sim-time",
            "--metrics", "--model", "--mtbf-hours", "--mttr-hours", "--n-decode",
            "--n-instances", "--n-prefill", "--network-model", "--output-spread",
            "--output-tokens", "--placer", "--policy", "--prefill-gpu", "--rate", "--seed",
            "--shape", "--shard-policy", "--shards", "--topology", "--workers",
        ],
        {
            "backend": "event", "chunk_tokens": 512, "cluster_gpus": 0,
            "command": "simulate", "context_bucket": 1, "decode_gpu": "Lite+MemBW",
            "duration": 40.0, "failure_seed": 0, "gpu": "Lite+MemBW",
            "gpus_per_instance": 8, "group": 4, "max_decode_batch": 256,
            "max_prefill_batch": 4, "max_sim_time": 600.0, "metrics": "exact",
            "model": "Llama3-70B", "mtbf_hours": 0.0, "mttr_hours": 0.25, "n_decode": 2,
            "n_instances": 4, "n_prefill": 2, "network_model": "none",
            "output_spread": 0.5, "output_tokens": 150, "placer": "packed",
            "policy": "fcfs", "prefill_gpu": "Lite+NetBW+FLOPS", "rate": 6.0, "seed": 0,
            "shape": "phase-split", "shard_policy": "least-loaded", "shards": 1,
            "topology": "none", "workers": 1,
        },
    ),
    "topology": (
        [
            "--gpus", "--group", "--utilization",
        ],
        {
            "command": "topology", "gpus": 64, "group": 4, "utilization": 0.5,
        },
    ),
    "sweep": (
        [
            "--backend", "--cache-dir", "--chunk-tokens", "--cluster-gpus",
            "--context-bucket", "--decode-gpu", "--duration", "--gpu",
            "--gpus-per-instance", "--group", "--max-decode-batch", "--max-prefill-batch",
            "--max-sim-time", "--metrics", "--model", "--n-prefill", "--network-model",
            "--no-cache", "--output-spread", "--output-tokens", "--placer", "--policy",
            "--prefill-gpu", "--rates", "--seed", "--shape", "--sizes", "--topology",
            "--workers",
        ],
        {
            "backend": "event", "cache_dir": ".repro_cache", "chunk_tokens": 512,
            "cluster_gpus": 0, "command": "sweep", "context_bucket": 1,
            "decode_gpu": "Lite+MemBW", "duration": 20.0, "gpu": "H100",
            "gpus_per_instance": 1, "group": 4, "max_decode_batch": 64,
            "max_prefill_batch": 4, "max_sim_time": 600.0, "metrics": "exact",
            "model": "Llama3-8B", "n_prefill": 2, "network_model": "none",
            "no_cache": False, "output_spread": 0.5, "output_tokens": 100,
            "placer": "packed", "policy": "fcfs", "prefill_gpu": "Lite+NetBW+FLOPS",
            "rates": [2.0, 4.0], "seed": 0, "shape": "colocated", "sizes": [1, 2],
            "topology": "none", "workers": 1,
        },
    ),
    "screen": (
        [
            "--cache-dir", "--chunk-tokens", "--decode-gpu", "--duration", "--gpu",
            "--gpus-per-instance", "--margin", "--max-decode-batch", "--max-prefill-batch",
            "--max-sim-time", "--model", "--n-prefill", "--no-cache", "--output-spread",
            "--output-tokens", "--policy", "--prefill-gpu", "--rates", "--seed", "--shape",
            "--sizes", "--workers",
        ],
        {
            "cache_dir": ".repro_cache", "chunk_tokens": 512, "command": "screen",
            "decode_gpu": "Lite+MemBW", "duration": 20.0, "gpu": "H100",
            "gpus_per_instance": 1, "margin": 0.1, "max_decode_batch": 64,
            "max_prefill_batch": 4, "max_sim_time": 600.0, "model": "Llama3-8B",
            "n_prefill": 2, "no_cache": False, "output_spread": 0.5, "output_tokens": 100,
            "policy": "fcfs", "prefill_gpu": "Lite+NetBW+FLOPS", "rates": [2.0, 4.0, 6.0],
            "seed": 0, "shape": "colocated", "sizes": [1, 2, 4], "workers": 1,
        },
    ),
    "autoscale": (
        [
            "--cap", "--controllers", "--decode-gpu", "--epoch", "--gpus-per-instance",
            "--max-decode-batch", "--max-instances", "--max-prefill-batch",
            "--max-sim-time", "--min-instances", "--model", "--n-decode", "--n-prefill",
            "--output-spread", "--output-tokens", "--policy", "--prefill-gpu",
            "--queue-high", "--rates", "--seed", "--segment", "--slo-tbt", "--slo-ttft",
            "--warmup",
        ],
        {
            "cap": None, "command": "autoscale",
            "controllers": ["static", "reactive", "slo"], "decode_gpu": "H100",
            "epoch": 5.0, "gpus_per_instance": 1, "max_decode_batch": 32,
            "max_instances": 8, "max_prefill_batch": 4, "max_sim_time": 1800.0,
            "min_instances": 1, "model": "Llama3-8B", "n_decode": 6, "n_prefill": 2,
            "output_spread": 0.5, "output_tokens": 100, "policy": "fcfs",
            "prefill_gpu": "H100", "queue_high": 2.0, "rates": [1.0, 8.0, 1.0], "seed": 0,
            "segment": 60.0, "slo_tbt": 0.05, "slo_ttft": 1.0, "warmup": 15.0,
        },
    ),
    "chaos": (
        [
            "--metrics", "--scenario",
        ],
        {
            "command": "chaos", "metrics": "exact", "scenario": "all",
        },
    ),
    "cache": (
        [
            "--cache-dir",
        ],
        {
            "action": "stats", "cache_dir": ".repro_cache", "command": "cache",
        },
    ),
}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("table1", "fig1", "fig2", "fig3a", "fig3b", "report",
                        "search", "tco", "simulate", "sweep", "screen",
                        "topology", "autoscale", "chaos"):
            args = parser.parse_args([command])
            assert callable(args.fn)
        # `cache` needs its positional action.
        assert callable(parser.parse_args(["cache", "stats"]).fn)

    def test_every_subcommand_keeps_its_flags_and_defaults(self):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert sorted(subparsers.choices) == sorted(PARSER_PIN)
        for command, (options, defaults) in PARSER_PIN.items():
            sub = subparsers.choices[command]
            seen = sorted(
                s for a in sub._actions for s in a.option_strings if s not in ("-h", "--help")
            )
            assert seen == options, command
            argv = [command, "stats"] if command == "cache" else [command]
            parsed = vars(parser.parse_args(argv))
            parsed.pop("fn")
            assert parsed == defaults, command


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "H100" in out and "Lite+MemBW" in out

    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        assert "yield" in capsys.readouterr().out

    def test_fig3b(self, capsys):
        assert main(["fig3b"]) == 0
        out = capsys.readouterr().out
        assert "Llama3-405B" in out

    def test_search_verbose(self, capsys):
        assert main(["search", "--model", "Llama3-8B", "--gpu", "H100",
                     "--phase", "decode", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "tok/s/SM" in out
        assert "bound by" in out

    def test_tco(self, capsys):
        assert main(["tco", "--model", "Llama3-8B"]) == 0
        out = capsys.readouterr().out
        assert "/Mtok" in out and "saving" in out

    def test_simulate_phase_split(self, capsys):
        assert main([
            "simulate", "--model", "Llama3-8B", "--prefill-gpu", "H100",
            "--decode-gpu", "H100", "--gpus-per-instance", "1",
            "--n-prefill", "1", "--n-decode", "1", "--max-decode-batch", "64",
            "--rate", "2", "--duration", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "phase-split" in out and "completed" in out and "TTFT" in out

    def test_simulate_colocated_with_failures(self, capsys):
        assert main([
            "simulate", "--shape", "colocated", "--model", "Llama3-8B",
            "--gpu", "H100", "--gpus-per-instance", "1", "--n-instances", "2",
            "--max-decode-batch", "64", "--rate", "2", "--duration", "5",
            "--policy", "least-loaded", "--mtbf-hours", "0.01",
            "--mttr-hours", "0.005", "--max-sim-time", "60",
        ]) == 0
        out = capsys.readouterr().out
        assert "colocated" in out and "stochastic failures" in out

    def test_simulate_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--policy", "nope"])

    def test_bad_spec_reports_clean_error(self, capsys):
        assert main(["simulate", "--context-bucket", "0"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "context_bucket" in err


class TestSweepCommand:
    def _argv(self, tmp_path, *extra):
        return [
            "sweep", "--model", "Llama3-8B", "--gpu", "H100",
            "--rates", "2,3", "--sizes", "1", "--duration", "4",
            "--cache-dir", str(tmp_path / "cache"), *extra,
        ]

    def test_sweep_runs_grid_and_renders_table(self, capsys, tmp_path):
        assert main(self._argv(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "Sweep grid" in out
        assert "rate=2 size=1" in out and "rate=3 size=1" in out
        assert "best throughput:" in out
        assert "0 hits" in out and "2 stored" in out

    def test_second_invocation_hits_cache(self, capsys, tmp_path):
        assert main(self._argv(tmp_path)) == 0
        first = capsys.readouterr().out
        assert main(self._argv(tmp_path)) == 0
        second = capsys.readouterr().out
        assert "2 hits" in second and "[cached]" in second
        # Warm results are bit-identical: the rendered rows must not change.
        table_rows = [line.replace(" [cached]", "") for line in second.splitlines()
                      if line.startswith("rate=")]
        assert table_rows == [line for line in first.splitlines() if line.startswith("rate=")]

    def test_no_cache_flag(self, capsys, tmp_path):
        assert main(self._argv(tmp_path, "--no-cache")) == 0
        out = capsys.readouterr().out
        assert "cache: disabled" in out
        assert not (tmp_path / "cache").exists()

    def test_parallel_workers(self, capsys, tmp_path):
        assert main(self._argv(tmp_path, "--workers", "2", "--no-cache")) == 0
        assert "2 worker(s)" in capsys.readouterr().out

    def test_phase_split_shape(self, capsys, tmp_path):
        assert main(self._argv(
            tmp_path, "--shape", "phase-split",
            "--prefill-gpu", "H100", "--decode-gpu", "H100",
        )) == 0
        assert "phase-split" in capsys.readouterr().out

    def test_infeasible_grid_reports_clean_error(self, capsys, tmp_path):
        # 405B weights cannot fit one H100: every point errors, exit code 2.
        assert main([
            "sweep", "--model", "Llama3-405B", "--gpu", "H100",
            "--rates", "2", "--sizes", "1", "--duration", "4",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 2
        captured = capsys.readouterr()
        assert "ERROR" in captured.out  # the per-point error line
        assert "no sweep point completed successfully" in captured.err

    def test_fluid_backend_sweep(self, capsys, tmp_path):
        assert main(self._argv(tmp_path, "--backend", "fluid", "--no-cache")) == 0
        assert "backend" in capsys.readouterr().out  # provenance column

    def test_fluid_backend_misses_event_cache(self, capsys, tmp_path):
        assert main(self._argv(tmp_path)) == 0
        capsys.readouterr()
        assert main(self._argv(tmp_path, "--backend", "fluid")) == 0
        assert "0 hits" in capsys.readouterr().out


class TestFluidBackendCommand:
    def test_simulate_fluid(self, capsys):
        assert main([
            "simulate", "--model", "Llama3-8B", "--prefill-gpu", "H100",
            "--decode-gpu", "H100", "--gpus-per-instance", "1",
            "--n-prefill", "1", "--n-decode", "1", "--max-decode-batch", "64",
            "--rate", "2", "--duration", "5", "--backend", "fluid",
        ]) == 0
        out = capsys.readouterr().out
        assert "fluid" in out and "completed" in out

    def test_fluid_rejects_shards(self, capsys):
        assert main([
            "simulate", "--backend", "fluid", "--shards", "2",
            "--rate", "2", "--duration", "5",
        ]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_fluid_rejects_failures(self, capsys):
        assert main([
            "simulate", "--model", "Llama3-8B", "--prefill-gpu", "H100",
            "--decode-gpu", "H100", "--gpus-per-instance", "1",
            "--backend", "fluid", "--mtbf-hours", "0.5",
            "--rate", "2", "--duration", "5",
        ]) == 2
        assert "fluid" in capsys.readouterr().err


class TestScreenCommand:
    def test_screen_prints_two_tier_table_and_verdict(self, capsys, tmp_path):
        assert main([
            "screen", "--model", "Llama3-8B", "--gpu", "H100",
            "--rates", "2,4", "--sizes", "1,2", "--duration", "4",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert "two-tier screen" in out
        assert "best (event-verified):" in out
        assert "points promoted" in out

    def test_screen_no_cache(self, capsys, tmp_path):
        assert main([
            "screen", "--model", "Llama3-8B", "--gpu", "H100",
            "--rates", "2", "--sizes", "1", "--duration", "4", "--no-cache",
        ]) == 0
        assert "best (event-verified):" in capsys.readouterr().out
        assert not (tmp_path / "cache").exists()


class TestTopologyCommand:
    def test_prints_three_fabrics(self, capsys):
        assert main(["topology", "--gpus", "32", "--group", "4"]) == 0
        out = capsys.readouterr().out
        assert "Fabric comparison: 32 GPUs, group 4" in out
        for name in ("direct-connect", "packet-switched", "flat-circuit"):
            assert name in out

    def test_group_must_divide_gpus(self, capsys):
        assert main(["topology", "--gpus", "30", "--group", "4"]) == 2
        assert "error:" in capsys.readouterr().err


class TestTopologyAwareSimulate:
    def _argv(self, *extra):
        return [
            "simulate", "--model", "Llama3-8B", "--gpus-per-instance", "1",
            "--n-prefill", "1", "--n-decode", "1", "--duration", "4",
            "--max-sim-time", "120", *extra,
        ]

    def test_simulate_with_fabric_model(self, capsys):
        assert main(self._argv(
            "--topology", "switched", "--network-model", "fabric",
            "--placer", "packed",
        )) == 0
        out = capsys.readouterr().out
        assert "topology switched" in out and "network model 'fabric'" in out
        assert "intra-instance hops" in out

    def test_simulate_topology_none_prints_no_placement(self, capsys):
        assert main(self._argv()) == 0
        assert "topology" not in capsys.readouterr().out.splitlines()[-1]

    def test_fabric_without_topology_is_an_error(self, capsys):
        assert main(self._argv("--network-model", "fabric")) == 2
        assert "topology is required" in capsys.readouterr().err

    def test_placement_flags_without_topology_are_an_error(self, capsys):
        assert main(self._argv("--placer", "scattered")) == 2
        assert "no effect without --topology" in capsys.readouterr().err


class TestCompositionErrors:
    """Inputs that do not compose exit 2 instead of running without one."""

    ARGV = [
        "simulate", "--model", "Llama3-8B", "--gpus-per-instance", "1",
        "--n-prefill", "2", "--n-decode", "2", "--duration", "4",
    ]

    def test_shards_with_fabric_model_without_topology(self, capsys):
        assert main([*self.ARGV, "--shards", "2", "--network-model", "fabric"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("shards", ["0", "-3"])
    def test_shards_below_one(self, capsys, shards):
        assert main([*self.ARGV, "--shards", shards]) == 2
        assert "error:" in capsys.readouterr().err


def readme_commands():
    """Every ``python -m repro ...`` command in the README, as an argv list.

    Backslash continuations are joined, a trailing ``...`` is dropped, and
    the ``<command>`` placeholder is skipped.
    """
    text = README.read_text(encoding="utf-8").replace("\\\n", " ")
    commands = []
    for match in re.finditer(r"python -m repro ([^`#\n]*)", text):
        argv = shlex.split(match.group(1))
        if argv[-1:] == ["..."]:
            argv.pop()
        if not argv[0].startswith("<"):
            commands.append(argv)
    return commands


class TestReadmeCommands:
    def test_finds_the_readme_commands(self):
        shown = {argv[0] for argv in readme_commands()}
        assert {"simulate", "sweep", "screen", "chaos", "report"} <= shown

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_parser_accepts_readme_command(self, argv):
        assert callable(build_parser().parse_args(argv).fn)


class TestSweepTopologyCacheSeparation:
    """Regression: a topology sweep must not reuse non-network cached points."""

    def _argv(self, tmp_path, *extra):
        return [
            "sweep", "--model", "Llama3-8B", "--gpu", "H100",
            "--rates", "2", "--sizes", "2", "--duration", "4",
            "--cache-dir", str(tmp_path / "cache"), *extra,
        ]

    def test_topology_points_miss_the_legacy_cache(self, capsys, tmp_path):
        assert main(self._argv(tmp_path)) == 0
        first = capsys.readouterr().out
        assert "1 stored" in first
        assert main(self._argv(
            tmp_path, "--topology", "circuit", "--network-model", "fabric",
        )) == 0
        second = capsys.readouterr().out
        assert "0 hits" in second and "[cached]" not in second
        # And the topology point caches under its own key.
        assert main(self._argv(
            tmp_path, "--topology", "circuit", "--network-model", "fabric",
        )) == 0
        assert "1 hits" in capsys.readouterr().out


class TestAutoscaleCommand:
    def _argv(self, *extra):
        return [
            "autoscale", "--rates", "1,8,1", "--segment", "20",
            "--epoch", "4", "--warmup", "8", *extra,
        ]

    def test_compares_controllers_and_prints_verdict(self, capsys):
        assert main(self._argv()) == 0
        out = capsys.readouterr().out
        assert "Static vs elastic provisioning" in out
        assert "$/Mtok" in out and "gpu-s" in out
        assert "static" in out and "reactive" in out and "slo" in out
        assert "cheapest at P99-TTFT" in out

    def test_forecast_controller(self, capsys):
        assert main(self._argv("--controllers", "static,forecast")) == 0
        assert "forecast" in capsys.readouterr().out

    def test_power_cap_requires_cap_window(self, capsys):
        assert main(self._argv("--controllers", "power_cap")) == 2
        assert "--cap" in capsys.readouterr().err

    def test_malformed_cap_is_clean_error(self, capsys):
        assert main(self._argv(
            "--controllers", "power_cap", "--cap", "20:40",
        )) == 2
        assert "start:end:watts" in capsys.readouterr().err

    def test_power_cap_with_window(self, capsys):
        assert main(self._argv(
            "--controllers", "static,power_cap", "--cap", "20:40:2000",
        )) == 0
        assert "power_cap" in capsys.readouterr().out

    def test_unknown_controller_is_clean_error(self, capsys):
        assert main(self._argv("--controllers", "nope")) == 2
        assert "unknown controller" in capsys.readouterr().err

    def test_zero_epoch_is_clean_error(self, capsys):
        """A controller that never steps is not a controller: ``--epoch 0``
        is rejected before any run, not replayed as a copy of ``static``."""
        assert main(["autoscale", "--rates", "1,8,1", "--segment", "20", "--epoch", "0"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "epoch must be positive" in captured.err
        assert captured.out == ""

    def test_single_rate_is_an_error(self, capsys):
        assert main(["autoscale", "--rates", "2"]) == 2
        assert "at least two segments" in capsys.readouterr().err


class TestCacheCommand:
    def test_stats_on_empty_cache(self, capsys, tmp_path):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "0 record(s)" in out and "0 B" in out

    def test_stats_reports_entries_and_size(self, capsys, tmp_path):
        from repro.exec.cache import ResultCache

        cache = ResultCache(tmp_path / "c")
        cache.put(cache.key("demo", 1), {"x": 1})
        cache.put(cache.key("demo", 2), {"y": [1, 2, 3]})
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "2 record(s)" in out
        assert "0 B" not in out  # a real size is reported

    def test_clear_removes_records(self, capsys, tmp_path):
        from repro.exec.cache import ResultCache

        cache = ResultCache(tmp_path / "c")
        cache.put(cache.key("demo", 1), {"x": 1})
        assert main(["cache", "clear", "--cache-dir", str(tmp_path / "c")]) == 0
        assert "cleared 1 record(s)" in capsys.readouterr().out
        assert cache.entries() == 0
