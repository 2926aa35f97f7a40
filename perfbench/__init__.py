"""The repository's benchmark: reference workloads, a layer tracer, pinned outputs.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see ``run.py`` and
``WORKLOADS.md``.
"""
