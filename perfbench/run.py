"""Benchmark of the serving simulator: four reference workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload hotpath_h100 --seed 21 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off and checks
every operation's outputs; ``--trace 1`` makes an untraced and a traced
pass and reports the per-layer table (see ``layers.py``) and the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric by name and unit, plus a machine fingerprint.

Everything runs in this one process (``workers=1``), except the set-up
samples: set-up time includes imports, so each extra sample is a fresh
interpreter running this script with ``--setup-probe``.

How the numbers are taken (``WORKLOADS.md`` has the reasons):

- ``sim_req_per_ref_s`` is the simulated arrivals per second of the
  reference machine, the median over the timed operations.  A fixed
  calibration kernel (:func:`calibrate`) runs before and after every
  operation; each operation's host time is divided by the kernel's time
  around it and multiplied by the kernel's time on the reference machine.
  On a shared virtual machine the host slows down by up to 1.8x for
  seconds to minutes; raw host times carry that, the ratio mostly cancels
  it.  The raw rate is printed beside it as ``sim_req_per_s``.
- ``setup_s`` is the median of the set-up samples: imports, input
  generation, simulator construction and one untimed warm-up operation,
  in seconds of the reference machine (scaled by the calibration kernel
  run just after each set-up; the host seconds are printed as
  ``setup_s_host``).
- ``peak_mem_mb`` is the median, over the same samples, of how far the
  process's peak resident memory grew during input generation,
  construction and the warm-up operation.
"""

from __future__ import annotations

import time

# The set-up clock starts before any program module is imported.
_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
#: Set-up samples per run (this process plus fresh-interpreter probes).
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 150
#: Calibration kernel size (both sizes powers of two): objects of its event
#: loop (about 3 MB) and steps over them, entries of its table (about
#: 17 MB of floats) and random reads from it.
CAL_JOBS = 1 << 15
CAL_STEPS = 60_000
CAL_TABLE = 1 << 19
CAL_READS = 150_000
#: Seconds one calibration kernel run takes on the reference machine.
CAL_REF_S = 0.12


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's reference seed)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up once, print the set-up sample, exit")
    return parser.parse_args(argv)


def _max_rss_mb() -> float:
    """Peak resident memory of this process image so far, in MB.

    ``VmHWM`` starts afresh at exec; ``ru_maxrss`` does not (a child keeps
    the peak of the process that spawned it), so it is only the fallback.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _cpus():
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return []


class _Job:
    """A calibration-kernel stand-in for a simulated request."""

    __slots__ = ("left", "batch", "busy")

    def __init__(self, index: int) -> None:
        self.left = 100 + index % 50
        self.batch = index % 32
        self.busy = 0.0

    def advance(self, dt: float) -> int:
        self.left -= 1
        if self.left <= 0:
            self.left = 100
        self.busy += dt
        return self.left


def _step_time(batch: int, context: int) -> float:
    return 1e-3 * (1.0 + batch * 0.01) + context * 1e-6


_CAL_JOBS: list = []
_CAL_TABLE: list = []


def calibrate() -> float:
    """Host seconds of a fixed kernel: the machine's speed right now.

    The kernel has two halves of about equal time, because interference
    from a shared host slows the two kinds of work the simulator does by
    different amounts: an event loop over a few megabytes of small objects
    (method calls, attribute updates, a memo dict, heap pushes and pops)
    and random reads over a larger table of floats.  The work is fixed,
    uses no program code, and runs with the collector off so that a
    program's collector settings cannot change it.
    """
    if not _CAL_JOBS:
        _CAL_JOBS.extend(_Job(i) for i in range(CAL_JOBS))
        _CAL_TABLE.extend(float(i) for i in range(CAL_TABLE))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        jobs, memo, heap, clock, index = _CAL_JOBS, {}, [], 0.0, 7
        for step in range(CAL_STEPS):
            index = (index * 1103515245 + 12345) & (CAL_JOBS - 1)  # full-period walk
            job = jobs[index]
            key = (job.batch, step & 255)
            dt = memo.get(key)
            if dt is None:
                dt = memo[key] = _step_time(job.batch, step & 255)
            heapq.heappush(heap, (clock + dt * job.advance(dt), step, job))
            if len(heap) > 512:
                clock = heapq.heappop(heap)[0]
        table = _CAL_TABLE
        for _ in range(CAL_READS):
            index = (index * 1103515245 + 12345) & (CAL_TABLE - 1)
            clock += table[index]
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class Sample:
    """One timed operation and the calibration kernel's times around it."""

    seconds: float
    cal_seconds: float  # mean of the kernel run just before and just after
    result: object

    @property
    def rate(self) -> float:
        """Simulated arrivals per host second."""
        return self.result.arrivals / self.seconds

    @property
    def ref_rate(self) -> float:
        """Simulated arrivals per second of the reference machine."""
        return self.rate * self.cal_seconds / CAL_REF_S


def timed_ops(prepared, seconds: float, tracer=None):
    """Run operations until ``seconds`` have passed; a list of :class:`Sample`.

    The calibration kernel runs before the first operation and after every
    one, so each operation is bracketed by two measurements of the machine's
    speed taken on either side of it.
    """
    samples = []
    start = time.perf_counter()
    cal_before = calibrate()
    while True:
        t0 = time.perf_counter()
        if tracer is None:
            result = prepared.op()
        else:
            with tracer.span("bench.op"):
                result = prepared.op()
        elapsed = time.perf_counter() - t0
        cal_after = calibrate()
        samples.append(Sample(elapsed, (cal_before + cal_after) / 2, result))
        cal_before = cal_after
        if time.perf_counter() - start >= seconds:
            return samples


def ref_rate(samples) -> float:
    """Median over the operations of simulated arrivals per reference second."""
    return statistics.median(s.ref_rate for s in samples)


def probe_setups(workload: str, seed: int, count: int) -> list:
    """Set-up samples measured by fresh interpreters, run side by side.

    The probes share the machine with each other and nothing else: this
    process only waits for them.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    procs = [subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
             for _ in range(count)]
    samples = []
    try:
        for proc in procs:
            out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up sample exited with {proc.returncode}")
            samples.append(json.loads(out.strip().splitlines()[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return samples


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha():
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint() -> dict:
    """Machine and code identity, so spreads between runs can be read later."""
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(_cpus()) or os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "mode": "serial",
        "workers": 1,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _save(name: str, record: dict) -> None:
    """Append the run to the history and keep the latest record per run kind."""
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "history.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps({k: v for k, v in record.items() if k != "spans"}) + "\n")
    (RESULTS / f"{name}.json").write_text(json.dumps(record, indent=1))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads  # imports the program: part of the set-up time

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    seed = workload.default_seed if args.seed is None else args.seed
    rss_before = _max_rss_mb()
    prepared = workload.prepare(seed)
    warm = prepared.op()  # the untimed warm-up operation, folded into set-up
    setup = {"setup_s": time.perf_counter() - _START, "peak_mem_mb": _max_rss_mb() - rss_before}
    setup["cal_s"] = calibrate()  # the machine's speed just after set-up
    if args.setup_probe:
        # The warm-up's checks are counted by the run that asked for the
        # sample, which checks the same operation itself.
        print(json.dumps(setup))
        return 0

    checked = [warm]
    if args.trace:
        metrics, record = traced_run(workload, prepared, seed, args.seconds, checked)
    else:
        metrics, record = end_to_end_run(workload, prepared, seed, args.seconds, setup,
                                         checked)
    attempted = sum(r.runs for r in checked)
    failed = sum(r.failed for r in checked)
    for problem in dict.fromkeys(p for r in checked for p in r.problems):
        print(f"check failed: {problem}", file=sys.stderr)

    pinned = " (reference seed: outputs checked against pins)"
    print(f"workload {workload.name} seed {seed}"
          f"{pinned if seed == workload.default_seed else ''} trace {args.trace}")
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  {'op_fail_ratio':34s} {failed / max(1, attempted):>16.6g} ratio "
          f"({failed}/{attempted} simulator runs)")
    for name, (value, unit) in record.pop("extra", {}).items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    fp = fingerprint()
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    record.update(workload=workload.name, seed=seed, trace=args.trace, fingerprint=fp,
                  attempted=attempted, failed=failed,
                  metrics={k: v["value"] for k, v in metrics.items()})
    _save(f"{workload.name}-seed{seed}-trace{args.trace}", record)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def end_to_end_run(workload, prepared, seed, seconds, setup, checked):
    samples = timed_ops(prepared, seconds)
    checked += [s.result for s in samples]
    setups = [setup] + probe_setups(workload.name, seed, SETUP_SAMPLES - 1)
    accuracy = prepared.accuracy()
    metrics = {
        "sim_req_per_ref_s": _metric(ref_rate(samples), "req/s"),
        "setup_s": _metric(statistics.median(
            s["setup_s"] * CAL_REF_S / s["cal_s"] for s in setups), "s"),
        "peak_mem_mb": _metric(statistics.median(s["peak_mem_mb"] for s in setups), "MB"),
    }
    rates = [s.rate for s in samples]
    extra = {
        "setup_s_host": (statistics.median(s["setup_s"] for s in setups), "s"),
        "sim_req_per_s": (statistics.median(rates), "req/s"),
        "sim_req_per_s_fastest_op": (max(rates), "req/s"),
        "timed_ops": (len(samples), "count"),
        "cal_s": (statistics.median(s.cal_seconds for s in samples), "s"),
        **{name: (accuracy[name], unit) for name, unit in workload.accuracy_metrics},
    }
    record = {
        "extra": extra,
        "op_seconds": [s.seconds for s in samples],
        "cal_seconds": [s.cal_seconds for s in samples],
        "op_rates": rates,
        "setup_samples": setups,
        "accuracy": accuracy,
    }
    return metrics, record


def traced_run(workload, prepared, seed, seconds, checked):
    from perfbench import layers
    from perfbench.tracer import Tracer

    untraced = timed_ops(prepared, seconds / 2)
    tracer = Tracer()
    patches = layers.install(tracer)
    try:
        with tracer.span("bench.setup"):
            traced_prepared = workload.prepare(seed)
            checked.append(traced_prepared.op())
        setup_phase = tracer.take()
        traced = timed_ops(traced_prepared, seconds / 2, tracer)
        op_phase = tracer.take()
    finally:
        patches.undo()
    checked += [s.result for s in untraced + traced]
    overhead = ref_rate(untraced) / ref_rate(traced) - 1.0
    per_layer = layers.per_layer_metrics(
        setup_phase, op_phase, len(traced),
        outputs=traced[-1].result.outputs,
        accuracy=traced_prepared.accuracy(),
        overhead=overhead,
    )
    metrics = {name: _metric(per_layer[name], unit) for name, unit, _ in layers.PER_LAYER}
    record = {
        "ops": {"untraced": len(untraced), "traced": len(traced)},
        "spans": [
            [s.name, s.start, s.end, s.parent]
            for phase in (setup_phase, op_phase) for s in phase.spans[:20000]
        ],
    }
    return metrics, record


if __name__ == "__main__":
    sys.exit(main())
