"""Pipeline benchmark: table cells, Algorithm-1 synthesis, service.

Run from the repository root::

    python3 perfbench/run.py --workload table-cells --seed 1 --seconds 20
    python3 perfbench/run.py --workload synth-ours --seed 1 --trace 1
    python3 perfbench/run.py --workload all

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  An untraced run (``--trace
0``) reports the end-to-end metrics; a traced run (``--trace 1``)
reports the per-layer metrics, the tracing overhead against an
untraced pass of the same ops, and fails unless its call counts and
effort counters repeat exactly in a second process under another
``PYTHONHASHSEED``.  The exit code is 0 only when every output was
correct.  See ``perfbench/README.md`` for the protocol.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Setups per untraced run (this process plus fresh child processes);
#: ``setup_s`` is their median.
SETUPS = 3
#: The tail percentile leaves at least this many samples beyond it.
TAIL_BEYOND = 10
#: Child-process time limits (seconds).
SETUP_TIMEOUT = 60
PROBE_TIMEOUT = 120

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "area_mm2": "mm2",
    "mux_count": "count",
    "exec_steps": "steps",
}

#: Per-layer counters beyond each span target's calls/s/self_s.
COUNTERS = {
    "dfg.DFG.uses_of.calls": "count",
    "dfg.DFG.defs_of.calls": "count",
    "synth.mergers_applied": "count",
    "synth.try_merge.feasible_ratio": "ratio",
    "sched.reschedule.feasible_ratio": "ratio",
    "gates.gates_mean": "gates",
    "gates.dffs_mean": "dffs",
    "atpg.podem.success": "count",
    "atpg.podem.aborted": "count",
    "atpg.podem.untestable": "count",
    "atpg.podem.implications": "count",
    "atpg.podem.backtracks": "count",
    "atpg.podem.decisions": "count",
    "atpg.faultsim.groups": "count",
    "atpg.divergent": "count",
    "atpg.fault_coverage_pct": "%",
    "atpg.tg_effort_k": "k",
    "atpg.test_cycles": "cycles",
    "harness.cache.hits": "count",
    "harness.cache.misses": "count",
    "service.Ledger.append.fsyncs": "count",
    "runtime.fsyncs": "count",
    "runtime.Journal.records.lines_per_op": "lines",
    "trace.overhead_frac": "frac",
}

#: Raw counters a traced run must repeat exactly (besides call counts).
DETERMINISTIC_COUNTS = (
    "dfg.DFG.uses_of.calls", "dfg.DFG.defs_of.calls",
    "synth.mergers_applied", "synth.try_merge.feasible",
    "sched.reschedule.feasible", "gates.gates", "gates.dffs",
    "atpg.podem.success", "atpg.podem.aborted", "atpg.podem.untestable",
    "atpg.podem.implications", "atpg.podem.backtracks",
    "atpg.podem.decisions", "atpg.faultsim.groups", "atpg.divergent",
    "harness.cache.hits", "harness.cache.misses",
    "service.Ledger.append.fsyncs", "runtime.fsyncs",
    "runtime.Journal.records.lines",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    from spans import SPAN_TARGETS
    units = {}
    for name in SPAN_TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    return units


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------
class Run:
    """Latencies, qualities and failures of the timed ops of one run."""

    def __init__(self) -> None:
        #: Op latencies at the reference speed (see speed.py), and raw.
        self.latencies: list[float] = []
        self.raw: list[float] = []
        self.quality: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.passes = 0

    def fail(self, workload: str, op: Any, error: str) -> None:
        self.failed += 1
        print(f"FAILED {workload} op {op}: {error}", flush=True)


def run_passes(workload: Any, run: Run, meter: Any, *, seconds: float = 0.0,
               passes: Optional[int] = None, tracer: Any = None) -> None:
    """Time whole passes of the workload's op set.

    Without ``passes``, passes continue until the raw op time reaches
    ``seconds``, the run holds ``workload.min_samples`` samples and the
    pass count is a multiple of ``workload.cycle``, so every run
    measures complete op sets.
    """
    timed = 0.0
    index = 0
    while True:
        ops = workload.plan(index)
        workload.begin_pass()
        results: list = []
        for op in ops:
            run.attempted += 1
            # Every op starts from an empty collector, so where a
            # collection lands depends on the op, not on the order.
            gc.collect()
            if tracer is not None:
                tracer.enabled = True
            try:
                result, raw, ref = meter.run(lambda: workload.run_op(op))
            except Exception:  # noqa: BLE001 - a failed op is counted
                run.fail(workload.name, op, traceback.format_exc())
                results.append(None)
                continue
            finally:
                if tracer is not None:
                    tracer.enabled = False
            timed += raw
            run.raw.append(raw)
            run.latencies.append(ref)
            results.append(result)
            error, quality = workload.check(op, result)
            run.quality.append(quality)
            if error is not None:
                run.fail(workload.name, op, error)
        for position, error in sorted(workload.end_pass(ops,
                                                        results).items()):
            run.fail(workload.name, ops[position], error)
        index += 1
        run.passes += 1
        if passes is not None:
            if run.passes >= passes:
                return
        elif (timed >= seconds and len(run.latencies) >= workload.min_samples
              and run.passes % workload.cycle == 0):
            return


def tail(latencies: list[float], min_samples: int) -> tuple[float, float,
                                                             int]:
    """(value, percentile, samples beyond it) of the tail latency.

    The percentile is fixed per workload: the highest that leaves
    ``TAIL_BEYOND`` samples beyond it in the smallest run the workload
    makes (``min_samples``), so every run reports the same percentile.
    """
    ordered = sorted(latencies)
    share = (min_samples - TAIL_BEYOND) / min_samples
    index = max(0, math.ceil(share * len(ordered)) - 1)
    return (ordered[index], 100.0 * (index + 1) / len(ordered),
            len(ordered) - index - 1)


def mean_of(quality: list[dict], key: str) -> float:
    values = [q[key] for q in quality if key in q]
    return statistics.fmean(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def set_up(name: str, seed: int, workdir: Path,
           meter: Any) -> tuple[Any, float]:
    """Build and set up a workload; returns it with its set-up time at
    the reference speed.  The clock starts before the first import of
    the library."""
    from workloads import WORKLOADS

    def build() -> Any:
        workload = WORKLOADS[name](seed, workdir)
        workload.setup()
        return workload

    workload, _, ref = meter.run(build)
    return workload, ref


def child(args: list[str], env: Optional[dict] = None,
          timeout: float = SETUP_TIMEOUT) -> dict:
    """Run this script in a fresh process; returns its last JSON line."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def untraced(args: argparse.Namespace, workdir: Path) -> dict:
    from speed import SpeedMeter
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--setup-only"]
    setups = [child(base)["setup_s"] for _ in range(SETUPS - 1)]
    meter = SpeedMeter()
    workload, setup_s = set_up(args.workload, args.seed, workdir, meter)
    setups.append(setup_s)
    run = Run()
    try:
        run_passes(workload, run, meter, seconds=args.seconds)
        run.failed += workload.finish()
    finally:
        workload.close()
        meter.close()
    if not run.latencies:
        raise RuntimeError("no op completed")
    value, percentile, beyond = tail(run.latencies, workload.min_samples)
    metrics = {
        "op_s_p50": statistics.median(run.latencies),
        "op_s_tail": value,
        "ops_per_s": len(run.latencies) / sum(run.latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - run.failed / run.attempted,
        "area_mm2": mean_of(run.quality, "area_mm2"),
        "mux_count": mean_of(run.quality, "mux_count"),
        "exec_steps": mean_of(run.quality, "exec_steps"),
    }
    history = getattr(workload, "history_jobs", None)
    print(f"{args.workload}: seed {args.seed}; {run.passes} passes, "
          f"{len(run.latencies)} samples; op_s_tail is "
          f"p{percentile:.1f} ({beyond} samples beyond); failed_frac "
          f"{run.failed / run.attempted:.4f}; raw wall op_s_p50 "
          f"{statistics.median(run.raw):.4f} s, ops_per_s "
          f"{len(run.raw) / sum(run.raw):.4f}; setups "
          f"{[round(s, 4) for s in setups]}"
          + (f"; WAL history {history} jobs" if history else ""), flush=True)
    return result(run, {k: (v, END_TO_END[k]) for k, v in metrics.items()})


def traced_pass(workload: Any, meter: Any) -> tuple[Any, Run]:
    """Pass 0, traced, on a set-up workload."""
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    run = Run()
    try:
        run_passes(workload, run, meter, passes=1, tracer=tracer)
    finally:
        tracer.uninstall()
    return tracer, run


def determinism_counts(tracer: Any) -> dict[str, int]:
    counts = {k: int(v) for k, v in tracer.summary().items()
              if k.endswith(".calls")}
    counts.update({k: int(tracer.counts[k]) for k in DETERMINISTIC_COUNTS})
    return counts


def hash_probe() -> int:
    return hash("perfbench-hash-seed-probe")


def traced(args: argparse.Namespace, workdir: Path) -> dict:
    from speed import SpeedMeter
    meter = SpeedMeter()
    workload, _ = set_up(args.workload, args.seed, workdir, meter)
    try:
        tracer, run = traced_pass(workload, meter)
        plain = Run()
        run_passes(workload, plain, meter, passes=1)
        run.failed += plain.failed + workload.finish()
        run.attempted += plain.attempted
    finally:
        workload.close()
        meter.close()
    overhead = sum(run.latencies) / sum(plain.latencies) - 1.0
    counts = determinism_counts(tracer)
    other = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    probe = child(["--workload", args.workload, "--seed", str(args.seed),
                   "--determinism-probe"],
                  env={**os.environ, "PYTHONHASHSEED": other},
                  timeout=PROBE_TIMEOUT)
    run.failed += probe["failed"]
    deterministic = probe["hash_probe"] != hash_probe()
    if not deterministic:
        print("determinism: both processes ran under one hash seed",
              flush=True)
    for key in sorted(set(counts) | set(probe["counts"])):
        if counts.get(key) != probe["counts"].get(key):
            print(f"determinism: {key} = {counts.get(key)} here, "
                  f"{probe['counts'].get(key)} under PYTHONHASHSEED={other}",
                  flush=True)
            deterministic = False
    print(f"{args.workload}: seed {args.seed}; traced pass "
          f"{sum(run.latencies):.3f} s, untraced pass "
          f"{sum(plain.latencies):.3f} s (reference speed); counters "
          f"{'repeat' if deterministic else 'DIFFER'} under "
          f"PYTHONHASHSEED={other}; atpg.divergent "
          f"{tracer.counts['atpg.divergent']}", flush=True)
    metrics = layer_metrics(tracer, run, overhead)
    out = result(run, {k: (metrics[k], u)
                       for k, u in per_layer_units().items()})
    out["correct"] = out["correct"] and deterministic
    return out


def layer_metrics(tracer: Any, run: Run, overhead: float) -> dict:
    """Span summary plus the counters, ratios and means of COUNTERS."""
    counts = tracer.counts
    metrics: dict[str, float] = tracer.summary()

    def ratio(part: str, whole: str) -> float:
        return counts[part] / metrics[whole] if metrics[whole] else 0.0

    metrics.update({key: counts[key] for key in COUNTERS})
    metrics.update({
        "synth.try_merge.feasible_ratio": ratio(
            "synth.try_merge.feasible", "synth.try_merge.calls"),
        "sched.reschedule.feasible_ratio": ratio(
            "sched.reschedule.feasible", "sched.reschedule.calls"),
        "gates.gates_mean": ratio(
            "gates.gates", "gates.expand_with_controller.calls"),
        "gates.dffs_mean": ratio(
            "gates.dffs", "gates.expand_with_controller.calls"),
        "atpg.fault_coverage_pct": mean_of(run.quality, "fault_coverage_pct"),
        "atpg.tg_effort_k": mean_of(run.quality, "tg_effort_k"),
        "atpg.test_cycles": mean_of(run.quality, "test_cycles"),
        "runtime.Journal.records.lines_per_op": (
            counts["runtime.Journal.records.lines"]
            / max(1, len(run.latencies))),
        "trace.overhead_frac": overhead,
    })
    return metrics


def determinism_probe(args: argparse.Namespace, workdir: Path) -> dict:
    """Set up, trace pass 0 and report the counts (child process)."""
    from speed import SpeedMeter
    meter = SpeedMeter()
    workload, _ = set_up(args.workload, args.seed, workdir, meter)
    try:
        tracer, run = traced_pass(workload, meter)
    finally:
        workload.close()
        meter.close()
    return {"counts": determinism_counts(tracer), "hash_probe": hash_probe(),
            "failed": run.failed}


def setup_only(args: argparse.Namespace, workdir: Path) -> dict:
    """One fresh set-up, timed (child process)."""
    from speed import SpeedMeter
    meter = SpeedMeter()
    workload, setup_s = set_up(args.workload, args.seed, workdir, meter)
    workload.close()
    meter.close()
    return {"setup_s": setup_s}


def result(run: Run, metrics: dict[str, tuple[float, str]]) -> dict:
    return {"correct": run.failed == 0 and run.attempted > 0,
            "attempted": run.attempted, "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in its own process."""
    from workloads import WORKLOADS
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, check=False)
        status = status or proc.returncode
    return status


def check_contract() -> Optional[str]:
    """The metric names printed must be the ones BENCHMARK.json lists."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != END_TO_END:
        return "BENCHMARK.json end_to_end differs from run.py"
    if {m["name"]: m["unit"] for m in spec["per_layer"]} \
            != per_layer_units():
        return "BENCHMARK.json per_layer differs from run.py"
    return None


def main(argv: Optional[list[str]] = None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--determinism-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    problem = check_contract()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            out = setup_only(args, workdir)
        elif args.determinism_probe:
            out = determinism_probe(args, workdir)
        else:
            # Bytecode is compiled before anything is timed, so set-up
            # time does not depend on .pyc files a previous run left.
            compileall.compile_dir(str(SRC), quiet=1)
            compileall.compile_dir(str(HERE), quiet=1)
            out = traced(args, workdir) if args.trace \
                else untraced(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(out))
    return 0 if out.get("correct", True) else 1


if __name__ == "__main__":
    sys.exit(main())
