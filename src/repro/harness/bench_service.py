"""Benchmark the synthesis service: drain throughput and fault cost.

``repro-hlts bench-service`` measures three supervised drains of the
same job set and writes ``BENCH_service.json``:

* **cold** — fresh spool, fresh result cache: every job evaluates.
* **warm** — fresh spool, the cold run's cache: every job should be a
  content-hash cache hit, so this round measures pure service overhead
  (WAL appends, spool I/O, supervision) and the cold/warm ratio is the
  cache's honest speedup.
* **faults** — fresh spool, warm cache, plus one poison job (unknown
  benchmark) and an injected transient failure at ``service.dispatch``:
  measures what retry/backoff and the quarantine circuit breaker cost
  while the real jobs still drain.

Protocol notes for this repo's 1-CPU container: every round runs the
inline single-worker supervisor (process isolation would only add fork
overhead with nothing to parallelise), rounds run back to back in one
process so the warm round also benefits from a warm interpreter, and
the cold round is first so it can never borrow the warm cache.  The
cold and warm rounds must produce byte-identical scrubbed results —
the benchmark fails (exit 1) if they do not.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Any, Optional

from ..runtime.checkpoint import scrubbed_records
from .benchkit import Progress, best_of, ratio, say, write_report

#: Report schema tag.
SCHEMA = "repro-bench-service-v1"

#: What the three drains measure (recorded verbatim in the report).
PROTOCOL = (
    "three inline single-worker drains in one process on a "
    "single-CPU container; cold runs first (fresh cache), warm "
    "reuses the cold cache, the fault round injects one "
    "transient service.dispatch failure and one poison job "
    "(unknown benchmark) with max_attempts=2; cold-vs-warm "
    "scrubbed results must be byte-identical")

#: Quick per-job knobs: small fault sample and random-phase budgets so
#: one job is ~a second on the container, matching the chaos scenarios.
QUICK_JOB_KNOBS = {"fault_fraction": 0.3, "max_sequences": 4,
                   "saturation": 2, "sequence_length": 6,
                   "max_backtracks": 50}


def _round(root: Path, name: str, benchmarks: list[str], bits: int,
           faults: bool = False) -> tuple[dict[str, Any], str]:
    """One inline drain of the job set on a fresh spool over the shared
    cache: its report entry and its scrubbed results.  ``faults`` adds
    a poison job (unknown benchmark) and one transient
    ``service.dispatch`` failure, and quarantines after two attempts."""
    from contextlib import nullcontext

    from ..runtime.chaos import ChaosInjector, Injection
    from ..service import (JobRequest, RetryPolicy, Spool, Supervisor,
                           service_stats)
    from .cache import ResultCache

    spool = Spool(root / f"spool-{name}")
    job_ids = [spool.submit(JobRequest(benchmark=benchmark, flow="ours",
                                       bits=bits, **QUICK_JOB_KNOBS))[0]
               for benchmark in benchmarks]
    if faults:
        spool.submit(JobRequest(benchmark="bench-service-poison", bits=bits))
    supervisor = Supervisor(
        spool, retry=RetryPolicy(max_attempts=2 if faults else 3,
                                 backoff_base=0.0),
        cache=ResultCache(cache_dir=root / "cache"))
    with (ChaosInjector(Injection(seam="service.dispatch", action="raise",
                                  at_visit=1)) if faults else nullcontext()):
        elapsed, outcome = best_of(supervisor.run, 1)
    states = spool.states()
    records = [spool.read_result(jid) for jid in job_ids]
    return {
        "elapsed_seconds": round(elapsed, 4),
        "jobs_done": outcome.done,
        "retries": outcome.retried,
        "quarantined": outcome.quarantined,
        "throughput_done_per_second": ratio(outcome.done, elapsed, 4),
        "attempts": service_stats(spool)["attempts"],
        "all_real_jobs_done": all(
            states[jid].state == "done" for jid in job_ids),
    }, scrubbed_records([r for r in records if r is not None])


def run_bench_service(*, benchmarks: Optional[list[str]] = None,
                      bits: int = 4,
                      output: str = "BENCH_service.json",
                      workdir: Optional[str] = None,
                      progress: Progress = None) -> dict[str, Any]:
    """Run the three service rounds and write the report.

    Returns the report dict (also written to ``output`` atomically).
    """
    benchmarks = list(benchmarks or ["ex", "paulin", "tseng"])
    root = Path(workdir) if workdir else Path(tempfile.mkdtemp(
        prefix="repro-bench-service-"))
    root.mkdir(parents=True, exist_ok=True)

    say(progress, f"cold drain: {len(benchmarks)} jobs, empty cache ...")
    cold, cold_results = _round(root, "cold", benchmarks, bits)
    say(progress, "warm drain: same jobs, warm content-hash cache ...")
    warm, warm_results = _round(root, "warm", benchmarks, bits)
    say(progress, "fault drain: injected transient failure + poison job ...")
    fault, _ = _round(root, "faults", benchmarks, bits, faults=True)

    return write_report(output, SCHEMA, PROTOCOL, {
        "benchmarks": benchmarks,
        "bits": bits,
        "jobs": len(benchmarks),
        "workers": 1,
        "cold": cold,
        "warm": warm,
        "fault_round": fault,
        "warm_speedup": ratio(cold["elapsed_seconds"],
                              warm["elapsed_seconds"]),
        "results_identical": cold_results == warm_results,
    })


#: The ``bench-service`` result line, formatted over the report.
SUMMARY = ("{jobs} jobs, warm speedup {warm_speedup}x, fault round: "
           "{fault_round[retries]} retries, {fault_round[quarantined]} "
           "quarantined, results identical: {results_identical}")


def passed(report: dict[str, Any]) -> bool:
    """Cold and warm results must match and every real job must finish
    despite the injected faults."""
    return bool(report["results_identical"]
                and report["fault_round"]["all_real_jobs_done"])
