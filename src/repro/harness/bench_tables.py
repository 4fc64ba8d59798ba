"""End-to-end perf baseline for the parallel harness + result cache.

``repro-hlts bench-tables`` times the same table grid three ways and
writes ``BENCH_tables.json``:

A. **sequential cold** — ``workers=1``, no cache: the pre-PR-6
   baseline every speedup is measured against.
B. **parallel cold** — ``workers=N`` against a *fresh* cache
   directory: what process-pool sharding alone buys.  On a
   single-core container this is ≈ 1× (and slightly below 1× once
   pool/pickling overhead is paid) — the report records
   ``cpu_count`` so the number can be judged honestly.
C. **parallel warm** — ``workers=N`` against the cache run B just
   filled: the production steady state (re-rendering a table after a
   config tweak elsewhere, resuming a sweep, CI re-runs), where every
   cell is a content-hash lookup.

The headline ``speedup`` is A vs C — sequential-cold against the
full production configuration (sharding + warm cache); ``speedup_cold``
(A vs B) isolates parallelism and ``speedup_warm`` is an alias of the
headline.  Every run's rendered rows must be byte-identical modulo the
wall-clock column (:func:`~repro.runtime.checkpoint.scrubbed_records`),
and the report says so explicitly (``rows_identical``) — a speedup
that changes the numbers is a bug, not a win.

Every run goes through :func:`~repro.harness.parallel.run_parallel_grid`,
the same route the ``table1``-``table3`` commands take, so this bench
times the tables themselves, not a second way of producing them.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Optional

from ..runtime.checkpoint import cell_record, scrubbed_records
from .benchkit import Progress, ratio, say, write_report
from .cache import ResultCache
from .experiment import ExperimentConfig, FLOW_ORDER
from .parallel import run_parallel_grid

#: Report schema tag, bumped when the layout changes.
SCHEMA = "repro.bench_tables/v1"

#: What the three timed runs measure (recorded verbatim in the report).
PROTOCOL = (
    "A: workers=1, no cache (sequential-cold baseline); "
    "B: workers=N, fresh cache dir (parallel-cold: sharding alone); "
    "C: workers=N, warm cache from B (production steady state). "
    "speedup_cold = A/B, speedup_warm = A/C; the headline speedup is "
    "speedup_warm. All three runs must render byte-identical rows "
    "modulo the tg_seconds wall-clock column.")


def _timed_run(benchmark: str, grid: list[tuple[str, int]], workers: int,
               cache: Optional[ResultCache], label: str,
               progress: Progress) -> tuple[dict, list[dict]]:
    """One protocol run: its report entry + journal-shaped cell records."""
    say(progress, f"run {label}: workers={workers}, "
                  f"cache={'on' if cache is not None else 'off'} ...")
    outcome = run_parallel_grid(benchmark, grid, ExperimentConfig.quick,
                                workers=workers, cache=cache,
                                progress=progress)
    if outcome.skipped:
        lost = ", ".join(f"{s.flow}/{s.bits}" for s in outcome.skipped)
        raise RuntimeError(f"bench-tables run {label} lost cells: {lost}")
    records = [cell_record(cell) for cell in outcome.cells]
    run = {
        "label": label,
        "workers": outcome.workers,
        "seconds": round(outcome.elapsed_seconds, 3),
        "cells": len(outcome.cells),
        "cache": outcome.cache_stats.to_dict(),
        "cache_hit_rate": round(outcome.cache_stats.hit_rate(), 4),
    }
    say(progress, f"run {label}: {run['seconds']}s, "
                  f"hit rate {run['cache_hit_rate']}")
    return run, records


def run_bench_tables(benchmark: str = "ex",
                     bits: Optional[list[int]] = None,
                     workers: int = 4,
                     output: str = "BENCH_tables.json",
                     cache_dir: Optional[str] = None,
                     progress: Progress = None) -> dict:
    """Time the three-run protocol and write the baseline file.

    ``cache_dir`` defaults to a throwaway temp directory (deleted
    afterwards); pass a path to keep the warm cache for later runs.
    Returns the report dict (also written to ``output`` atomically).
    """
    widths = bits if bits is not None else [4, 8, 16]
    grid = [(flow, width) for flow in FLOW_ORDER for width in widths]
    workers = max(2, workers)

    owned_dir = cache_dir is None
    cache_path = Path(cache_dir) if cache_dir else Path(
        tempfile.mkdtemp(prefix="repro-bench-tables-"))
    try:
        sequential, rows_a = _timed_run(
            benchmark, grid, 1, None, "sequential-cold", progress)
        parallel_cold, rows_b = _timed_run(
            benchmark, grid, workers, ResultCache(cache_dir=cache_path),
            "parallel-cold", progress)
        parallel_warm, rows_c = _timed_run(
            benchmark, grid, workers, ResultCache(cache_dir=cache_path),
            "parallel-warm", progress)
    finally:
        if owned_dir:
            shutil.rmtree(cache_path, ignore_errors=True)

    scrubbed = scrubbed_records(rows_a)
    rows_identical = (scrubbed == scrubbed_records(rows_b)
                      == scrubbed_records(rows_c))
    return write_report(output, SCHEMA, PROTOCOL, {
        "benchmark": benchmark,
        "bits": widths,
        "runs": [sequential, parallel_cold, parallel_warm],
        "cells": [record["row"] for record in rows_a],
        "rows_identical": rows_identical,
        "speedup_cold": ratio(sequential["seconds"],
                              parallel_cold["seconds"]),
        "speedup_warm": ratio(sequential["seconds"],
                              parallel_warm["seconds"]),
        "speedup": ratio(sequential["seconds"], parallel_warm["seconds"]),
        "warm_hit_rate": parallel_warm["cache_hit_rate"],
    })


#: The ``bench-tables`` result line, formatted over the report.
SUMMARY = ("speedup {speedup}x (parallel-cold {speedup_cold}x, warm hit "
           "rate {warm_hit_rate}), rows identical: {rows_identical}")


def passed(report: dict) -> bool:
    """All three runs must render identical rows."""
    return bool(report["rows_identical"])
