"""Experiment harness: table/figure regeneration for the paper's §5.

Grids run through :func:`~repro.harness.parallel.run_parallel_grid`
(process-pool sharding + checkpoint journal + content-hash cache);
:mod:`~repro.harness.cache` provides the cache and the one cell
evaluator, :func:`~repro.harness.cache.run_cell_cached`, shared with
the service, and
:mod:`~repro.harness.bench_tables` the end-to-end perf baseline.
"""

from .cache import (CacheStats, ResultCache, cell_key, run_cell_cached,
                    synthesis_key)
from .experiment import (CellResult, ExperimentConfig, FLOW_ORDER,
                         PAPER_PARAMS, run_cell, synthesize_flow,
                         synthesize_flow_result)
from .figures import render_lifetimes, render_schedule, render_sharing
from .parallel import (GridOutcome, SkippedCell, explore_grid,
                       run_parallel_grid)
from .report import load_rows, render_report, shape_checks, write_report
from .tables import format_allocation, render_summary, render_table

__all__ = [
    "FLOW_ORDER",
    "PAPER_PARAMS",
    "CacheStats",
    "CellResult",
    "ExperimentConfig",
    "GridOutcome",
    "ResultCache",
    "SkippedCell",
    "cell_key",
    "explore_grid",
    "format_allocation",
    "load_rows",
    "render_lifetimes",
    "render_schedule",
    "render_sharing",
    "render_summary",
    "render_report",
    "render_table",
    "run_cell",
    "run_cell_cached",
    "run_parallel_grid",
    "shape_checks",
    "synthesis_key",
    "synthesize_flow",
    "synthesize_flow_result",
    "write_report",
]
