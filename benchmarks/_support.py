"""Shared helpers for the benchmark harness.

Every table bench produces the same row structure as the paper and
appends it to ``benchmarks/out/rows.jsonl`` so EXPERIMENTS.md can be
regenerated from a single ``pytest benchmarks/ --benchmark-only`` run.

Environment knobs:

* ``REPRO_BENCH_BITS`` — comma-separated bit widths (default "4,8,16").
* ``REPRO_BENCH_FULL`` — set to 1 for unsampled fault universes
  (slow; the default budgets are the quick profile from
  :meth:`repro.harness.ExperimentConfig.quick`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.harness import ExperimentConfig, run_parallel_grid
from repro.runtime import JournaledCell

OUT_DIR = Path(__file__).parent / "out"

#: The paper's reported numbers, for paper-vs-measured rows in
#: EXPERIMENTS.md.  (coverage %, TG time s, TG cycles, area mm² or None).
PAPER_ROWS = {
    ("ex", "camad", 4): (81.27, 27, 1081, None),
    ("ex", "camad", 8): (89.89, 81, 912, None),
    ("ex", "camad", 16): (93.74, 279, 691, None),
    ("ex", "approach1", 4): (86.41, 24, 707, None),
    ("ex", "approach1", 8): (90.87, 74, 943, None),
    ("ex", "approach1", 16): (92.58, 191, 1070, None),
    ("ex", "approach2", 4): (88.19, 11, 824, None),
    ("ex", "approach2", 8): (92.49, 37, 1654, None),
    ("ex", "approach2", 16): (93.91, 115, 1054, None),
    ("ex", "ours", 4): (90.66, 13, 366, None),
    ("ex", "ours", 8): (94.48, 43, 1383, None),
    ("ex", "ours", 16): (96.11, 112, 1122, None),
    ("dct", "camad", 4): (70.44, 49, 846, 0.607),
    ("dct", "camad", 8): (81.60, 121, 841, 1.488),
    ("dct", "camad", 16): (85.00, 785, 604, 3.320),
    ("dct", "approach1", 4): (88.96, 32, 552, 0.592),
    ("dct", "approach1", 8): (95.15, 52, 2902, 1.388),
    ("dct", "approach1", 16): (94.73, 286, 10283, 2.634),
    ("dct", "approach2", 4): (91.73, 16, 602, 0.575),
    ("dct", "approach2", 8): (93.36, 110, 1088, 1.363),
    ("dct", "approach2", 16): (96.11, 177, 8149, 2.584),
    ("dct", "ours", 4): (93.13, 16, 802, 0.571),
    ("dct", "ours", 8): (96.01, 47, 2278, 1.336),
    ("dct", "ours", 16): (96.99, 118, 6753, 2.531),
    ("diffeq", "camad", 4): (72.40, 143, 304, 0.573),
    ("diffeq", "camad", 8): (87.15, 311, 2321, 1.366),
    ("diffeq", "camad", 16): (88.40, 2091, 1827, 3.064),
    ("diffeq", "approach1", 4): (90.51, 9, 350, 0.559),
    ("diffeq", "approach1", 8): (92.79, 49, 959, 1.161),
    ("diffeq", "approach1", 16): (94.11, 162, 676, 2.124),
    ("diffeq", "approach2", 4): (91.11, 15, 504, 0.521),
    ("diffeq", "approach2", 8): (95.56, 55, 920, 1.112),
    ("diffeq", "approach2", 16): (94.64, 164, 1546, 2.150),
    ("diffeq", "ours", 4): (95.28, 11, 510, 0.470),
    ("diffeq", "ours", 8): (97.31, 46, 982, 1.054),
    ("diffeq", "ours", 16): (99.79, 141, 1663, 2.045),
}


def bench_bits() -> list[int]:
    """Bit widths selected via REPRO_BENCH_BITS (default 4,8,16)."""
    raw = os.environ.get("REPRO_BENCH_BITS", "4,8,16")
    return [int(b) for b in raw.split(",") if b.strip()]


def cell_config(bits: int) -> ExperimentConfig:
    """Quick or full experiment budgets, per REPRO_BENCH_FULL."""
    if os.environ.get("REPRO_BENCH_FULL"):
        return ExperimentConfig(bits=bits)
    return ExperimentConfig.quick(bits)


def record_row(kind: str, payload: dict) -> None:
    """Append one result row to the shared JSONL output."""
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "rows.jsonl", "a") as handle:
        handle.write(json.dumps({"kind": kind, **payload}) + "\n")


def record_text(name: str, text: str) -> None:
    """Write a rendered artefact (table/figure) to benchmarks/out/."""
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(text + "\n")


def table_cell(benchmark: str, flow: str, bits: int) -> JournaledCell:
    """Run one table cell with the configured budgets.

    Goes through the inline grid, the same path as ``repro-hlts
    table1``, so the cell is the journal record a table renders from.
    """
    outcome = run_parallel_grid(benchmark, [(flow, bits)], cell_config,
                                workers=1)
    if not outcome.ok():
        raise RuntimeError(f"{benchmark}/{flow}/{bits}-bit lost: "
                           f"{outcome.skipped[0].reason}")
    return outcome.cells[0]


def paper_comparison(cell: JournaledCell) -> dict:
    """Merge measured numbers with the paper's reported row."""
    key = (cell.benchmark, cell.flow, cell.bits)
    paper = PAPER_ROWS.get(key)
    row = cell.row()
    if paper:
        coverage, tg_time, cycles, area = paper
        row["paper_coverage_pct"] = coverage
        row["paper_tg_seconds"] = tg_time
        row["paper_test_cycles"] = cycles
        if area is not None:
            row["paper_area_mm2"] = area
    return row
