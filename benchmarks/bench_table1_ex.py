"""Table 1 — the area-optimised Ex benchmark (paper §5).

Regenerates, for each synthesis flow and bit width, the module and
register allocations, #Mux, fault coverage, test-generation time and
test-application cycles, and records paper-vs-measured rows.
"""

from __future__ import annotations

import pytest

from _support import (bench_bits, paper_comparison, record_row, record_text,
                      table_cell)
from repro.harness import FLOW_ORDER, render_table

_CELLS = []


@pytest.mark.parametrize("bits", bench_bits())
@pytest.mark.parametrize("flow", FLOW_ORDER)
def test_table1_cell(benchmark, flow, bits):
    cell = benchmark.pedantic(table_cell, args=("ex", flow, bits),
                              rounds=1, iterations=1)
    row = paper_comparison(cell)
    benchmark.extra_info.update(row)
    record_row("table1", row)
    _CELLS.append(cell)
    assert row["coverage_pct"] > 50.0
    assert row["area_mm2"] > 0.0


def test_table1_render(benchmark):
    """Assemble and persist the full Table 1 rendering."""
    if not _CELLS:
        pytest.skip("cells not collected in this run")
    text = benchmark.pedantic(lambda: render_table("ex", _CELLS, show_area=True), rounds=1, iterations=1)
    record_text("table1_ex.txt", text)
    print("\n" + text)
    assert "Ours" in text
