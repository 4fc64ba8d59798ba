"""Table 2 — the area-optimised Dct benchmark (paper §5).

Same structure as Table 1 plus the Area column.
"""

from __future__ import annotations

import pytest

from _support import (bench_bits, paper_comparison, record_row, record_text,
                      table_cell)
from repro.harness import FLOW_ORDER, render_table

_CELLS = []


@pytest.mark.parametrize("bits", bench_bits())
@pytest.mark.parametrize("flow", FLOW_ORDER)
def test_table2_cell(benchmark, flow, bits):
    cell = benchmark.pedantic(table_cell, args=("dct", flow, bits),
                              rounds=1, iterations=1)
    row = paper_comparison(cell)
    benchmark.extra_info.update(row)
    record_row("table2", row)
    _CELLS.append(cell)
    assert row["coverage_pct"] > 50.0
    assert row["area_mm2"] > 0.0


def test_table2_render(benchmark):
    if not _CELLS:
        pytest.skip("cells not collected in this run")
    text = benchmark.pedantic(lambda: render_table("dct", _CELLS, show_area=True), rounds=1, iterations=1)
    record_text("table2_dct.txt", text)
    print("\n" + text)
    assert "CAMAD" in text
