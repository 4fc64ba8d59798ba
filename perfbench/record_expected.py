"""Regenerate ``expected.json``, the benchmark's recorded outputs.

Run from the repository root::

    python3 perfbench/record_expected.py

It computes every output a benchmark run can be asked to check,
directly through the library rather than through the workloads' timed
paths: each table cell (benchmark × flow at 4 bits) under every ATPG
seed of the pool — the service jobs are a subset of these — and each
``ours`` synthesis of the synth-ours grid.  A behaviour change in the
library shows up as a changed file; a pure speed-up leaves it
byte-identical.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as w  # noqa: E402


def main() -> int:
    from repro.bench import load
    from repro.cost import CostModel
    from repro.harness.cache import ResultCache
    from repro.harness.experiment import run_cell
    from repro.runtime.checkpoint import cell_record
    from repro.synth import run_flow

    cache = ResultCache()  # synthesis is shared across ATPG seeds
    cells = {}
    for benchmark in w.TABLE_BENCHMARKS:
        for flow in w.FLOWS:
            for atpg_seed in w.ATPG_SEEDS:
                cell = run_cell(benchmark, flow, w.cell_config(atpg_seed),
                                cache=cache)
                if cell.degraded:
                    raise SystemExit(f"{benchmark}/{flow}: degraded cell")
                cells[w.cell_key(benchmark, flow, atpg_seed)] = \
                    w.scrubbed_cell(cell_record(cell))
            print(f"cells: {benchmark}/{flow}", flush=True)
    designs = {}
    for benchmark in w.SYNTH_BENCHMARKS:
        dfg = load(benchmark)
        for bits in w.SYNTH_BITS:
            for k in w.SYNTH_KS:
                result = run_flow("ours", dfg,
                                  cost_model=CostModel(bits=bits),
                                  params=w.synth_params(bits, k))
                if result.degraded:
                    raise SystemExit(f"{benchmark}/{bits}/{k}: degraded")
                designs[w.design_key(benchmark, bits, k)] = \
                    w.design_summary(result, bits)
        print(f"designs: {benchmark}", flush=True)
    w.EXPECTED_PATH.write_text(json.dumps(
        {"cells": cells, "designs": designs}, indent=1, sort_keys=True)
        + "\n")
    print(f"wrote {w.EXPECTED_PATH.name}: {len(cells)} cells, "
          f"{len(designs)} designs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
