"""Perf and effect baselines for the dataflow engine.

Each cell (benchmark × width) measures what the abstract-interpretation
tier buys and what it costs on one CPU:

* **analysis time** — wall time of one full fixpoint
  (:func:`~repro.analysis.dataflow.analyze_dataflow`).  The first
  in-process run is recorded as *cold* and the minimum over the
  remaining repeats as *warm*, per the repo's single-core timing
  protocol: one core means no co-runner noise, but the first run still
  pays allocator and bytecode warm-up that steady-state callers (the
  lint layer's memoised certificate, the experiment harness) never see.
* **certificate soundness** — :meth:`DataflowCertificate.check` under
  random concrete vectors, for the unconstrained certificate and the
  input-assumption one, in both design flows.
* **width narrowing** — the equivalence-gated area delta of
  :func:`~repro.cost.narrow_design` on the ``default`` and ``ours``
  design points.  Narrowing cells assume primary inputs occupy at most
  ``min(input_bits, bits)`` bits (recorded in the report): with inputs
  spanning the full word no high bit is provably dead, which is the
  honest answer but a vacuous benchmark.
* **fault pruning** — faults on the ``ours`` gate netlist that
  sequential ternary constant propagation
  (:func:`~repro.atpg.prune.constant_lines`) proves untestable, and
  the analysis time it took — the budget PODEM never has to spend.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.dataflow import DataflowCertificate, analyze_dataflow
from ..atpg.faults import full_fault_list
from ..atpg.prune import constant_lines, prune_untestable
from ..bench import load
from ..cost import CostModel, narrow_design
from ..etpn.from_dfg import default_design
from ..gates import expand_to_gates
from ..rtl import generate_rtl
from ..synth import run_ours
from .benchkit import Progress, best_of, sweep, write_report

#: Report schema tag, bumped when the cell layout changes.
SCHEMA = "repro.bench_dataflow/v1"

#: One-line statement of the measurement discipline.
PROTOCOL = ("analysis cold = the first in-process fixpoint, warm = min "
            "over it and the remaining repeats; certificates self-checked "
            "under random vectors; narrowing priced on the default and "
            "ours designs; pruning = faults on the ours netlist that "
            "sequential constant propagation proves untestable")

#: Design flows whose narrowing effect each cell records.
FLOWS = ("default", "ours")


def time_cell(benchmark: str, bits: int, repeats: int, vectors: int,
              input_bits: int) -> dict:
    """One cell: analysis timing, cert checks, narrowing, pruning."""
    dfg = load(benchmark)

    def run() -> DataflowCertificate:
        return analyze_dataflow(dfg, bits)

    cold, plain = best_of(run, 1)  # the first in-process run
    warm = min(cold, best_of(run, repeats - 1)[0]) if repeats > 1 else cold
    plain_problems = plain.check(dfg, vectors=vectors)

    hi = (1 << min(input_bits, bits)) - 1
    assumptions = {v.name: (0, hi) for v in dfg.inputs()}
    assumed = analyze_dataflow(dfg, bits, assumptions=assumptions)
    assumed_problems = assumed.check(dfg, vectors=vectors)

    designs = {"default": default_design(dfg),
               "ours": run_ours(dfg, cost_model=CostModel(bits=bits)).design}
    flows = {}
    for flow in FLOWS:
        report = narrow_design(designs[flow], bits, assumptions=assumptions,
                               cert=assumed)
        flows[flow] = {
            "cert_check_ok": not report.certificate.check(dfg,
                                                          vectors=vectors)
            if report.certificate is not None else False,
            **report.to_dict(),
        }

    netlist = expand_to_gates(generate_rtl(designs["ours"], bits))
    faults = full_fault_list(netlist)
    prune_seconds, constants = best_of(lambda: constant_lines(netlist), 1)
    _kept, pruned = prune_untestable(faults, constants)

    return {
        "benchmark": benchmark,
        "bits": bits,
        "ops": len(dfg.operations),
        "loop": bool(plain.feedback),
        "loop_iterations": plain.loop_iterations,
        "widened": plain.widened,
        "analysis_cold_seconds": round(cold, 6),
        "analysis_warm_seconds": round(warm, 6),
        "constant_ops": len(plain.constant_ops()),
        "known_bits": plain.known_bit_total(),
        "max_required_width": plain.max_required_width(),
        "check_vectors": vectors,
        "check_ok": not plain_problems and not assumed_problems,
        "check_problems": plain_problems + assumed_problems,
        "flows": flows,
        "prune": {
            "gates": len(netlist),
            "dffs": len(netlist.dffs()),
            "total_faults": len(faults),
            "pruned": len(pruned),
            "constant_lines": len(constants),
            "prune_seconds": round(prune_seconds, 6),
        },
    }


def run_bench_dataflow(bits: Optional[list[int]] = None, repeats: int = 3,
                       vectors: int = 64, input_bits: int = 8,
                       output: str = "BENCH_dataflow.json",
                       progress: Progress = None) -> dict:
    """Run every benchmark × width cell and write the baseline file.

    Returns the report dict (also written to ``output`` atomically).
    """
    def describe(cell: dict) -> str:
        deltas = ", ".join(
            f"{flow} {cell['flows'][flow]['area_delta_pct']:+.1f}%"
            for flow in FLOWS)
        return (f"analysis {cell['analysis_warm_seconds'] * 1e3:.2f}ms, "
                f"{cell['prune']['pruned']} faults pruned, area {deltas}")

    cells = sweep(bits if bits is not None else [4, 8, 16],
                  lambda benchmark, width: time_cell(
                      benchmark, width, repeats, vectors, input_bits),
                  describe, progress)
    with_pruned = {c["benchmark"] for c in cells
                   if c["prune"]["pruned"] > 0}
    with_delta = {c["benchmark"] for c in cells
                  if any(c["flows"][f]["applied"]
                         and c["flows"][f]["area_delta_mm2"] > 0
                         for f in FLOWS)}
    return write_report(output, SCHEMA, PROTOCOL, {
        "input_assumption": f"primary inputs occupy at most "
                            f"min({input_bits}, bits) bits in the "
                            f"narrowing cells",
        "repeats": repeats,
        "vectors": vectors,
        "cells": cells,
        "cells_total": len(cells),
        "all_certs_ok": all(
            c["check_ok"] and all(c["flows"][f]["cert_check_ok"]
                                  for f in FLOWS) for c in cells),
        "benchmarks_with_pruned": len(with_pruned),
        "benchmarks_with_area_delta": len(with_delta),
        "all_narrowing_equivalence_valid": all(
            c["flows"][f]["equivalence_valid"]
            for c in cells for f in FLOWS),
    })


#: The ``bench-dataflow`` result line, formatted over the report.
SUMMARY = ("{cells_total} cells, certs ok: {all_certs_ok}, benchmarks "
           "with pruned faults: {benchmarks_with_pruned}, with narrowing "
           "savings: {benchmarks_with_area_delta}")


def passed(report: dict) -> bool:
    """Every certificate must pass its self-check."""
    return bool(report["all_certs_ok"])
