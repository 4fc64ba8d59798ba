"""Perf baselines for the two-tier analysis: BFS vs structural.

The structural tier exists because reachability enumeration explodes on
*concurrent* control parts, while invariant computation stays
polynomial.  The benchmark suite's own control nets are chains (one
place per control step), whose state spaces are trivially small — a
chain is the one shape where BFS cannot lose.  So each timing cell
measures the two engines on the benchmark's **fork-join stress net**:
the ``ours``-flow schedule replicated into :func:`pick_branches`
parallel branches between one fork and one join.  That is exactly the
shape the
ETPN model permits (and the shape an exhausted budget abandons first):
the state space is ``O(L^B)`` markings for ``B`` branches of length
``L``, while the structural certificate grows only with places ×
transitions.

Each cell records the min-over-repeats wall time of a full
:class:`~repro.analysis.reach_graph.ReachabilityGraph` build against a
full :func:`~repro.analysis.structural.structural_certificate`
computation, plus the marking/edge counts (via the graph's own
counters) and a verdict-agreement check between the tiers.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.reach_graph import ReachabilityGraph
from ..analysis.structural import Verdict, structural_certificate
from ..analysis.tiers import stuck_markings
from ..petri.net import PetriNet
from .benchkit import Progress, best_of, ratio, sweep, write_report
from .experiment import synthesize_flow

#: Widest fork considered for a stress net.
MAX_BRANCHES = 6

#: Target ceiling on the stress net's state space (``L^B`` markings):
#: big enough that BFS cost dominates Python overheads, small enough
#: that the whole 18-cell sweep stays interactive.
MAX_STRESS_MARKINGS = 20_000

#: Report schema tag, bumped when the cell layout changes.
SCHEMA = "repro.bench_analysis/v1"

#: One-line statement of the measurement discipline.
PROTOCOL = ("min over repeats of a full ReachabilityGraph build vs a full "
            "structural_certificate on each benchmark's fork-join stress "
            "net (the ours-flow schedule replicated into parallel "
            "branches); the two tiers' verdicts must agree")


def pick_branches(length: int) -> int:
    """Widest fork (>= 2) keeping ``length ** branches`` under the cap.

    Short schedules get wide forks, long ones narrow forks, so every
    cell lands in a comparable (and tractable) state-space regime.
    """
    branches = 2
    while branches < MAX_BRANCHES and \
            length ** (branches + 1) <= MAX_STRESS_MARKINGS:
        branches += 1
    return branches


def stress_net(name: str, length: int,
               branches: Optional[int] = None) -> PetriNet:
    """Fork-join net: ``branches`` parallel chains of ``length`` places.

    The concurrency-stressed twin of a ``length``-step schedule: one
    fork transition marks the first place of every branch, one join
    consumes the last place of every branch into the final place.
    """
    if branches is None:
        branches = pick_branches(length)
    net = PetriNet(f"{name}-fork{branches}")
    net.add_place("S0")
    net.add_place("Pfinal", delay=0)
    for branch in range(branches):
        for i in range(length):
            net.add_place(f"B{branch}_{i}")
    net.add_transition("fork", ["S0"],
                       [f"B{b}_0" for b in range(branches)])
    for branch in range(branches):
        for i in range(length - 1):
            net.add_transition(f"t{branch}_{i}", [f"B{branch}_{i}"],
                               [f"B{branch}_{i + 1}"])
    net.add_transition("join",
                       [f"B{b}_{length - 1}" for b in range(branches)],
                       ["Pfinal"])
    net.set_initial("S0")
    net.set_final("Pfinal")
    net.validate()
    return net


def time_cell(benchmark: str, bits: int, repeats: int) -> dict:
    """One timing cell: BFS vs structural on the stress net."""
    design = synthesize_flow(benchmark, "ours", bits)
    length = max(1, len(design.control_net.places) - 1)
    net = stress_net(benchmark, length)

    bfs_seconds, graph = best_of(lambda: ReachabilityGraph(net), repeats)
    structural_seconds, cert = best_of(lambda: structural_certificate(net),
                                       repeats)

    enum_safe = graph.is_safe()
    enum_live = not stuck_markings(net, graph)
    return {
        "benchmark": benchmark,
        "bits": bits,
        "flow": "ours",
        "net": net.name,
        "branches": pick_branches(length),
        "schedule_steps": length,
        "places": len(net.places),
        "transitions": len(net.transitions),
        "markings": graph.marking_count,
        "edges": graph.edge_count,
        "bfs_seconds": round(bfs_seconds, 6),
        "structural_seconds": round(structural_seconds, 6),
        "speedup": ratio(bfs_seconds, structural_seconds),
        "structural_faster": structural_seconds < bfs_seconds,
        "safe_agrees": (cert.safe is Verdict.PROVED) == enum_safe
        if cert.safe.decided else True,
        "deadlock_agrees": (cert.deadlock_free is Verdict.PROVED)
        == enum_live if cert.deadlock_free.decided else True,
    }


def run_bench_analysis(bits: Optional[list[int]] = None, repeats: int = 3,
                       output: str = "BENCH_analysis.json",
                       progress: Progress = None) -> dict:
    """Time every benchmark × width cell and write the baseline file.

    Returns the report dict (also written to ``output`` atomically).
    """
    cells = sweep(bits if bits is not None else [4, 8],
                  lambda benchmark, width: time_cell(benchmark, width,
                                                     repeats),
                  lambda cell: (f"{cell['markings']} markings, "
                                f"bfs {cell['bfs_seconds'] * 1e3:.2f}ms vs "
                                f"structural "
                                f"{cell['structural_seconds'] * 1e3:.2f}ms"),
                  progress)
    return write_report(output, SCHEMA, PROTOCOL, {
        "branch_policy": f"widest fork in [2, {MAX_BRANCHES}] with "
                         f"steps**branches <= {MAX_STRESS_MARKINGS}",
        "repeats": repeats,
        "cells": cells,
        "cells_total": len(cells),
        "structural_faster": sum(c["structural_faster"] for c in cells),
        "verdicts_agree": all(c["safe_agrees"] and c["deadlock_agrees"]
                              for c in cells),
    })


#: The ``bench-analysis`` result line, formatted over the report.
SUMMARY = ("{cells_total} cells, structural faster on "
           "{structural_faster}/{cells_total}")


def passed(report: dict) -> bool:
    """Structural must beat BFS on every cell."""
    return bool(report["structural_faster"] == report["cells_total"])
