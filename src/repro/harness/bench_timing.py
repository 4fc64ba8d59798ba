"""Perf baseline for incremental static timing analysis.

The :class:`~repro.analysis.timing.ConeCache` exists for one workload:
re-timing a netlist after a synthesis step.  Algorithm 1 changes one
module binding per iteration; re-expanding the design renumbers every
gate, but almost every cone is structurally unchanged — the cache,
keyed on hash-consed structural node ids, must turn that into real
wall-clock savings or it is dead weight.

Each cell measures exactly that transition on one benchmark: netlist A
is the unmerged default design, netlist B the design after **one**
merger (``SynthesisParams(max_iterations=1)``).  *Cold* times
``analyze_timing`` on B with a fresh cache; *warm* primes a cache on A
once, then times B starting from a clone of the primed state — the
measured work is the incremental delta (the cones the merger touched),
which is the cost a synthesis-loop caller actually pays.  Every repeat
re-clones the primed state, so warm repeats never degenerate into
hot whole-report hits; the minimum over repeats is recorded (the
honest protocol on a single-CPU container, where the first run eats
scheduler noise).  The cell also asserts the warm report equals the
cold one on every timing quantity (arrivals, slacks, levels, paths) —
cache-statistics fields (``cached``, ``cone_size``, ``pruned``,
hit/miss counters) legitimately differ, since ``cone_size`` counts
structures *evaluated*, and are scrubbed before comparison.
"""

from __future__ import annotations

from ..analysis.timing import ConeCache, TimingReport, analyze_timing
from ..bench import load
from ..etpn.from_dfg import default_design
from ..gates.expand import expand_to_gates
from ..rtl.generate import generate_rtl
from ..synth.algorithm import SynthesisParams, synthesize
from .benchkit import Progress, best_of, ratio, sweep, write_report

#: Report schema tag, bumped when the cell layout changes.
SCHEMA = "repro.bench_timing/v1"

#: One-line statement of the measurement discipline, recorded in the
#: report so the committed numbers explain themselves.
PROTOCOL = ("cold: fresh ConeCache per repeat on the post-merger "
            "netlist; warm: cache primed once on the pre-merger "
            "netlist, re-cloned per repeat; min over repeats; warm "
            "report must equal cold modulo cache-statistics fields")

#: Acceptance floor on the suite-total cold/warm ratio.
TARGET_SPEEDUP = 5.0


def scrub_cache_stats(report_dict: dict) -> dict:
    """A report dict with every cache-dependent field removed.

    What remains is pure timing truth — equality between the cold and
    warm variants proves the cache changes *cost*, never *answers*.
    """
    scrubbed = {k: v for k, v in report_dict.items()
                if k not in ("cone_hits", "cone_misses", "pruned_total")}
    scrubbed["endpoints"] = [
        {k: v for k, v in endpoint.items()
         if k not in ("cached", "cone_size", "pruned")}
        for endpoint in report_dict["endpoints"]]
    return scrubbed


def time_cell(benchmark: str, bits: int, repeats: int) -> dict:
    """One cell: cold vs incremental re-analysis after one merger."""
    dfg = load(benchmark)
    net_a = expand_to_gates(generate_rtl(default_design(dfg), bits))
    merged = synthesize(dfg, SynthesisParams(max_iterations=1))
    net_b = expand_to_gates(generate_rtl(merged.design, bits))

    primed = ConeCache()
    analyze_timing(net_a, bits=bits, cache=primed, k_paths=0)

    def run(cache: ConeCache) -> TimingReport:
        return analyze_timing(net_b, bits=bits, cache=cache, k_paths=0)

    cold_seconds, cold = best_of(run, repeats, setup=ConeCache)
    warm_seconds, warm = best_of(run, repeats, setup=primed.clone)
    cold_report, warm_report = cold.to_dict(), warm.to_dict()
    return {
        "benchmark": benchmark,
        "bits": bits,
        "mergers_applied": merged.iterations,
        "gates_pre": len(net_a.gates),
        "gates_post": len(net_b.gates),
        "endpoints": len(cold_report["endpoints"]),
        "cone_hits_warm": warm_report["cone_hits"],
        "cones_total": warm_report["cones_total"],
        "ok": cold_report["ok"],
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "speedup": ratio(cold_seconds, warm_seconds),
        "reports_match": scrub_cache_stats(cold_report)
        == scrub_cache_stats(warm_report),
    }


def run_bench_timing(bits: int = 8, repeats: int = 5,
                     output: str = "BENCH_timing.json",
                     progress: Progress = None) -> dict:
    """Time every benchmark's one-merger re-analysis and write the
    baseline file.  Returns the report dict (also written to ``output``
    atomically)."""
    cells = sweep([bits],
                  lambda benchmark, width: time_cell(benchmark, width,
                                                     repeats),
                  lambda cell: (f"cold {cell['cold_seconds'] * 1e3:.2f}ms vs "
                                f"warm {cell['warm_seconds'] * 1e3:.2f}ms "
                                f"(x{cell['speedup']}, "
                                f"{cell['cone_hits_warm']}/"
                                f"{cell['cones_total']} cones served whole)"),
                  progress)
    cold_total = sum(c["cold_seconds"] for c in cells)
    warm_total = sum(c["warm_seconds"] for c in cells)
    return write_report(output, SCHEMA, PROTOCOL, {
        "bits": bits,
        "repeats": repeats,
        "cells": cells,
        "cells_total": len(cells),
        "cold_seconds_total": round(cold_total, 6),
        "warm_seconds_total": round(warm_total, 6),
        "speedup_total": ratio(cold_total, warm_total),
        "target_speedup": TARGET_SPEEDUP,
        "meets_target": warm_total > 0.0
        and cold_total / warm_total >= TARGET_SPEEDUP,
        "reports_match": all(c["reports_match"] for c in cells),
        "timing_ok": all(c["ok"] for c in cells),
    })


#: The ``bench-timing`` result line, formatted over the report.
SUMMARY = ("{cells_total} cells, incremental speedup {speedup_total}x "
           "(target {target_speedup}x, met: {meets_target}), "
           "reports identical: {reports_match}")


def passed(report: dict) -> bool:
    """Warm reports must equal cold ones on every timing quantity."""
    return bool(report["reports_match"])
