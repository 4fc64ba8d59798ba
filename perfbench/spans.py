"""Spans and counters recorded from outside the program.

The benchmark never edits ``src/``.  Instead, for a traced run it
replaces each target function at every name a caller binds it under —
the defining module, every module that bound it with ``from … import``
(which copies the reference at import time), and the class attribute
for methods — with a wrapper that records a span while the tracer is
enabled.  Spans carry their parent's id, so a function's self time is
its busy time minus exactly the child spans it contains.

Counters come from arguments and returned values (PODEM outcomes and
effort, cache hits, WAL lines parsed) and from two hot methods and
``os.fsync``, which only count calls.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Optional

#: Span targets: metric prefix -> (defining module, attribute path).
#: The prefix is ``<layer>.<function>`` with the layer named after the
#: ``src/repro/<module>`` package that owns the function.
SPAN_TARGETS: dict[str, tuple[str, str]] = {
    # synth, testability, sched, cost, petri, dfg
    "synth.run_flow": ("repro.synth.baselines", "run_flow"),
    "synth.rank_candidates": ("repro.synth.candidates", "rank_candidates"),
    "synth.try_merge": ("repro.synth.merger", "try_merge"),
    "testability.analyze": ("repro.testability.analysis", "analyze"),
    "sched.reschedule": ("repro.sched.resched", "reschedule"),
    "cost.CostModel.delta": ("repro.cost.estimate", "CostModel.delta"),
    "cost.floorplan": ("repro.cost.floorplan", "floorplan"),
    "petri.execution_time": ("repro.petri.critical_path", "execution_time"),
    "dfg.variable_lifetimes": ("repro.dfg.lifetime", "variable_lifetimes"),
    # rtl, gates
    "rtl.generate_rtl": ("repro.rtl.generate", "generate_rtl"),
    "rtl.build_control_table": ("repro.rtl.controller",
                                "build_control_table"),
    "gates.expand_with_controller": ("repro.gates.expand",
                                     "expand_with_controller"),
    # atpg
    "atpg.run_atpg": ("repro.atpg.engine", "run_atpg"),
    "atpg.constant_lines": ("repro.atpg.prune", "constant_lines"),
    "atpg.prune_untestable": ("repro.atpg.prune", "prune_untestable"),
    "atpg.random_phase": ("repro.atpg.random_tpg", "random_phase"),
    "atpg.unroll": ("repro.atpg.unroll", "unroll"),
    "atpg.PodemEngine.generate": ("repro.atpg.podem", "PodemEngine.generate"),
    "atpg.FaultSimulator.run_sequence": ("repro.atpg.fault_sim",
                                         "FaultSimulator.run_sequence"),
    # harness, service, runtime
    "harness.run_cell": ("repro.harness.experiment", "run_cell"),
    "harness.ResultCache.get_cell": ("repro.harness.cache",
                                     "ResultCache.get_cell"),
    "harness.ResultCache.put_cell": ("repro.harness.cache",
                                     "ResultCache.put_cell"),
    "harness.ResultCache.get_synthesis": ("repro.harness.cache",
                                          "ResultCache.get_synthesis"),
    "harness.ResultCache.put_synthesis": ("repro.harness.cache",
                                          "ResultCache.put_synthesis"),
    "service.Spool.submit": ("repro.service.spool", "Spool.submit"),
    "service.Spool.write_result": ("repro.service.spool",
                                   "Spool.write_result"),
    "service.Spool.read_result": ("repro.service.spool", "Spool.read_result"),
    "service.Supervisor.run": ("repro.service.supervisor", "Supervisor.run"),
    "service.Ledger.append": ("repro.service.ledger", "Ledger.append"),
    "service.fold_transitions": ("repro.service.ledger", "fold_transitions"),
    "runtime.Journal.records": ("repro.runtime.checkpoint",
                                "Journal.records"),
    "runtime.atomic_write_text": ("repro.runtime.atomic",
                                  "atomic_write_text"),
}

#: Call-count-only targets: hot DFG queries a span would slow down.
COUNT_TARGETS: dict[str, tuple[str, str]] = {
    "dfg.DFG.uses_of.calls": ("repro.dfg.graph", "DFG.uses_of"),
    "dfg.DFG.defs_of.calls": ("repro.dfg.graph", "DFG.defs_of"),
}

#: Counters derived from returned values, per span target.
Hook = Callable[["Tracer", tuple, dict, Any], None]


def _after_run_flow(tracer: "Tracer", args: tuple, kwargs: dict,
                    result: Any) -> None:
    tracer.counts["synth.mergers_applied"] += len(result.history)


def _after_try_merge(tracer: "Tracer", args: tuple, kwargs: dict,
                     result: Any) -> None:
    tracer.counts["synth.try_merge.feasible"] += result is not None


def _after_reschedule(tracer: "Tracer", args: tuple, kwargs: dict,
                      result: Any) -> None:
    tracer.counts["sched.reschedule.feasible"] += result is not None


def _after_expand(tracer: "Tracer", args: tuple, kwargs: dict,
                  netlist: Any) -> None:
    tracer.counts["gates.gates"] += len(netlist)
    tracer.counts["gates.dffs"] += len(netlist.dffs())


def _after_run_atpg(tracer: "Tracer", args: tuple, kwargs: dict,
                    result: Any) -> None:
    tracer.pending_podem_fault = None
    tracer.groups_seen.clear()


def _after_generate(tracer: "Tracer", args: tuple, kwargs: dict,
                    result: Any) -> None:
    counts = tracer.counts
    if result.success:
        counts["atpg.podem.success"] += 1
        tracer.pending_podem_fault = args[1]
    else:
        counts["atpg.podem.aborted" if result.aborted
               else "atpg.podem.untestable"] += 1
        tracer.pending_podem_fault = None
    counts["atpg.podem.implications"] += result.stats.implications
    counts["atpg.podem.backtracks"] += result.stats.backtracks
    counts["atpg.podem.decisions"] += result.stats.decisions


def _after_run_sequence(tracer: "Tracer", args: tuple, kwargs: dict,
                        caught: Any) -> None:
    # The deterministic phase confirms each PODEM success by simulating
    # the generated sequence against ``[fault] + alive``; a confirmation
    # that misses its own target is a divergence between the PODEM model
    # and the fault simulator.
    simulator = args[0]
    _, seen = tracer.groups_seen.get(id(simulator), (simulator, 0))
    groups = simulator.stats.groups_simulated
    tracer.counts["atpg.faultsim.groups"] += groups - seen
    tracer.groups_seen[id(simulator)] = (simulator, groups)
    faults = args[2] if len(args) > 2 else kwargs.get("faults", ())
    fault = tracer.pending_podem_fault
    if fault is not None and faults and faults[0] == fault:
        tracer.counts["atpg.divergent"] += fault not in caught
    tracer.pending_podem_fault = None


def _after_get(tracer: "Tracer", args: tuple, kwargs: dict,
               result: Any) -> None:
    tracer.counts["harness.cache.misses" if result is None
                  else "harness.cache.hits"] += 1


def _after_records(tracer: "Tracer", args: tuple, kwargs: dict,
                   result: Any) -> None:
    tracer.counts["runtime.Journal.records.lines"] += len(result)


HOOKS: dict[str, Hook] = {
    "synth.run_flow": _after_run_flow,
    "synth.try_merge": _after_try_merge,
    "sched.reschedule": _after_reschedule,
    "gates.expand_with_controller": _after_expand,
    "atpg.run_atpg": _after_run_atpg,
    "atpg.PodemEngine.generate": _after_generate,
    "atpg.FaultSimulator.run_sequence": _after_run_sequence,
    "harness.ResultCache.get_cell": _after_get,
    "harness.ResultCache.get_synthesis": _after_get,
    "runtime.Journal.records": _after_records,
}

_LEDGER_APPEND = "service.Ledger.append"


class Tracer:
    """In-memory span and counter recorder with install/uninstall."""

    def __init__(self) -> None:
        self.enabled = False
        #: span id -> (parent id or -1, name, start, end)
        self.spans: list[Optional[tuple[int, str, float, float]]] = []
        self.counts: Counter[str] = Counter()
        self.pending_podem_fault: Any = None
        #: Simulator -> groups_simulated already counted (one ATPG run).
        self.groups_seen: dict[int, tuple[Any, int]] = {}
        self._stack: list[int] = []
        self._names: list[str] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _span(self, name: str, fn: Callable, hook: Optional[Hook]
              ) -> Callable:
        spans = self.spans
        stack = self._stack
        names = self._names
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            names.append(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                names.pop()
                spans[sid] = (parent, name, start, end)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer.enabled:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _fsync(self, fn: Callable) -> Callable:
        tracer = self
        names = self._names

        def wrapper(fd: int) -> None:
            if tracer.enabled:
                tracer.counts["runtime.fsyncs"] += 1
                if _LEDGER_APPEND in names:
                    tracer.counts["service.Ledger.append.fsyncs"] += 1
            fn(fd)

        return wrapper

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target at every binding site (idempotent)."""
        if self._patches:
            return
        for name, (module, attr) in SPAN_TARGETS.items():
            self._patch(module, attr, lambda fn, n=name: self._span(
                n, fn, HOOKS.get(n)))
        for name, (module, attr) in COUNT_TARGETS.items():
            self._patch(module, attr,
                        lambda fn, n=name: self._counter(n, fn))
        self._patches.append((os, "fsync", os.fsync))
        os.fsync = self._fsync(os.fsync)

    def _patch(self, module: str, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        """Replace ``module.attr`` everywhere a caller can reach it.

        A method is replaced on its class.  A function is replaced in
        every loaded ``repro`` module that holds a reference to it —
        its own module and each ``from … import`` copy.
        """
        owner: Any = importlib.import_module(module)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, make(original))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for mod_name, mod in sorted(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        """Restore every patched binding."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """``<target>.calls``, ``.s`` (busy) and ``.self_s`` per target.

        Busy time counts only outermost spans of a name, so recursion
        is not double counted; self time subtracts every child span.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        out: dict[str, float] = {}
        for name in SPAN_TARGETS:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for span in spans:
            if span is None:
                continue
            parent, _, start, end = span
            if parent >= 0:
                child_time[parent] += end - start
        for sid, span in enumerate(spans):
            if span is None:
                continue
            parent, name, start, end = span
            duration = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += duration - child_time[sid]
            ancestor = parent
            while ancestor >= 0:
                above = spans[ancestor]
                if above is not None and above[1] == name:
                    break
                ancestor = above[0] if above is not None else -1
            else:
                out[f"{name}.s"] += duration
        return out

