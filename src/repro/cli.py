"""Command-line interface: regenerate the paper's tables and figures.

Examples::

    repro-hlts table1                 # Table 1 (Ex), quick budgets
    repro-hlts table2 --bits 4        # Table 2 (Dct), 4-bit column only
    repro-hlts fig2                   # Figure 2 (Ex schedule)
    repro-hlts synth diffeq -k 3 -a 2 -b 1
    repro-hlts bench ex --flow ours --bits 8
    repro-hlts lint                   # design-rule check every benchmark
    repro-hlts lint diffeq my.hdl --strict --format json
    repro-hlts analyze                # MHP races + equivalence certificates
    repro-hlts analyze ewf --flow default --format json
    repro-hlts analyze --structural   # invariant certificates only, no BFS
    repro-hlts analyze --cross-check  # assert both tiers agree
    repro-hlts dataflow diffeq --bits 8 --narrow
    repro-hlts timing                 # STA every benchmark, default period
    repro-hlts timing tseng --flow ours --period 150 -v
    repro-hlts bench-dataflow         # write BENCH_dataflow.json
    repro-hlts bench-timing           # write BENCH_timing.json
    repro-hlts bench-analysis         # time structural vs enumerative
    repro-hlts table1 --workers 4 --cache-dir .repro-cache
    repro-hlts bench-tables           # write BENCH_tables.json
    repro-hlts serve submit ex --bits 8
    repro-hlts serve run              # drain the queue, then exit
    repro-hlts serve status           # the WAL-replayed job table
    repro-hlts serve result <job-id-prefix>
    repro-hlts serve --stats          # WAL-derived service metrics
    repro-hlts bench-service          # write BENCH_service.json
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from functools import partial
from importlib import import_module
from typing import Any, Callable, Iterator

from .bench import load, names
from .cost import CostModel
from .errors import ReproError
from .harness import (ExperimentConfig, FLOW_ORDER, render_schedule,
                      render_sharing, render_summary, render_table,
                      synthesize_flow)
from .synth import SynthesisParams, run_ours

#: A subcommand handler: parsed arguments in, exit status out.
Handler = Callable[[argparse.Namespace], int]


class CommandError(Exception):
    """A handled command failure: ``error: <message>`` on stderr and
    exit status ``code``, without a traceback."""

    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _stderr(message: str) -> None:
    """Progress callback of every long-running command."""
    print(message, file=sys.stderr)


def _add_bits(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bits", type=int, nargs="+", default=[4, 8, 16],
                        help="data-path bit widths (default: 4 8 16)")


def _add_journal(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--journal", metavar="PATH", default=None,
                        help="checkpoint completed cells to this JSONL "
                             "journal (atomic commits)")
    parser.add_argument("--resume", action="store_true",
                        help="replay cells already in --journal instead "
                             "of recomputing them")


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (a usage error, exit 2, otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_parallel(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=_positive_int, default=None,
                        metavar="N",
                        help="worker processes for grid cells "
                             "(default: the CPU count; 1 = run inline)")
    parser.add_argument("--cache-dir", metavar="PATH", default=None,
                        help="content-hash result cache directory; "
                             "repeated cells (and bit-width-independent "
                             "baseline synthesis) become lookups")


def _add_targets(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("targets", nargs="*", metavar="TARGET",
                        help="benchmark names or HDL source files "
                             "(default: every registered benchmark)")


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["text", "json"],
                        default="text", dest="fmt",
                        help="output format (default: text)")


def _make_cache(args):
    """The ResultCache behind ``--cache-dir`` (None when not asked for)."""
    if not getattr(args, "cache_dir", None):
        return None
    from .harness.cache import ResultCache
    from pathlib import Path
    return ResultCache(cache_dir=Path(args.cache_dir))


def _run_grid(args, benchmark: str, grid: list[tuple[str, int]],
              budget: Any = None):
    """Run a table grid with the command's journal, cache and workers."""
    from .harness.parallel import run_parallel_grid
    from .runtime import Journal
    return run_parallel_grid(
        benchmark, grid, ExperimentConfig.quick, workers=args.workers,
        journal=Journal(args.journal) if args.journal else None,
        resume=args.resume, cache=_make_cache(args), budget=budget,
        progress=_stderr)


def _report_skips(outcome) -> int:
    """Print skipped-cell notes; exit 1 for an explicitly partial grid."""
    for skip in outcome.skipped:
        print(f"note: lost {skip.flow}/{skip.bits}-bit: {skip.reason}",
              file=sys.stderr)
    return 0 if outcome.ok() else 1


def _table_args(p: argparse.ArgumentParser) -> None:
    _add_bits(p)
    _add_journal(p)
    _add_parallel(p)


def _table_command(args, benchmark: str) -> int:
    outcome = _run_grid(args, benchmark, [(flow, bits) for flow in FLOW_ORDER
                                          for bits in args.bits])
    print(render_table(benchmark, outcome.cells, show_area=True))
    return _report_skips(outcome)


def _bench_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("benchmark", choices=names())
    p.add_argument("--flow", choices=FLOW_ORDER, default="ours")
    p.add_argument("--bits", type=int, default=8)
    p.add_argument("--wall-seconds", type=float, default=None,
                   help="wall-clock budget for the cell; on exhaustion the "
                        "cell completes with a degraded partial result")
    _add_journal(p)
    _add_parallel(p)


def _bench_command(args) -> int:
    from .runtime import Budget
    budget = (Budget(wall_seconds=args.wall_seconds)
              if args.wall_seconds is not None else None)
    outcome = _run_grid(args, args.benchmark, [(args.flow, args.bits)],
                        budget)
    print(render_summary(outcome.cells))
    for cell in outcome.cells:
        for reason in getattr(cell, "degradation", ()):
            print(f"note: {cell.flow}/{cell.bits}-bit degraded: {reason}",
                  file=sys.stderr)
    return _report_skips(outcome)


def _print_design(design) -> None:
    print(render_schedule(design))
    print()
    print(render_sharing(design))
    print()


def _figure_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--figure-bits", type=int, default=8)


def _figure_command(args, benchmarks: list[str]) -> int:
    for benchmark in benchmarks:
        _print_design(synthesize_flow(benchmark, "ours", args.figure_bits))
    return 0


def _synth_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("benchmark", choices=names())
    p.add_argument("-k", type=int, default=3)
    p.add_argument("-a", "--alpha", type=float, default=2.0)
    p.add_argument("-b", "--beta", type=float, default=1.0)
    p.add_argument("--bits", type=int, default=8)


def _synth_command(args) -> int:
    result = run_ours(load(args.benchmark),
                      SynthesisParams(k=args.k, alpha=args.alpha,
                                      beta=args.beta),
                      CostModel(bits=args.bits))
    _print_design(result.design)
    print(f"mergers applied: {result.iterations}")
    for record in result.history:
        print(f"  #{record.iteration}: {record.kind} "
              f"{record.absorbed} -> {record.kept} "
              f"(dE={record.delta_e:+.0f}, dH={record.delta_h:+.4f})")
    return 0


def _explore_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("benchmark", choices=names())
    p.add_argument("--bits", type=int, default=8)
    _add_parallel(p)


def _explore_command(args) -> int:
    from .harness.parallel import explore_grid
    from .synth import pareto_front, render_front
    points = explore_grid(args.benchmark, args.bits, workers=args.workers,
                          cache=_make_cache(args), progress=_stderr)
    print("all distinct designs:")
    print(render_front(points))
    print()
    print("Pareto front (E, H, testability):")
    print(render_front(pareto_front(points)))
    return 0


def _export_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("benchmark", choices=names())
    p.add_argument("--what", choices=["verilog", "dot", "json"],
                   default="verilog")
    p.add_argument("--bits", type=int, default=8)


def _export_command(args) -> int:
    design = _flow_design(load(args.benchmark), "ours", args.bits)
    if args.what == "json":
        from .io import design_to_dict
        print(json.dumps(design_to_dict(design), indent=2))
    elif args.what == "dot":
        from .etpn.dot import datapath_to_dot
        print(datapath_to_dot(design.datapath))
    else:
        from .gates import expand_to_gates, netlist_to_verilog
        from .rtl import generate_rtl
        netlist = expand_to_gates(generate_rtl(design, args.bits))
        print(netlist_to_verilog(netlist))
    return 0


def _report_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rows", default="benchmarks/out/rows.jsonl")
    p.add_argument("--output", default=None)


def _report_command(args) -> int:
    from .harness.report import load_rows, render_report, write_report
    if args.output:
        print(write_report(args.rows, args.output))
    else:
        print(render_report(load_rows(args.rows)))
    return 0


def _chaos_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", action="append", dest="scenarios",
                   metavar="NAME", default=None,
                   help="run only this scenario (repeatable; "
                        "default: the whole matrix)")
    p.add_argument("--benchmark", choices=names(), default="ex",
                   help="benchmark the scenarios run on (default: ex)")
    p.add_argument("--bits", type=int, default=4,
                   help="data-path width for the scenarios (default: 4)")
    p.add_argument("--workdir", default=None,
                   help="directory for scenario artifacts such as "
                        "journals (default: a fresh temp dir)")
    p.add_argument("--list", action="store_true", dest="list_scenarios",
                   help="print the scenario table and exit")


def _chaos_command(args) -> int:
    """The ``chaos`` subcommand: fault-injection scenario matrix."""
    from .runtime.scenarios import SCENARIOS, run_scenarios
    if args.list_scenarios:
        for name, _func, description in SCENARIOS:
            print(f"{name:<24} {description}")
        return 0
    try:
        outcomes = run_scenarios(args.scenarios, benchmark=args.benchmark,
                                 bits=args.bits, workdir=args.workdir)
    except KeyError as exc:
        raise CommandError(exc.args[0], 2) from None
    width = max(len(outcome.name) for outcome in outcomes)
    for outcome in outcomes:
        status = "ok" if outcome.ok else "FAIL"
        print(f"{outcome.name:<{width}}  {status:<4}  {outcome.detail}")
    survived = sum(outcome.ok for outcome in outcomes)
    print(f"chaos: {survived}/{len(outcomes)} scenarios survived")
    return 0 if survived == len(outcomes) else 1


def _spool(args):
    from .service import Spool
    return Spool(args.spool)


def _job(spool, prefix: str) -> str:
    """The job id a unique ``prefix`` names (exit 1 otherwise)."""
    try:
        return spool.resolve(prefix)
    except KeyError as exc:
        raise CommandError(exc.args[0], 1) from None


def _state_name(spool, jid: str) -> str:
    state = spool.states().get(jid)
    return state.state if state else "unledgered"


def _serve_stats(args) -> int:
    from .service import render_stats, service_stats
    print(render_stats(service_stats(_spool(args))))
    return 0


def _serve_default(args) -> int:
    """``serve`` without a subcommand: ``--stats`` or a usage error."""
    if args.stats:
        return _serve_stats(args)
    raise CommandError("serve needs a subcommand or --stats "
                       "(try: serve submit ex)", 2)


def _serve_submit(args) -> int:
    from .service import JobRequest
    jid, queued = _spool(args).submit(JobRequest(
        benchmark=args.benchmark, flow=args.flow, bits=args.bits,
        deadline_seconds=args.deadline_seconds, max_steps=args.max_steps,
        fault_fraction=args.fault_fraction,
        max_sequences=args.max_sequences, saturation=args.saturation,
        sequence_length=args.sequence_length,
        max_backtracks=args.max_backtracks))
    print(f"{jid} {'queued' if queued else 'already spooled'}")
    return 0


def _serve_run(args) -> int:
    """``serve run``: supervise the spool until drained or signalled."""
    import signal
    from pathlib import Path

    from .service import RetryPolicy, Supervisor

    spool = _spool(args)
    cache = None
    if not args.no_cache:
        from .harness.cache import ResultCache
        cache_dir = (Path(args.cache_dir) if args.cache_dir
                     else spool.root / "cache")
        cache = ResultCache(cache_dir=cache_dir)
    supervisor = Supervisor(
        spool, workers=args.workers, isolate=args.isolate,
        retry=RetryPolicy(max_attempts=args.max_attempts,
                          backoff_base=args.backoff_base,
                          backoff_cap=args.backoff_cap),
        default_deadline=args.default_deadline, cache=cache,
        progress=_stderr)

    def _drain(signum: int, _frame) -> None:
        supervisor.request_stop(signal.Signals(signum).name)

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _drain)
        except ValueError:  # not the main thread (in-process tests)
            pass
    try:
        outcome = supervisor.run(
            max_jobs=args.max_jobs,
            idle_seconds=None if args.daemon else args.idle_seconds)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    stopped = (f", stopped by {outcome.stopped_reason} (drained "
               f"gracefully)" if outcome.stopped else "")
    print(f"serve: {outcome.done} done ({outcome.recovered} recovered), "
          f"{outcome.retried} retried, {outcome.quarantined} quarantined, "
          f"{outcome.reaped} reaped in {outcome.elapsed_seconds:.1f}s"
          f"{stopped}")
    return 0 if outcome.ok() else 1


def _serve_status(args) -> int:
    spool = _spool(args)
    states = spool.states()
    if args.job:
        jid = _job(spool, args.job)
        state = states.get(jid)
        if state is None:
            print(f"{jid} spooled (not yet ledgered)")
        else:
            print(json.dumps(state.to_dict(), indent=2, sort_keys=True))
        return 0
    for jid, state in states.items():
        line = (f"{jid[:12]}  {state.state:<11}  "
                f"attempts={state.attempts} failures={state.failures}")
        if state.reason:
            line += f"  {state.reason}"
        print(line)
    return 0


def _serve_result(args) -> int:
    spool = _spool(args)
    jid = _job(spool, args.job)
    record = spool.read_result(jid)
    if record is None:
        raise CommandError(f"no result for {jid[:12]} "
                           f"(state: {_state_name(spool, jid)})", 1)
    print(json.dumps(record, sort_keys=True, indent=2))
    return 0


def _serve_cancel(args) -> int:
    spool = _spool(args)
    jid = _job(spool, args.job)
    if not spool.cancel(jid, reason=args.reason):
        raise CommandError(f"cannot cancel {jid[:12]} "
                           f"(state: {_state_name(spool, jid)})", 1)
    print(f"{jid} cancelled")
    return 0


def _serve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spool", metavar="DIR", default=".repro-spool",
                   help="service spool directory — the whole transport "
                        "(default: .repro-spool)")
    p.add_argument("--stats", action="store_true",
                   help="print WAL-derived service metrics and exit")
    serve_sub = p.add_subparsers(dest="serve_command")

    def add(name: str, handler: Handler, help_text: str
            ) -> argparse.ArgumentParser:
        q = serve_sub.add_parser(name, help=help_text)
        q.set_defaults(handler=handler)
        return q

    q = add("submit", _serve_submit,
            "spool one synthesis job (idempotent: identical "
            "content gets the same job id)")
    q.add_argument("benchmark",
                   help="benchmark name; an unknown name is accepted and "
                        "quarantined after retries — poison input must "
                        "not crash the queue")
    q.add_argument("--flow", choices=FLOW_ORDER, default="ours")
    q.add_argument("--bits", type=int, default=8)
    q.add_argument("--deadline-seconds", type=float, default=None,
                   help="per-job wall-clock budget; also the reap "
                        "horizon in process mode")
    q.add_argument("--max-steps", type=int, default=None,
                   help="per-job abstract step ceiling")
    q.add_argument("--fault-fraction", type=float, default=None,
                   help="override the quick config's ATPG fault sample")
    q.add_argument("--max-sequences", type=int, default=None)
    q.add_argument("--saturation", type=int, default=None)
    q.add_argument("--sequence-length", type=int, default=None)
    q.add_argument("--max-backtracks", type=int, default=None)

    q = add("run", _serve_run,
            "supervise the queue: dispatch, retry, quarantine; "
            "SIGTERM drains gracefully (exit 0)")
    q.add_argument("--workers", type=_positive_int, default=1, metavar="N",
                   help="worker processes (default: 1 = evaluate inline)")
    q.add_argument("--isolate", action="store_true",
                   help="one process per job even with --workers 1 "
                        "(enables hung-worker reaping)")
    q.add_argument("--max-attempts", type=int, default=3,
                   help="consecutive failures before quarantine "
                        "(default: 3)")
    q.add_argument("--backoff-base", type=float, default=0.5,
                   help="first retry delay, doubled per failure "
                        "(default: 0.5s)")
    q.add_argument("--backoff-cap", type=float, default=30.0,
                   help="retry delay ceiling (default: 30s)")
    q.add_argument("--default-deadline", type=float, default=None,
                   help="reap horizon for jobs without their own "
                        "--deadline-seconds (process mode)")
    q.add_argument("--max-jobs", type=int, default=None,
                   help="stop after this many dispatch attempts")
    q.add_argument("--idle-seconds", type=float, default=0.0,
                   help="after draining, keep polling for new "
                        "submissions this long (default: exit on drain)")
    q.add_argument("--daemon", action="store_true",
                   help="serve until a signal arrives, never exit on "
                        "drain")
    q.add_argument("--cache-dir", metavar="PATH", default=None,
                   help="result cache directory "
                        "(default: <spool>/cache)")
    q.add_argument("--no-cache", action="store_true",
                   help="evaluate every job from scratch")

    q = add("status", _serve_status, "job table, or one job's full state")
    q.add_argument("job", nargs="?", metavar="JOB",
                   help="job id (unique prefix ok); omit for the table")
    q = add("result", _serve_result, "print one finished job's cell record")
    q.add_argument("job", metavar="JOB", help="job id (unique prefix ok)")
    q = add("cancel", _serve_cancel,
            "cancel a queued or retry-pending job")
    q.add_argument("job", metavar="JOB", help="job id (unique prefix ok)")
    q.add_argument("--reason", default="cancelled by user")
    add("stats", _serve_stats, "print WAL-derived service metrics")
    for q in serve_sub.choices.values():
        # SUPPRESS: only override the parent parser's --spool (parsed
        # before the sub-subcommand) when actually given here.
        q.add_argument("--spool", metavar="DIR", default=argparse.SUPPRESS,
                       help="service spool directory "
                            "(default: .repro-spool)")


def _resolve_targets(args, bits: int, *, optimize: bool = False,
                     keep_compile_errors: bool = False
                     ) -> Iterator[tuple[str, Any]]:
    """Yield ``(target, dfg)`` per TARGET: a benchmark name or an HDL
    file (default: every registered benchmark).

    An HDL file is compiled (and, with ``optimize``, folded) at the
    command's datapath width ``bits``.  An unknown target exits 2; so
    does an HDL file that does not compile, unless
    ``keep_compile_errors`` (``lint`` reports it as a finding) asks for
    ``(target, ReproError)`` instead.
    """
    for target in args.targets or list(names()):
        if target in names():
            yield target, load(target)
            continue
        if not os.path.isfile(target):
            raise CommandError(
                f"{target!r} is neither a registered benchmark "
                f"({', '.join(names())}) nor an HDL file", 2)
        from .hdl import compile_source
        try:
            with open(target) as handle:
                dfg = compile_source(handle.read(), optimize=optimize,
                                     bits=bits)
        except ReproError as exc:
            if not keep_compile_errors:
                raise CommandError(f"{target}: cannot compile: {exc}",
                                   2) from None
            dfg = exc
        yield target, dfg


def _flow_design(dfg, flow: str, bits: int):
    """The unmerged default allocation, or Algorithm 1's design at
    ``bits``."""
    if flow == "default":
        from .etpn.from_dfg import default_design
        return default_design(dfg)
    return run_ours(dfg, cost_model=CostModel(bits=bits)).design


def _designs(args, verb: str) -> Iterator[tuple[str, Any]]:
    """Yield ``(target, design)``, the ``--flow`` design at ``--bits``,
    announcing each target on stderr."""
    for target, dfg in _resolve_targets(args, args.bits):
        print(f"{verb} {target}/{args.flow}/{args.bits}-bit ...",
              file=sys.stderr)
        yield target, _flow_design(dfg, args.flow, args.bits)


def _emit(args, results: list[tuple[str, bool, Any]],
          entry: Callable[[str, bool, Any], dict],
          text: Callable[[str, str, Any], tuple[str, list[str]]],
          **fields: Any) -> int:
    """Print ``(target, ok, value)`` results; exit 0 iff all are ok.

    ``--format json`` prints one document: an ``entry`` per target,
    then ``fields``, then the overall ``ok``.  Text prints, per target,
    the headline ``text`` returns for the status (``ok``/``FAIL``)
    after ``==`` and its detail lines indented below.
    """
    all_ok = all(ok for _target, ok, _value in results)
    if args.fmt == "json":
        print(json.dumps({
            "targets": [entry(target, ok, value)
                        for target, ok, value in results],
            **fields,
            "ok": all_ok,
        }, indent=2))
    else:
        for target, ok, value in results:
            headline, details = text(target, "ok" if ok else "FAIL", value)
            print(f"== {headline}")
            for line in details:
                print(f"   {line}")
    return 0 if all_ok else 1


def _lint_args(p: argparse.ArgumentParser) -> None:
    _add_targets(p)
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as errors for the exit status")
    _add_format(p)
    p.add_argument("--bits", type=int, default=8,
                   help="data-path width for the gate-level rules")
    p.add_argument("--optimize", action="store_true",
                   help="fold/CSE/DCE HDL-file targets at --bits before "
                        "linting (benchmarks are linted as registered)")
    p.add_argument("--no-gates", action="store_true",
                   help="skip the gate-level expansion rules (faster)")
    p.add_argument("--depth-limit", type=float, default=8.0,
                   help="sequential C/O depth threshold for TST002")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule table and exit")


def _lint_command(args) -> int:
    """The ``lint`` subcommand: collect-all design-rule checking."""
    from .lint import (PIPELINE_FAILURE_CODE, Diagnostic, LintReport,
                       Severity, all_rules, lint_pipeline)

    if args.list_rules:
        print(f"{'code':<8} {'layer':<12} {'severity':<8} title")
        for rule_ in all_rules():
            print(f"{rule_.code:<8} {rule_.layer:<12} "
                  f"{rule_.severity.value:<8} {rule_.title}")
        return 0

    results = []
    for target, dfg in _resolve_targets(args, args.bits,
                                        optimize=args.optimize,
                                        keep_compile_errors=True):
        if isinstance(dfg, ReproError):
            # A source file that does not even compile is itself a
            # finding, not a crash: report it and keep linting the rest.
            report = LintReport()
            report.add(Diagnostic(
                code=PIPELINE_FAILURE_CODE, severity=Severity.ERROR,
                layer="pipeline", location=target,
                message=f"{target}: cannot compile: {dfg}",
                hint="fix the HDL syntax/semantic errors first"))
            results.append((target, False, report))
            continue
        report = lint_pipeline(dfg, bits=args.bits, gates=not args.no_gates,
                               depth_limit=args.depth_limit)
        results.append((target, report.ok(strict=args.strict), report))
    return _emit(args, results,
                 lambda t, ok, report: {"name": t, "ok": ok,
                                        **report.to_dict()},
                 lambda t, status, report: (
                     f"{t}: {report.summary()} [{status}]",
                     [d.format() for d in report.sorted()]),
                 strict=args.strict)


def _analyze_args(p: argparse.ArgumentParser) -> None:
    _add_targets(p)
    p.add_argument("--flow", choices=["ours", "default"], default="ours",
                   help="analyse the synthesised design (ours) or the "
                        "unmerged default allocation (default: ours)")
    p.add_argument("--bits", type=int, default=8,
                   help="data-path width for the synthesis cost model")
    _add_format(p)
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as failures for the exit status")
    p.add_argument("--max-markings", type=int, default=None,
                   help="bound on the reachability-graph exploration")
    p.add_argument("--structural", action="store_true",
                   help="fast mode: print only the structural "
                        "certificates (invariants, siphons, verdicts); "
                        "never enumerates the state space")
    p.add_argument("--tier", choices=["auto", "structural", "enumerative"],
                   default="auto",
                   help="which analysis tier decides safety/deadlock "
                        "verdicts (default: auto = structure first, "
                        "enumerate only when inconclusive)")
    p.add_argument("--cross-check", action="store_true",
                   help="run both tiers to completion and fail on any "
                        "disagreement between structural and "
                        "enumerative verdicts")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also print the per-output certificate expressions")


def _analyze_command(args) -> int:
    """The ``analyze`` subcommand: MHP races + equivalence certificates,
    or one of its two tier modes."""
    from .analysis import analyze_design
    from .analysis.reach_graph import DEFAULT_MAX_MARKINGS

    max_markings = args.max_markings or DEFAULT_MAX_MARKINGS
    # Build every design before analysing any, so a bad target exits
    # before anything reaches stdout.
    designs = list(_designs(args, "analyzing"))
    if args.structural:
        return _structural_command(args, designs)
    if args.cross_check:
        return _cross_check_command(designs, max_markings)
    results = []
    for target, design in designs:
        result = analyze_design(design, max_markings=max_markings,
                                tier=args.tier)
        ok = result.report.ok(strict=args.strict) and result.verified
        results.append((target, ok, result))

    def _decision(decision):
        if decision is None:
            return None
        return {"value": decision.value, "tier": str(decision.tier),
                "detail": decision.detail}

    def entry(target, ok, r) -> dict:
        return {"name": target, "ok": ok, "verified": r.verified,
                "markings": r.markings,
                "races": len(r.races),
                "certificate": (r.certificate.to_dict()
                                if r.certificate else None),
                "structural": (r.structural.to_dict()
                               if r.structural else None),
                "safe": _decision(r.safe),
                "deadlock_free": _decision(r.deadlock_free),
                **r.report.to_dict()}

    def text(_target, status, result) -> tuple[str, list[str]]:
        lines = [f"{result.safe}; {result.deadlock_free}"
                 ] if result.safe is not None else []
        lines += [diag.format() for diag in result.report.sorted()]
        if result.certificate is not None and args.verbose:
            lines += result.certificate.summary().splitlines()
        return f"{result.summary()} [{status}]", lines

    return _emit(args, results, entry, text, flow=args.flow,
                 tier=args.tier, strict=args.strict)


def _structural_command(args, designs) -> int:
    """``analyze --structural``: certificate-only fast mode, no BFS."""
    from .analysis import Verdict, structural_certificate

    results = []
    for target, design in designs:
        cert = structural_certificate(design.control_net)
        problems = cert.check(design.control_net)
        refuted = [name for name, verdict in
                   (("safe", cert.safe), ("bounded", cert.bounded),
                    ("deadlock_free", cert.deadlock_free))
                   if verdict is Verdict.REFUTED]
        results.append((target, not problems and not refuted,
                        (cert, problems, refuted)))

    def text(_target, status, value) -> tuple[str, list[str]]:
        cert, problems, refuted = value
        lines = []
        if args.verbose:
            lines += [f"P-invariant: {inv}" for inv in cert.p_invariants]
            lines += [f"T-invariant: {inv}" for inv in cert.t_invariants]
        lines += [f"REFUTED: {name}" for name in refuted]
        lines += [f"CHECK: {problem}" for problem in problems]
        return f"{cert.summary()} [{status}]", lines

    return _emit(args, results,
                 lambda t, ok, value: {"name": t, "ok": ok,
                                       "refuted": value[2],
                                       "check_problems": value[1],
                                       **value[0].to_dict()},
                 text, flow=args.flow, mode="structural")


def _cross_check_command(designs, max_markings: int) -> int:
    """``analyze --cross-check``: assert the two tiers agree."""
    from .analysis import cross_check

    mismatches = []
    for target, design in designs:
        found = cross_check(design.control_net, max_markings=max_markings)
        verdict = "agree" if not found else "MISMATCH"
        print(f"== {target}: structural vs enumerative: {verdict}")
        for line in found:
            print(f"   {line}")
        mismatches.extend(found)
    total = "all tiers agree" if not mismatches else \
        f"{len(mismatches)} disagreement(s)"
    print(f"cross-check: {len(designs)} design(s), {total}")
    return 0 if not mismatches else 1


def _dataflow_args(p: argparse.ArgumentParser) -> None:
    _add_targets(p)
    _add_bits(p)
    p.add_argument("--vectors", type=int, default=64,
                   help="random vectors for the certificate self-check "
                        "(default: 64)")
    p.add_argument("--input-bits", type=int, default=None,
                   help="assume primary inputs occupy at most this many "
                        "bits (default: the full datapath width)")
    p.add_argument("--narrow", action="store_true",
                   help="also synthesise the design (--flow) and report "
                        "the equivalence-gated width-narrowing area delta")
    p.add_argument("--flow", choices=["ours", "default"], default="ours",
                   help="design point --narrow re-prices (default: ours)")
    p.add_argument("--strict", action="store_true",
                   help="treat DFA warnings as failures for the exit "
                        "status")
    _add_format(p)
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also print the per-variable abstract values")


def _dataflow_command(args) -> int:
    """The ``dataflow`` subcommand: abstract-interpretation facts,
    certificate self-check, DFA findings and optional width narrowing."""
    from .analysis.dataflow import analyze_dataflow
    from .cost import narrow_design
    from .lint import lint_dataflow

    results = []
    for target, dfg in _resolve_targets(args, max(args.bits)):
        for bits in args.bits:
            assumptions = None
            if args.input_bits is not None:  # restrict the entry intervals
                hi = (1 << min(args.input_bits, bits)) - 1
                assumptions = {v.name: (0, hi) for v in dfg.inputs()}
            cert = analyze_dataflow(dfg, bits, assumptions=assumptions)
            problems = cert.check(dfg, vectors=args.vectors)
            report = lint_dataflow(dfg, bits=bits)
            narrow = (narrow_design(_flow_design(dfg, args.flow, bits), bits,
                                    assumptions=assumptions, cert=cert)
                      if args.narrow else None)
            ok = not problems and report.ok(strict=args.strict)
            results.append((target, ok,
                            (bits, cert, problems, report, narrow)))

    def entry(target, ok, value) -> dict:
        bits, cert, problems, report, narrow = value
        return {"name": target, "bits": bits, "ok": ok,
                "constant_ops": len(cert.constant_ops()),
                "known_bits": cert.known_bit_total(),
                "max_required_width": cert.max_required_width(),
                "loop_iterations": cert.loop_iterations,
                "widened": cert.widened,
                "check_vectors": args.vectors,
                "check_problems": problems,
                "narrowing": narrow.to_dict() if narrow else None,
                **report.to_dict()}

    def text(_target, status, value) -> tuple[str, list[str]]:
        _bits, cert, problems, report, narrow = value
        lines = [diag.format() for diag in report.sorted()]
        lines += [f"CHECK: {problem}" for problem in problems]
        if narrow is not None:
            lines.append(f"narrowing: {narrow.summary()}")
        if args.verbose:
            lines += [f"{var}: {fact}"
                      for var, fact in sorted(cert.var_facts.items())]
        return (f"{cert.summary()} [check {args.vectors} vectors: "
                f"{status}]", lines)

    return _emit(args, results, entry, text, strict=args.strict)


def _timing_args(p: argparse.ArgumentParser) -> None:
    _add_targets(p)
    p.add_argument("--flow", choices=["ours", "default"], default="ours",
                   help="time the synthesised design (ours) or the "
                        "unmerged default allocation (default: ours)")
    p.add_argument("--bits", type=int, default=8,
                   help="data-path width of the expansion (default: 8)")
    p.add_argument("--period", type=float, default=None,
                   help="clock period in gate units (default: the "
                        "library-implied period at --bits)")
    p.add_argument("--paths", type=int, default=4, metavar="K",
                   help="worst paths to extract gate by gate (default: 4)")
    p.add_argument("--sequential-constants", action="store_true",
                   help="seed DFF launches with reset-reachable "
                        "constants for stronger false-path pruning")
    p.add_argument("--strict", action="store_true",
                   help="treat unconstrained endpoints as failures "
                        "for the exit status")
    _add_format(p)
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also print the K worst paths gate by gate")


def _timing_command(args) -> int:
    """The ``timing`` subcommand: static timing analysis of the gates."""
    from .analysis.timing import ConeCache, analyze_timing
    from .gates import expand_to_gates
    from .rtl import generate_rtl

    # One cache across targets: benchmarks share expander idioms, so
    # isomorphic cones (interned to the same structural ids) are
    # evaluated once for the whole run.
    cache = ConeCache()
    results = []
    for target, design in _designs(args, "timing"):
        netlist = expand_to_gates(generate_rtl(design, args.bits))
        report = analyze_timing(
            netlist, bits=args.bits, period=args.period, cache=cache,
            k_paths=args.paths,
            sequential_constants=args.sequential_constants)
        ok = report.ok and (not args.strict or not report.unconstrained())
        results.append((target, ok, report))

    def text(_target, status, report) -> tuple[str, list[str]]:
        lines = [f"VIOLATED {e.kind} {e.name}: slack {e.slack:+.2f} "
                 f"(arrival {e.arrival:.2f}, {e.levels} levels)"
                 for e in report.violations()]
        lines += [f"unconstrained {e.kind} {e.name}: cone proved constant"
                  for e in report.unconstrained()]
        lines += [f"skipped {e.kind} {e.name}: {e.skip_reason}"
                  for e in report.skipped()]
        if args.verbose:
            lines += [path.format() for path in report.paths]
        return f"{report.summary()} [{status}]", lines

    return _emit(args, results,
                 lambda t, ok, report: {"target": t, "cmd_ok": ok,
                                        **report.to_dict()},
                 text, flow=args.flow, strict=args.strict)


def _bench_report(module: str) -> Handler:
    """Handler of one ``bench-*`` command: ``repro.harness.<module>``'s
    ``run_<module>`` gets the options its parameters name, then the
    command prints where the report went with the bench's ``SUMMARY``
    line and exits 0 iff the bench's ``passed`` predicate holds."""
    def handler(args) -> int:
        bench = import_module(f"{__package__}.harness.{module}")
        run = getattr(bench, f"run_{module}")
        options = {name: getattr(args, name)
                   for name in inspect.signature(run).parameters
                   if name != "progress"}
        report = run(**options, progress=_stderr)
        print(f"wrote {args.output}: {bench.SUMMARY.format(**report)}")
        return 0 if bench.passed(report) else 1
    return handler


def _bench_service_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--benchmarks", nargs="+", choices=names(),
                   default=["ex", "paulin", "tseng"],
                   help="one job per benchmark (default: ex paulin tseng)")
    p.add_argument("--bits", type=int, default=4,
                   help="data-path width of every job (default: 4)")
    p.add_argument("--output", default="BENCH_service.json",
                   help="output path (default: BENCH_service.json)")
    p.add_argument("--workdir", default=None,
                   help="keep spools/cache here instead of a temp dir")


def _bench_timing_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bits", type=int, default=8,
                   help="data-path width of the expansions (default: 8)")
    p.add_argument("--repeats", type=int, default=5,
                   help="timing repeats; the minimum is recorded "
                        "(default: 5)")
    p.add_argument("--output", default="BENCH_timing.json",
                   help="output path (default: BENCH_timing.json)")


def _bench_dataflow_args(p: argparse.ArgumentParser) -> None:
    _add_bits(p)
    p.add_argument("--repeats", type=int, default=3,
                   help="timing repeats; the minimum is recorded")
    p.add_argument("--vectors", type=int, default=64,
                   help="random vectors per certificate self-check "
                        "(default: 64)")
    p.add_argument("--input-bits", type=int, default=8,
                   help="narrowing cells assume inputs occupy at most "
                        "min(this, bits) bits (default: 8)")
    p.add_argument("--output", default="BENCH_dataflow.json",
                   help="output path (default: BENCH_dataflow.json)")


def _bench_analysis_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bits", type=int, nargs="+", default=[4, 8],
                   help="data-path widths to benchmark (default: 4 8)")
    p.add_argument("--repeats", type=int, default=3,
                   help="timing repeats; the minimum is recorded")
    p.add_argument("--output", default="BENCH_analysis.json",
                   help="output path (default: BENCH_analysis.json)")


def _bench_tables_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--benchmark", choices=names(), default="ex",
                   help="benchmark whose table grid is timed (default: ex)")
    p.add_argument("--bits", type=int, nargs="+", default=[4, 8, 16],
                   help="data-path widths of the grid (default: 4 8 16)")
    p.add_argument("--workers", type=_positive_int, default=4, metavar="N",
                   help="worker processes for the parallel runs "
                        "(default: 4)")
    p.add_argument("--output", default="BENCH_tables.json",
                   help="output path (default: BENCH_tables.json)")
    p.add_argument("--cache-dir", metavar="PATH", default=None,
                   help="keep the warm cache here instead of a "
                        "throwaway temp directory")


#: ``(name, help, argument builder, handler)`` per subcommand, in the
#: order ``--help`` lists them.
COMMANDS: list[tuple[str, str, Callable[[argparse.ArgumentParser], None],
                     Handler]] = [
    ("table1", "reproduce table1 (ex)", _table_args,
     partial(_table_command, benchmark="ex")),
    ("table2", "reproduce table2 (dct)", _table_args,
     partial(_table_command, benchmark="dct")),
    ("table3", "reproduce table3 (diffeq)", _table_args,
     partial(_table_command, benchmark="diffeq")),
    ("fig2", "reproduce fig2 schedule(s)", _figure_args,
     partial(_figure_command, benchmarks=["ex"])),
    ("fig3", "reproduce fig3 schedule(s)", _figure_args,
     partial(_figure_command, benchmarks=["dct", "diffeq"])),
    ("synth", "synthesise one benchmark with ours", _synth_args,
     _synth_command),
    ("explore", "Pareto sweep over (k, alpha, beta)", _explore_args,
     _explore_command),
    ("export", "export a synthesised design", _export_args,
     _export_command),
    ("report", "markdown report from recorded rows", _report_args,
     _report_command),
    ("bench", "one table cell (flow x width)", _bench_args, _bench_command),
    ("chaos", "fault-injection scenario matrix (prove graceful "
              "degradation)", _chaos_args, _chaos_command),
    ("serve", "durable synthesis job service: filesystem spool + WAL "
              "ledger + supervised queue", _serve_args, _serve_default),
    ("bench-service", "benchmark the service: cold vs warm drain plus an "
                      "injected-fault round; write BENCH_service.json",
     _bench_service_args, _bench_report("bench_service")),
    ("lint", "design-rule check (DFG -> ETPN -> schedule -> binding -> "
             "gates)", _lint_args, _lint_command),
    ("analyze", "concurrency analysis: MHP races + equivalence "
                "certificates", _analyze_args, _analyze_command),
    ("dataflow", "abstract-interpretation dataflow facts: value ranges, "
                 "known bits, certificate self-check, DFA findings",
     _dataflow_args, _dataflow_command),
    ("timing", "static timing analysis: arrivals, slack, K worst paths "
               "over the expanded gate netlist", _timing_args,
     _timing_command),
    ("bench-timing", "time cold vs incremental re-analysis after one "
                     "merger and write BENCH_timing.json",
     _bench_timing_args, _bench_report("bench_timing")),
    ("bench-dataflow", "time the dataflow fixpoint, fault pruning and "
                       "width narrowing and write BENCH_dataflow.json",
     _bench_dataflow_args, _bench_report("bench_dataflow")),
    ("bench-analysis", "time structural certificates vs reachability BFS "
                       "and write BENCH_analysis.json",
     _bench_analysis_args, _bench_report("bench_analysis")),
    ("bench-tables", "time sequential vs parallel vs warm-cache table runs "
                     "and write BENCH_tables.json",
     _bench_tables_args, _bench_report("bench_tables")),
]


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro-hlts`` command."""
    parser = argparse.ArgumentParser(
        prog="repro-hlts",
        description="High-level test synthesis (Yang & Peng, DATE 1998): "
                    "regenerate the paper's tables and figures.")
    parser.add_argument("--traceback", action="store_true",
                        help="print the full traceback on pipeline errors "
                             "instead of a one-line message")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments, handler in COMMANDS:
        command = sub.add_parser(name, help=help_text)
        add_arguments(command)
        command.set_defaults(handler=handler)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ReproError as exc:
        # Pipeline failures are expected, diagnosable events: one line
        # on stderr and a distinct exit code (3: lint reserves 1 and
        # argparse 2) unless the user asked for the full traceback.
        if args.traceback:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
