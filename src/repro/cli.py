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
import sys

from .bench import load, names
from .cost import CostModel
from .harness import (ExperimentConfig, FLOW_ORDER, render_schedule,
                      render_sharing, render_summary, render_table,
                      synthesize_flow)
from .synth import SynthesisParams, run_ours


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


def _make_cache(args):
    """The ResultCache behind ``--cache-dir`` (None when not asked for)."""
    if not getattr(args, "cache_dir", None):
        return None
    from .harness.cache import ResultCache
    from pathlib import Path
    return ResultCache(cache_dir=Path(args.cache_dir))


def _report_skips(outcome) -> int:
    """Print skipped-cell notes; exit 1 for an explicitly partial grid."""
    for skip in outcome.skipped:
        print(f"note: lost {skip.flow}/{skip.bits}-bit: {skip.reason}",
              file=sys.stderr)
    return 0 if outcome.ok() else 1


def _table_command(args, benchmark: str) -> int:
    from .harness.parallel import run_parallel_grid
    from .runtime import Journal
    grid = [(flow, bits) for flow in FLOW_ORDER for bits in args.bits]
    journal = Journal(args.journal) if args.journal else None
    outcome = run_parallel_grid(
        benchmark, grid, ExperimentConfig.quick,
        workers=args.workers, journal=journal, resume=args.resume,
        cache=_make_cache(args),
        progress=lambda msg: print(msg, file=sys.stderr))
    print(render_table(benchmark, outcome.cells, show_area=True))
    return _report_skips(outcome)


def _bench_command(args) -> int:
    from .harness.parallel import run_parallel_grid
    from .runtime import Budget, Journal
    budget = (Budget(wall_seconds=args.wall_seconds)
              if args.wall_seconds is not None else None)
    journal = Journal(args.journal) if args.journal else None
    outcome = run_parallel_grid(
        args.benchmark, [(args.flow, args.bits)],
        ExperimentConfig.quick, workers=args.workers, journal=journal,
        resume=args.resume, cache=_make_cache(args), budget=budget,
        progress=lambda msg: print(msg, file=sys.stderr))
    print(render_summary(outcome.cells))
    for cell in outcome.cells:
        for reason in getattr(cell, "degradation", ()):
            print(f"note: {cell.flow}/{cell.bits}-bit degraded: {reason}",
                  file=sys.stderr)
    return _report_skips(outcome)


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
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    width = max(len(outcome.name) for outcome in outcomes)
    for outcome in outcomes:
        status = "ok" if outcome.ok else "FAIL"
        print(f"{outcome.name:<{width}}  {status:<4}  {outcome.detail}")
    survived = sum(outcome.ok for outcome in outcomes)
    print(f"chaos: {survived}/{len(outcomes)} scenarios survived")
    return 0 if survived == len(outcomes) else 1


def _serve_request(args):
    """Build the :class:`~repro.service.JobRequest` of ``serve submit``."""
    from .service import JobRequest
    return JobRequest(
        benchmark=args.benchmark, flow=args.flow, bits=args.bits,
        deadline_seconds=args.deadline_seconds, max_steps=args.max_steps,
        fault_fraction=args.fault_fraction,
        max_sequences=args.max_sequences, saturation=args.saturation,
        sequence_length=args.sequence_length,
        max_backtracks=args.max_backtracks)


def _serve_run(args, spool) -> int:
    """``serve run``: supervise the spool until drained or signalled."""
    import signal
    from pathlib import Path

    from .service import RetryPolicy, Supervisor

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
        progress=lambda msg: print(msg, file=sys.stderr))

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


def _serve_command(args) -> int:
    """The ``serve`` subcommand tree: a durable synthesis job service."""
    import json as _json

    from .service import Spool, render_stats, service_stats

    spool = Spool(args.spool)
    command = getattr(args, "serve_command", None)
    if command is None or command == "stats":
        if args.stats or command == "stats":
            print(render_stats(service_stats(spool)))
            return 0
        print("error: serve needs a subcommand or --stats "
              "(try: serve submit ex)", file=sys.stderr)
        return 2
    if command == "submit":
        jid, queued = spool.submit(_serve_request(args))
        print(f"{jid} {'queued' if queued else 'already spooled'}")
        return 0
    if command == "run":
        return _serve_run(args, spool)
    if command == "status":
        states = spool.states()
        if args.job:
            try:
                jid = spool.resolve(args.job)
            except KeyError as exc:
                print(f"error: {exc.args[0]}", file=sys.stderr)
                return 1
            state = states.get(jid)
            if state is None:
                print(f"{jid} spooled (not yet ledgered)")
            else:
                print(_json.dumps(state.to_dict(), indent=2,
                                  sort_keys=True))
            return 0
        for jid, state in states.items():
            line = (f"{jid[:12]}  {state.state:<11}  "
                    f"attempts={state.attempts} failures={state.failures}")
            if state.reason:
                line += f"  {state.reason}"
            print(line)
        return 0
    if command == "result":
        try:
            jid = spool.resolve(args.job)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 1
        record = spool.read_result(jid)
        if record is None:
            state = spool.states().get(jid)
            print(f"error: no result for {jid[:12]} "
                  f"(state: {state.state if state else 'unledgered'})",
                  file=sys.stderr)
            return 1
        print(_json.dumps(record, sort_keys=True, indent=2))
        return 0
    if command == "cancel":
        try:
            jid = spool.resolve(args.job)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 1
        if spool.cancel(jid, reason=args.reason):
            print(f"{jid} cancelled")
            return 0
        state = spool.states().get(jid)
        print(f"error: cannot cancel {jid[:12]} "
              f"(state: {state.state if state else 'unledgered'})",
              file=sys.stderr)
        return 1
    return 2


def _figure_command(args, benchmarks: list[str]) -> int:
    for benchmark in benchmarks:
        design = synthesize_flow(benchmark, "ours", args.figure_bits)
        print(render_schedule(design))
        print()
        print(render_sharing(design))
        print()
    return 0


def _lint_resolve(target: str, bits: int = 16, optimize: bool = False):
    """Resolve a lint target to a DFG: benchmark name or HDL file path.

    ``bits`` is the width constant folding evaluates at when
    ``optimize`` is requested — the *command's* datapath width, so an
    HDL file is folded at the same width it is later analysed at.
    """
    if target in names():
        return load(target)
    import os
    if os.path.isfile(target):
        from .hdl import compile_source
        with open(target) as handle:
            return compile_source(handle.read(), optimize=optimize,
                                  bits=bits)
    raise KeyError(target)


def _lint_command(args) -> int:
    """The ``lint`` subcommand: collect-all design-rule checking."""
    from .errors import ReproError
    from .lint import (PIPELINE_FAILURE_CODE, Diagnostic, LintReport,
                       Severity, all_rules, lint_pipeline)

    if args.list_rules:
        print(f"{'code':<8} {'layer':<12} {'severity':<8} title")
        for rule_ in all_rules():
            print(f"{rule_.code:<8} {rule_.layer:<12} "
                  f"{rule_.severity.value:<8} {rule_.title}")
        return 0

    targets = args.targets or list(names())
    results = []
    all_ok = True
    for target in targets:
        try:
            dfg = _lint_resolve(target, bits=args.bits,
                                optimize=args.optimize)
        except KeyError:
            print(f"error: {target!r} is neither a registered benchmark "
                  f"({', '.join(names())}) nor an HDL file", file=sys.stderr)
            return 2
        except ReproError as exc:
            # A source file that does not even compile is itself a
            # finding, not a crash: report it and keep linting the rest.
            report = LintReport()
            report.add(Diagnostic(
                code=PIPELINE_FAILURE_CODE, severity=Severity.ERROR,
                layer="pipeline", location=target,
                message=f"{target}: cannot compile: {exc}",
                hint="fix the HDL syntax/semantic errors first"))
            all_ok = False
            results.append((target, report, False))
            continue
        report = lint_pipeline(dfg, bits=args.bits, gates=not args.no_gates,
                               depth_limit=args.depth_limit)
        ok = report.ok(strict=args.strict)
        all_ok = all_ok and ok
        results.append((target, report, ok))

    if args.fmt == "json":
        import json
        print(json.dumps({
            "targets": [{"name": t, "ok": ok, **report.to_dict()}
                        for t, report, ok in results],
            "strict": args.strict,
            "ok": all_ok,
        }, indent=2))
    else:
        for target, report, ok in results:
            status = "ok" if ok else "FAIL"
            print(f"== {target}: {report.summary()} [{status}]")
            for diag in report.sorted():
                print(f"   {diag.format()}")
    return 0 if all_ok else 1


def _analyze_resolve_designs(args):
    """Yield ``(target, design)`` for every analyze target, or an exit
    code when a target cannot be resolved/compiled."""
    from .errors import ReproError
    from .etpn.from_dfg import default_design

    targets = args.targets or list(names())
    resolved = []
    for target in targets:
        try:
            dfg = _lint_resolve(target, bits=args.bits)
        except KeyError:
            print(f"error: {target!r} is neither a registered benchmark "
                  f"({', '.join(names())}) nor an HDL file", file=sys.stderr)
            return 2
        except ReproError as exc:
            print(f"error: {target}: cannot compile: {exc}", file=sys.stderr)
            return 2
        print(f"analyzing {target}/{args.flow}/{args.bits}-bit ...",
              file=sys.stderr)
        if args.flow == "default":
            design = default_design(dfg)
        else:
            design = run_ours(dfg,
                              cost_model=CostModel(bits=args.bits)).design
        resolved.append((target, design))
    return resolved


def _structural_command(args) -> int:
    """``analyze --structural``: certificate-only fast mode, no BFS."""
    from .analysis import Verdict, structural_certificate

    resolved = _analyze_resolve_designs(args)
    if isinstance(resolved, int):
        return resolved
    results = []
    all_ok = True
    for target, design in resolved:
        cert = structural_certificate(design.control_net)
        problems = cert.check(design.control_net)
        refuted = [name for name, verdict in
                   (("safe", cert.safe), ("bounded", cert.bounded),
                    ("deadlock_free", cert.deadlock_free))
                   if verdict is Verdict.REFUTED]
        ok = not problems and not refuted
        all_ok = all_ok and ok
        results.append((target, cert, problems, refuted, ok))

    if args.fmt == "json":
        import json
        print(json.dumps({
            "targets": [
                {"name": t, "ok": ok, "refuted": refuted,
                 "check_problems": problems, **cert.to_dict()}
                for t, cert, problems, refuted, ok in results],
            "flow": args.flow,
            "mode": "structural",
            "ok": all_ok,
        }, indent=2))
    else:
        for target, cert, problems, refuted, ok in results:
            status = "ok" if ok else "FAIL"
            print(f"== {cert.summary()} [{status}]")
            if args.verbose:
                for inv in cert.p_invariants:
                    print(f"   P-invariant: {inv}")
                for inv in cert.t_invariants:
                    print(f"   T-invariant: {inv}")
            for name in refuted:
                print(f"   REFUTED: {name}")
            for problem in problems:
                print(f"   CHECK: {problem}")
    return 0 if all_ok else 1


def _cross_check_command(args) -> int:
    """``analyze --cross-check``: assert the two tiers agree."""
    from .analysis import cross_check
    from .analysis.reach_graph import DEFAULT_MAX_MARKINGS

    max_markings = args.max_markings or DEFAULT_MAX_MARKINGS
    resolved = _analyze_resolve_designs(args)
    if isinstance(resolved, int):
        return resolved
    mismatches = []
    for target, design in resolved:
        found = cross_check(design.control_net, max_markings=max_markings)
        verdict = "agree" if not found else "MISMATCH"
        print(f"== {target}: structural vs enumerative: {verdict}")
        for line in found:
            print(f"   {line}")
        mismatches.extend(found)
    total = "all tiers agree" if not mismatches else \
        f"{len(mismatches)} disagreement(s)"
    print(f"cross-check: {len(resolved)} design(s), {total}")
    return 0 if not mismatches else 1


def _analyze_command(args) -> int:
    """The ``analyze`` subcommand: MHP races + equivalence certificates."""
    from .analysis import analyze_design
    from .analysis.reach_graph import DEFAULT_MAX_MARKINGS

    if args.structural:
        return _structural_command(args)
    if args.cross_check:
        return _cross_check_command(args)

    max_markings = args.max_markings or DEFAULT_MAX_MARKINGS
    resolved = _analyze_resolve_designs(args)
    if isinstance(resolved, int):
        return resolved
    results = []
    all_ok = True
    for target, design in resolved:
        result = analyze_design(design, max_markings=max_markings,
                                tier=args.tier)
        ok = result.report.ok(strict=args.strict) and result.verified
        all_ok = all_ok and ok
        results.append((target, result, ok))

    def _decision(decision):
        if decision is None:
            return None
        return {"value": decision.value, "tier": str(decision.tier),
                "detail": decision.detail}

    if args.fmt == "json":
        import json
        print(json.dumps({
            "targets": [
                {"name": t, "ok": ok, "verified": r.verified,
                 "markings": r.markings,
                 "races": len(r.races),
                 "certificate": (r.certificate.to_dict()
                                 if r.certificate else None),
                 "structural": (r.structural.to_dict()
                                if r.structural else None),
                 "safe": _decision(r.safe),
                 "deadlock_free": _decision(r.deadlock_free),
                 **r.report.to_dict()}
                for t, r, ok in results],
            "flow": args.flow,
            "tier": args.tier,
            "strict": args.strict,
            "ok": all_ok,
        }, indent=2))
    else:
        for target, result, ok in results:
            status = "ok" if ok else "FAIL"
            print(f"== {result.summary()} [{status}]")
            if result.safe is not None:
                print(f"   {result.safe}; {result.deadlock_free}")
            for diag in result.report.sorted():
                print(f"   {diag.format()}")
            if result.certificate is not None and args.verbose:
                for line in result.certificate.summary().splitlines():
                    print(f"   {line}")
    return 0 if all_ok else 1


def _timing_command(args) -> int:
    """The ``timing`` subcommand: static timing analysis of the gates."""
    from .analysis.timing import ConeCache, analyze_timing
    from .errors import ReproError
    from .etpn.from_dfg import default_design
    from .gates import expand_to_gates
    from .rtl import generate_rtl

    targets = args.targets or list(names())
    # One cache across targets: benchmarks share expander idioms, so
    # isomorphic cones (interned to the same structural ids) are
    # evaluated once for the whole run.
    cache = ConeCache()
    results = []
    all_ok = True
    for target in targets:
        try:
            dfg = _lint_resolve(target, bits=args.bits)
        except KeyError:
            print(f"error: {target!r} is neither a registered benchmark "
                  f"({', '.join(names())}) nor an HDL file", file=sys.stderr)
            return 2
        except ReproError as exc:
            print(f"error: {target}: cannot compile: {exc}", file=sys.stderr)
            return 2
        print(f"timing {target}/{args.flow}/{args.bits}-bit ...",
              file=sys.stderr)
        if args.flow == "default":
            design = default_design(dfg)
        else:
            design = run_ours(dfg,
                              cost_model=CostModel(bits=args.bits)).design
        netlist = expand_to_gates(generate_rtl(design, args.bits))
        report = analyze_timing(
            netlist, bits=args.bits, period=args.period, cache=cache,
            k_paths=args.paths,
            sequential_constants=args.sequential_constants)
        ok = report.ok and (not args.strict or not report.unconstrained())
        all_ok = all_ok and ok
        results.append((target, report, ok))

    if args.fmt == "json":
        import json
        print(json.dumps({
            "targets": [{"target": t, "cmd_ok": ok, **report.to_dict()}
                        for t, report, ok in results],
            "flow": args.flow,
            "strict": args.strict,
            "ok": all_ok,
        }, indent=2))
    else:
        for target, report, ok in results:
            status = "ok" if ok else "FAIL"
            print(f"== {report.summary()} [{status}]")
            for e in report.violations():
                print(f"   VIOLATED {e.kind} {e.name}: slack {e.slack:+.2f} "
                      f"(arrival {e.arrival:.2f}, {e.levels} levels)")
            for e in report.unconstrained():
                print(f"   unconstrained {e.kind} {e.name}: "
                      f"cone proved constant")
            for e in report.skipped():
                print(f"   skipped {e.kind} {e.name}: {e.skip_reason}")
            if args.verbose:
                for path in report.paths:
                    print(f"   {path.format()}")
    return 0 if all_ok else 1


def _dataflow_assumptions(dfg, bits: int, input_bits: int | None):
    """Entry intervals when ``--input-bits`` restricts the inputs."""
    if input_bits is None:
        return None
    hi = (1 << min(input_bits, bits)) - 1
    return {v.name: (0, hi) for v in dfg.inputs()}


def _dataflow_command(args) -> int:
    """The ``dataflow`` subcommand: abstract-interpretation facts,
    certificate self-check, DFA findings and optional width narrowing."""
    from .analysis.dataflow import analyze_dataflow
    from .errors import ReproError
    from .lint import lint_dataflow

    targets = args.targets or list(names())
    results = []
    all_ok = True
    for target in targets:
        try:
            dfg = _lint_resolve(target, bits=max(args.bits))
        except KeyError:
            print(f"error: {target!r} is neither a registered benchmark "
                  f"({', '.join(names())}) nor an HDL file", file=sys.stderr)
            return 2
        except ReproError as exc:
            print(f"error: {target}: cannot compile: {exc}", file=sys.stderr)
            return 2
        for bits in args.bits:
            assumptions = _dataflow_assumptions(dfg, bits, args.input_bits)
            cert = analyze_dataflow(dfg, bits, assumptions=assumptions)
            problems = cert.check(dfg, vectors=args.vectors)
            report = lint_dataflow(dfg, bits=bits)
            narrow = None
            if args.narrow:
                from .cost import narrow_design
                from .etpn.from_dfg import default_design
                if args.flow == "default":
                    design = default_design(dfg)
                else:
                    design = run_ours(
                        dfg, cost_model=CostModel(bits=bits)).design
                narrow = narrow_design(design, bits,
                                       assumptions=assumptions, cert=cert)
            ok = not problems and report.ok(strict=args.strict)
            all_ok = all_ok and ok
            results.append((target, bits, cert, problems, report, narrow,
                            ok))

    if args.fmt == "json":
        import json
        print(json.dumps({
            "targets": [
                {"name": t, "bits": bits, "ok": ok,
                 "constant_ops": len(cert.constant_ops()),
                 "known_bits": cert.known_bit_total(),
                 "max_required_width": cert.max_required_width(),
                 "loop_iterations": cert.loop_iterations,
                 "widened": cert.widened,
                 "check_vectors": args.vectors,
                 "check_problems": problems,
                 "narrowing": narrow.to_dict() if narrow else None,
                 **report.to_dict()}
                for t, bits, cert, problems, report, narrow, ok in results],
            "strict": args.strict,
            "ok": all_ok,
        }, indent=2))
    else:
        for target, bits, cert, problems, report, narrow, ok in results:
            status = "ok" if ok else "FAIL"
            print(f"== {cert.summary()} "
                  f"[check {args.vectors} vectors: {status}]")
            for diag in report.sorted():
                print(f"   {diag.format()}")
            for problem in problems:
                print(f"   CHECK: {problem}")
            if narrow is not None:
                print(f"   narrowing: {narrow.summary()}")
            if args.verbose:
                for var, fact in sorted(cert.var_facts.items()):
                    print(f"   {var}: {fact}")
    return 0 if all_ok else 1


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

    for table, benchmark in (("table1", "ex"), ("table2", "dct"),
                             ("table3", "diffeq")):
        p = sub.add_parser(table, help=f"reproduce {table} ({benchmark})")
        _add_bits(p)
        _add_journal(p)
        _add_parallel(p)

    for figure, benchmarks in (("fig2", ["ex"]), ("fig3", ["dct", "diffeq"])):
        p = sub.add_parser(figure, help=f"reproduce {figure} schedule(s)")
        p.add_argument("--figure-bits", type=int, default=8)

    p = sub.add_parser("synth", help="synthesise one benchmark with ours")
    p.add_argument("benchmark", choices=names())
    p.add_argument("-k", type=int, default=3)
    p.add_argument("-a", "--alpha", type=float, default=2.0)
    p.add_argument("-b", "--beta", type=float, default=1.0)
    p.add_argument("--bits", type=int, default=8)

    p = sub.add_parser("explore", help="Pareto sweep over (k, alpha, beta)")
    p.add_argument("benchmark", choices=names())
    p.add_argument("--bits", type=int, default=8)
    _add_parallel(p)

    p = sub.add_parser("export", help="export a synthesised design")
    p.add_argument("benchmark", choices=names())
    p.add_argument("--what", choices=["verilog", "dot", "json"],
                   default="verilog")
    p.add_argument("--bits", type=int, default=8)

    p = sub.add_parser("report", help="markdown report from recorded rows")
    p.add_argument("--rows", default="benchmarks/out/rows.jsonl")
    p.add_argument("--output", default=None)

    p = sub.add_parser("bench", help="one table cell (flow x width)")
    p.add_argument("benchmark", choices=names())
    p.add_argument("--flow", choices=FLOW_ORDER, default="ours")
    p.add_argument("--bits", type=int, default=8)
    p.add_argument("--wall-seconds", type=float, default=None,
                   help="wall-clock budget for the cell; on exhaustion the "
                        "cell completes with a degraded partial result")
    _add_journal(p)
    _add_parallel(p)

    p = sub.add_parser(
        "chaos",
        help="fault-injection scenario matrix (prove graceful degradation)")
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

    p = sub.add_parser(
        "serve",
        help="durable synthesis job service: filesystem spool + WAL "
             "ledger + supervised queue")
    p.add_argument("--spool", metavar="DIR", default=".repro-spool",
                   help="service spool directory — the whole transport "
                        "(default: .repro-spool)")
    p.add_argument("--stats", action="store_true",
                   help="print WAL-derived service metrics and exit")
    serve_sub = p.add_subparsers(dest="serve_command")

    def _add_spool(sub_parser: argparse.ArgumentParser) -> None:
        # SUPPRESS: only override the parent parser's --spool (parsed
        # before the sub-subcommand) when actually given here.
        sub_parser.add_argument("--spool", metavar="DIR",
                                default=argparse.SUPPRESS,
                                help="service spool directory "
                                     "(default: .repro-spool)")

    q = serve_sub.add_parser(
        "submit", help="spool one synthesis job (idempotent: identical "
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
    _add_spool(q)

    q = serve_sub.add_parser(
        "run", help="supervise the queue: dispatch, retry, quarantine; "
                    "SIGTERM drains gracefully (exit 0)")
    q.add_argument("--workers", type=int, default=1, metavar="N",
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
    _add_spool(q)

    q = serve_sub.add_parser("status",
                             help="job table, or one job's full state")
    q.add_argument("job", nargs="?", metavar="JOB",
                   help="job id (unique prefix ok); omit for the table")
    _add_spool(q)

    q = serve_sub.add_parser("result",
                             help="print one finished job's cell record")
    q.add_argument("job", metavar="JOB", help="job id (unique prefix ok)")
    _add_spool(q)

    q = serve_sub.add_parser("cancel",
                             help="cancel a queued or retry-pending job")
    q.add_argument("job", metavar="JOB", help="job id (unique prefix ok)")
    q.add_argument("--reason", default="cancelled by user")
    _add_spool(q)

    q = serve_sub.add_parser("stats",
                             help="print WAL-derived service metrics")
    _add_spool(q)

    p = sub.add_parser(
        "bench-service",
        help="benchmark the service: cold vs warm drain plus an "
             "injected-fault round; write BENCH_service.json")
    p.add_argument("--benchmarks", nargs="+", choices=names(),
                   default=["ex", "paulin", "tseng"],
                   help="one job per benchmark (default: ex paulin tseng)")
    p.add_argument("--bits", type=int, default=4,
                   help="data-path width of every job (default: 4)")
    p.add_argument("--output", default="BENCH_service.json",
                   help="output path (default: BENCH_service.json)")
    p.add_argument("--workdir", default=None,
                   help="keep spools/cache here instead of a temp dir")

    p = sub.add_parser(
        "lint",
        help="design-rule check (DFG -> ETPN -> schedule -> binding -> gates)")
    p.add_argument("targets", nargs="*", metavar="TARGET",
                   help="benchmark names or HDL source files "
                        "(default: every registered benchmark)")
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as errors for the exit status")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   dest="fmt", help="output format (default: text)")
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

    p = sub.add_parser(
        "analyze",
        help="concurrency analysis: MHP races + equivalence certificates")
    p.add_argument("targets", nargs="*", metavar="TARGET",
                   help="benchmark names or HDL source files "
                        "(default: every registered benchmark)")
    p.add_argument("--flow", choices=["ours", "default"], default="ours",
                   help="analyse the synthesised design (ours) or the "
                        "unmerged default allocation (default: ours)")
    p.add_argument("--bits", type=int, default=8,
                   help="data-path width for the synthesis cost model")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   dest="fmt", help="output format (default: text)")
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

    p = sub.add_parser(
        "dataflow",
        help="abstract-interpretation dataflow facts: value ranges, "
             "known bits, certificate self-check, DFA findings")
    p.add_argument("targets", nargs="*", metavar="TARGET",
                   help="benchmark names or HDL source files "
                        "(default: every registered benchmark)")
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
    p.add_argument("--format", choices=["text", "json"], default="text",
                   dest="fmt", help="output format (default: text)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also print the per-variable abstract values")

    p = sub.add_parser(
        "timing",
        help="static timing analysis: arrivals, slack, K worst paths "
             "over the expanded gate netlist")
    p.add_argument("targets", nargs="*", metavar="TARGET",
                   help="benchmark names or HDL source files "
                        "(default: every registered benchmark)")
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
    p.add_argument("--format", choices=["text", "json"], default="text",
                   dest="fmt", help="output format (default: text)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also print the K worst paths gate by gate")

    p = sub.add_parser(
        "bench-timing",
        help="time cold vs incremental re-analysis after one merger "
             "and write BENCH_timing.json")
    p.add_argument("--bits", type=int, default=8,
                   help="data-path width of the expansions (default: 8)")
    p.add_argument("--repeats", type=int, default=5,
                   help="timing repeats; the minimum is recorded "
                        "(default: 5)")
    p.add_argument("--output", default="BENCH_timing.json",
                   help="output path (default: BENCH_timing.json)")

    p = sub.add_parser(
        "bench-dataflow",
        help="time the dataflow fixpoint, fault pruning and width "
             "narrowing and write BENCH_dataflow.json")
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

    p = sub.add_parser(
        "bench-analysis",
        help="time structural certificates vs reachability BFS and "
             "write BENCH_analysis.json")
    p.add_argument("--bits", type=int, nargs="+", default=[4, 8],
                   help="data-path widths to benchmark (default: 4 8)")
    p.add_argument("--repeats", type=int, default=3,
                   help="timing repeats; the minimum is recorded")
    p.add_argument("--output", default="BENCH_analysis.json",
                   help="output path (default: BENCH_analysis.json)")

    p = sub.add_parser(
        "bench-tables",
        help="time sequential vs parallel vs warm-cache table runs and "
             "write BENCH_tables.json")
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

    args = parser.parse_args(argv)

    from .errors import ReproError
    try:
        return _dispatch(args, parser)
    except ReproError as exc:
        # Pipeline failures are expected, diagnosable events: one line
        # on stderr and a distinct exit code (3: lint reserves 1 and
        # argparse 2) unless the user asked for the full traceback.
        if args.traceback:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _dispatch(args, parser: argparse.ArgumentParser) -> int:
    """Route parsed arguments to their subcommand."""
    if args.command == "table1":
        return _table_command(args, "ex")
    if args.command == "table2":
        return _table_command(args, "dct")
    if args.command == "table3":
        return _table_command(args, "diffeq")
    if args.command == "fig2":
        return _figure_command(args, ["ex"])
    if args.command == "fig3":
        return _figure_command(args, ["dct", "diffeq"])
    if args.command == "synth":
        result = run_ours(load(args.benchmark),
                          SynthesisParams(k=args.k, alpha=args.alpha,
                                          beta=args.beta),
                          CostModel(bits=args.bits))
        print(render_schedule(result.design))
        print()
        print(render_sharing(result.design))
        print()
        print(f"mergers applied: {result.iterations}")
        for record in result.history:
            print(f"  #{record.iteration}: {record.kind} "
                  f"{record.absorbed} -> {record.kept} "
                  f"(dE={record.delta_e:+.0f}, dH={record.delta_h:+.4f})")
        return 0
    if args.command == "explore":
        from .harness.parallel import explore_grid
        from .synth import pareto_front, render_front
        points = explore_grid(
            args.benchmark, args.bits, workers=args.workers,
            cache=_make_cache(args),
            progress=lambda msg: print(msg, file=sys.stderr))
        print("all distinct designs:")
        print(render_front(points))
        print()
        print("Pareto front (E, H, testability):")
        print(render_front(pareto_front(points)))
        return 0
    if args.command == "export":
        design = run_ours(load(args.benchmark),
                          cost_model=CostModel(bits=args.bits)).design
        if args.what == "json":
            import json as _json
            from .io import design_to_dict
            print(_json.dumps(design_to_dict(design), indent=2))
        elif args.what == "dot":
            from .etpn.dot import datapath_to_dot
            print(datapath_to_dot(design.datapath))
        else:
            from .gates import expand_to_gates, netlist_to_verilog
            from .rtl import generate_rtl
            netlist = expand_to_gates(generate_rtl(design, args.bits))
            print(netlist_to_verilog(netlist))
        return 0
    if args.command == "report":
        from .harness.report import load_rows, render_report, write_report
        if args.output:
            print(write_report(args.rows, args.output))
        else:
            print(render_report(load_rows(args.rows)))
        return 0
    if args.command == "bench":
        return _bench_command(args)
    if args.command == "chaos":
        return _chaos_command(args)
    if args.command == "serve":
        return _serve_command(args)
    if args.command == "bench-service":
        from .harness.bench_service import run_bench_service
        report = run_bench_service(
            benchmarks=args.benchmarks, bits=args.bits,
            output=args.output, workdir=args.workdir,
            progress=lambda msg: print(msg, file=sys.stderr))
        print(f"wrote {args.output}: {report['jobs']} jobs, "
              f"warm speedup {report['warm_speedup']}x, "
              f"fault round: {report['fault_round']['retries']} retries, "
              f"{report['fault_round']['quarantined']} quarantined, "
              f"results identical: {report['results_identical']}")
        return 0 if (report["results_identical"]
                     and report["fault_round"]["all_real_jobs_done"]) else 1
    if args.command == "lint":
        return _lint_command(args)
    if args.command == "analyze":
        return _analyze_command(args)
    if args.command == "dataflow":
        return _dataflow_command(args)
    if args.command == "timing":
        return _timing_command(args)
    if args.command == "bench-timing":
        from .harness.bench_timing import run_bench_timing
        report = run_bench_timing(
            bits=args.bits, repeats=args.repeats, output=args.output,
            progress=lambda msg: print(msg, file=sys.stderr))
        print(f"wrote {args.output}: {report['cells_total']} cells, "
              f"incremental speedup {report['speedup_total']}x "
              f"(target {report['target_speedup']}x, "
              f"met: {report['meets_target']}), "
              f"reports identical: {report['reports_match']}")
        return 0 if report["reports_match"] else 1
    if args.command == "bench-dataflow":
        from .harness.bench_dataflow import run_bench_dataflow
        report = run_bench_dataflow(
            bits=args.bits, repeats=args.repeats, vectors=args.vectors,
            input_bits=args.input_bits, output=args.output,
            progress=lambda msg: print(msg, file=sys.stderr))
        print(f"wrote {args.output}: {report['cells_total']} cells, "
              f"certs ok: {report['all_certs_ok']}, "
              f"benchmarks with pruned faults: "
              f"{report['benchmarks_with_pruned']}, "
              f"with narrowing savings: "
              f"{report['benchmarks_with_area_delta']}")
        return 0 if report["all_certs_ok"] else 1
    if args.command == "bench-analysis":
        from .harness.bench_analysis import run_bench_analysis
        report = run_bench_analysis(bits=args.bits, repeats=args.repeats,
                                    output=args.output,
                                    progress=lambda msg: print(
                                        msg, file=sys.stderr))
        print(f"wrote {args.output}: {report['cells_total']} cells, "
              f"structural faster on "
              f"{report['structural_faster']}/{report['cells_total']}")
        return 0 if report["structural_faster"] == report["cells_total"] \
            else 1
    if args.command == "bench-tables":
        from .harness.bench_tables import run_bench_tables
        report = run_bench_tables(
            benchmark=args.benchmark, bits=args.bits, workers=args.workers,
            output=args.output, cache_dir=args.cache_dir,
            progress=lambda msg: print(msg, file=sys.stderr))
        print(f"wrote {args.output}: speedup {report['speedup']}x "
              f"(parallel-cold {report['speedup_cold']}x, "
              f"warm hit rate {report['warm_hit_rate']}), "
              f"rows identical: {report['rows_identical']}")
        return 0 if report["rows_identical"] else 1
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
