"""The shared bench scaffolding and every ``bench-*`` report it writes.

Each bench runs once, on its smallest configuration: the benchmark
sweep is narrowed to ``ex`` and the table grid to one 4-bit ``camad``
cell with a tiny ATPG budget.
"""

import json
from types import SimpleNamespace

import pytest

from repro.atpg import RandomPhaseConfig
from repro.harness import (ExperimentConfig, bench_analysis, bench_dataflow,
                           bench_service, bench_tables, bench_timing,
                           benchkit)


def _tiny_config(bits: int) -> ExperimentConfig:
    return ExperimentConfig(
        bits=bits, fault_fraction=0.25,
        random=RandomPhaseConfig(max_sequences=4, saturation=2,
                                 sequence_length=12),
        max_backtracks=16)


RUNS = {
    "analysis": lambda out, tmp: bench_analysis.run_bench_analysis(
        bits=[4], repeats=1, output=out),
    "dataflow": lambda out, tmp: bench_dataflow.run_bench_dataflow(
        bits=[4], repeats=1, vectors=8, output=out),
    "timing": lambda out, tmp: bench_timing.run_bench_timing(
        bits=4, repeats=1, output=out),
    "tables": lambda out, tmp: bench_tables.run_bench_tables(
        bits=[4], workers=2, output=out),
    "service": lambda out, tmp: bench_service.run_bench_service(
        benchmarks=["ex"], bits=4, output=out, workdir=str(tmp / "work")),
}

MODULES = {"analysis": bench_analysis, "dataflow": bench_dataflow,
           "timing": bench_timing, "tables": bench_tables,
           "service": bench_service}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """name -> (returned report, report read back from disk)."""
    patch = pytest.MonkeyPatch()
    patch.setattr(benchkit, "names", lambda: ["ex"])
    patch.setattr(bench_tables, "FLOW_ORDER", ("camad",))
    patch.setattr(bench_tables, "ExperimentConfig",
                  SimpleNamespace(quick=_tiny_config))
    results = {}
    try:
        for name, run in RUNS.items():
            tmp = tmp_path_factory.mktemp(name)
            out = tmp / f"BENCH_{name}.json"
            report = run(str(out), tmp)
            results[name] = (report, json.loads(out.read_text()))
    finally:
        patch.undo()
    return results


class TestHelpers:
    def test_best_of_keeps_the_fastest_call_result(self):
        calls = []
        seconds, result = benchkit.best_of(lambda: calls.append(1) or
                                           len(calls), 3)
        assert len(calls) == 3 and result in (1, 2, 3) and seconds >= 0

    def test_best_of_runs_at_least_once(self):
        assert benchkit.best_of(lambda: "x", 0)[1] == "x"

    def test_best_of_setup_builds_a_fresh_argument(self):
        made = []
        benchkit.best_of(lambda arg: arg, 2,
                         setup=lambda: made.append(object()) or made[-1])
        assert len(made) == 2

    def test_sweep_reports_every_cell(self, monkeypatch):
        monkeypatch.setattr(benchkit, "names", lambda: ["a", "b"])
        seen = []
        cells = benchkit.sweep([4, 8], lambda b, w: {"id": f"{b}{w}"},
                               lambda cell: cell["id"], seen.append)
        assert [c["id"] for c in cells] == ["a4", "a8", "b4", "b8"]
        assert seen[0] == "a/4-bit: a4" and len(seen) == 4

    def test_write_report_stamps_the_header(self, tmp_path):
        out = tmp_path / "r.json"
        report = benchkit.write_report(out, "s/v1", "p", {"x": 1})
        assert list(report)[:3] == ["schema", "protocol", "cpu_count"]
        assert json.loads(out.read_text()) == report


@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_report_carries_the_header(reports, name):
    report, on_disk = reports[name]
    assert on_disk == report
    assert report["schema"] and report["protocol"]
    assert isinstance(report["cpu_count"], int)
    assert MODULES[name].SUMMARY.format(**report)


def test_bench_analysis_smallest_cell(reports):
    report, _ = reports["analysis"]
    [cell] = report["cells"]
    assert cell["benchmark"] == "ex" and cell["bits"] == 4
    assert cell["markings"] > 0 and report["verdicts_agree"]
    assert report["cells_total"] == 1


def test_bench_tables_smallest_cell(reports):
    report, _ = reports["tables"]
    assert [run["label"] for run in report["runs"]] == [
        "sequential-cold", "parallel-cold", "parallel-warm"]
    assert len(report["cells"]) == 1 and report["rows_identical"]
    assert report["warm_hit_rate"] == 1.0
    assert bench_tables.passed(report)


def test_bench_service_smallest_cell(reports):
    report, _ = reports["service"]
    assert report["jobs"] == 1 and report["results_identical"]
    assert report["fault_round"]["retries"] >= 1
    assert report["fault_round"]["quarantined"] == 1
    assert bench_service.passed(report)
