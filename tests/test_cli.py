"""Tests for the command-line interface (fast subcommands only)."""

import pytest

from repro.cli import main


class TestCli:
    def test_synth_command(self, capsys):
        assert main(["synth", "ex", "-k", "3", "-a", "2", "-b", "1",
                     "--bits", "8"]) == 0
        out = capsys.readouterr().out
        assert "Schedule of ex" in out
        assert "mergers applied" in out

    def test_fig2_command(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "Schedule of ex" in out
        assert "share" in out

    def test_fig3_command(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "Schedule of dct" in out
        assert "Schedule of diffeq" in out
        assert "loop while cond" in out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["synth", "nothere"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_synth_history_printed(self, capsys):
        main(["synth", "tseng", "--bits", "4"])
        out = capsys.readouterr().out
        assert "dE=" in out and "dH=" in out


class TestCliExtensions:
    def test_explore_command(self, capsys):
        assert main(["explore", "tseng", "--bits", "8"]) == 0
        out = capsys.readouterr().out
        assert "Pareto front" in out

    def test_export_dot(self, capsys):
        assert main(["export", "tseng", "--what", "dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_export_json(self, capsys):
        import json
        assert main(["export", "tseng", "--what", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["format"] == "repro-design-v1"

    def test_export_verilog(self, capsys):
        assert main(["export", "tseng", "--what", "verilog",
                     "--bits", "4"]) == 0
        out = capsys.readouterr().out
        assert "module" in out and "endmodule" in out

    def test_report_command(self, tmp_path, capsys):
        rows = tmp_path / "rows.jsonl"
        rows.write_text("")
        assert main(["report", "--rows", str(rows)]) == 0
        assert "no rows recorded" in capsys.readouterr().out


class TestWorkersValidation:
    @pytest.mark.parametrize("argv", [
        ["table1", "--bits", "4"],
        ["table2", "--bits", "4"],
        ["table3", "--bits", "4"],
        ["bench", "ex", "--flow", "camad", "--bits", "4"],
        ["explore", "ex", "--bits", "4"],
        ["bench-tables", "--bits", "4"],
        ["serve", "run"],
    ])
    @pytest.mark.parametrize("workers", ["-1", "0", "two"])
    def test_workers_below_one_is_a_usage_error(self, argv, workers,
                                                capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--workers", workers])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--workers" in err and "Traceback" not in err


class TestWorkersValidationApi:
    """The Python APIs reject what the CLI rejects; None = CPU count."""

    @pytest.mark.parametrize("workers", [0, -1])
    def test_run_parallel_grid(self, workers):
        from repro.harness import ExperimentConfig
        from repro.harness.parallel import run_parallel_grid
        with pytest.raises(ValueError, match="at least 1"):
            run_parallel_grid("ex", [("camad", 4)], ExperimentConfig.quick,
                              workers=workers)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_explore_grid(self, workers):
        from repro.harness.parallel import explore_grid
        with pytest.raises(ValueError, match="at least 1"):
            explore_grid("ex", 4, workers=workers)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_supervisor(self, tmp_path, workers):
        from repro.service import Spool, Supervisor
        with pytest.raises(ValueError, match="at least 1"):
            Supervisor(Spool(tmp_path), workers=workers)

    def test_none_means_the_cpu_count(self):
        import os

        from repro.harness import ExperimentConfig
        from repro.harness.parallel import run_parallel_grid
        outcome = run_parallel_grid("ex", [], ExperimentConfig.quick,
                                    workers=None)
        assert outcome.workers == (os.cpu_count() or 1)


class TestAnalysisTargets:
    """lint, analyze, timing and dataflow share one target resolver."""

    @pytest.mark.parametrize("argv", [
        ["analyze"], ["analyze", "--structural"], ["analyze", "--cross-check"],
        ["timing"], ["dataflow"],
    ])
    def test_uncompilable_hdl_exits_2(self, argv, tmp_path, capsys):
        source = tmp_path / "bad.hdl"
        source.write_text("design bad; input a; begin x := a +; end")
        assert main(argv + [str(source)]) == 2
        captured = capsys.readouterr()
        assert "cannot compile" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["lint", "analyze", "timing",
                                         "dataflow"])
    def test_unknown_target_after_a_good_one_exits_2(self, command, capsys):
        assert main([command, "ex", "nothere", "--bits", "4"]) == 2
        captured = capsys.readouterr()
        assert "neither a registered benchmark" in captured.err
        assert captured.out == ""
