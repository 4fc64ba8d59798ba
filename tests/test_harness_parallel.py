"""Parallel grid executor: determinism, crash degradation, resume."""

import pytest

from repro.atpg import RandomPhaseConfig
from repro.bench import load
from repro.cost import CostModel
from repro.harness import ExperimentConfig
from repro.harness.parallel import explore_grid, run_parallel_grid
from repro.runtime import ACTION_CRASH, Injection, Journal, scrubbed_records
from repro.runtime.checkpoint import cell_record


def _tiny_config(bits: int) -> ExperimentConfig:
    return ExperimentConfig(
        bits=bits, fault_fraction=0.25,
        random=RandomPhaseConfig(max_sequences=4, saturation=2,
                                 sequence_length=12),
        max_backtracks=16)


GRID = [("camad", 4), ("approach2", 4)]


def _records(outcome) -> list[dict]:
    return [cell_record(cell) for cell in outcome.cells]


class TestDeterminism:
    @pytest.fixture(scope="class")
    def sequential(self):
        return run_parallel_grid("ex", GRID, _tiny_config, workers=1)

    def test_workers4_rows_identical_to_workers1(self, sequential):
        parallel = run_parallel_grid("ex", GRID, _tiny_config, workers=4)
        assert parallel.ok()
        assert parallel.workers == 4
        assert scrubbed_records(_records(parallel)) == \
            scrubbed_records(_records(sequential))

    def test_cells_come_back_in_grid_order(self, sequential):
        keys = [(c.benchmark, c.flow, c.bits) for c in sequential.cells]
        assert keys == [("ex", flow, bits) for flow, bits in GRID]
        assert sequential.computed == len(GRID)
        assert sequential.replayed == 0


class TestWorkerCrash:
    def test_crash_degrades_and_resume_completes(self, tmp_path):
        journal = Journal(tmp_path / "grid.jsonl")
        crash = {("ex", "approach2", 4):
                 (Injection("harness.worker", ACTION_CRASH),)}
        outcome = run_parallel_grid("ex", GRID, _tiny_config, workers=2,
                                    journal=journal, worker_chaos=crash)
        assert not outcome.ok()
        assert [s.key for s in outcome.skipped] == [("ex", "approach2", 4)]
        assert "ChaosCrash" in outcome.skipped[0].reason
        assert len(outcome.cells) == 1          # explicitly partial grid
        assert len(journal.completed_cells()) == 1

        resumed = run_parallel_grid("ex", GRID, _tiny_config, workers=2,
                                    journal=journal, resume=True)
        assert resumed.ok()
        assert resumed.replayed == 1            # survivor from the journal
        assert resumed.computed == 1            # only the lost cell re-ran
        assert len(resumed.cells) == len(GRID)
        assert len(journal.completed_cells()) == len(GRID)


class TestDegradation:
    def test_cell_wall_ceiling_degrades_instead_of_hanging(self):
        outcome = run_parallel_grid("ex", [("ours", 4)], _tiny_config,
                                    workers=2, cell_wall_seconds=0.001)
        assert outcome.ok()                     # a row, not a lost cell
        assert outcome.cells[0].row()["degraded"] is True
        # The *why* survives the worker's record round-trip too.
        assert any("budget_exhausted" in reason
                   for reason in outcome.cells[0].degradation)


class TestExploreGrid:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_parallel_sweep_matches_sequential(self, workers):
        from repro.synth import explore
        small = [(1, 2.0, 1.0), (3, 2.0, 1.0), (3, 2.0, 1.0)]
        seq = explore(load("ex"), CostModel(bits=4), small)
        par = explore_grid("ex", 4, small, workers=workers)

        def flatten(points):
            return [(p.params, p.execution_time,
                     round(p.hardware_mm2, 9), round(p.quality, 9))
                    for p in points]

        assert flatten(par) == flatten(seq)
        assert len(seq) < len(small)            # the repeat was deduplicated


class TestInterrupt:
    def test_inline_interrupt_returns_partial_grid(self, tmp_path,
                                                   monkeypatch):
        import repro.harness.parallel as parallel_module

        journal = Journal(tmp_path / "grid.jsonl")
        real_task = parallel_module._cell_task

        def interrupting(benchmark, flow, *args):
            if flow == "approach2":
                raise KeyboardInterrupt
            return real_task(benchmark, flow, *args)

        monkeypatch.setattr(parallel_module, "_cell_task", interrupting)
        outcome = run_parallel_grid("ex", GRID, _tiny_config, workers=1,
                                    journal=journal)
        assert outcome.interrupted
        assert len(outcome.cells) == 1          # camad finished first
        assert [s.key for s in outcome.skipped] == [("ex", "approach2", 4)]
        assert outcome.skipped[0].reason == "interrupted"
        # the finished cell was journaled before the interrupt, so a
        # resume completes the grid without an interrupt in sight
        monkeypatch.setattr(parallel_module, "_cell_task", real_task)
        resumed = run_parallel_grid("ex", GRID, _tiny_config, workers=1,
                                    journal=journal, resume=True)
        assert resumed.ok() and not resumed.interrupted
        assert resumed.replayed == 1 and resumed.computed == 1

    def test_pool_interrupt_cancels_and_marks_pending(self, monkeypatch):
        import repro.harness.parallel as parallel_module

        def interrupting_wait(not_done, return_when=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(parallel_module, "wait", interrupting_wait)
        outcome = run_parallel_grid("ex", GRID, _tiny_config, workers=2)
        assert outcome.interrupted and not outcome.ok()
        assert len(outcome.cells) == 0
        assert sorted(s.key for s in outcome.skipped) == \
            sorted(("ex", flow, bits) for flow, bits in GRID)
        assert all(s.reason == "interrupted" for s in outcome.skipped)


class TestOneEvaluator:
    """The grid and the service evaluate a cell through the same code."""

    REQUEST = dict(benchmark="ex", flow="camad", bits=4, fault_fraction=0.25,
                   max_sequences=4, saturation=2, sequence_length=12,
                   max_backtracks=16)

    def _service_record(self, spool_dir, cache) -> dict:
        from repro.service import JobRequest, Spool, Supervisor
        spool = Spool(spool_dir)
        jid, _ = spool.submit(JobRequest(**self.REQUEST))
        outcome = Supervisor(spool, workers=1, cache=cache).run()
        assert outcome.done == 1
        record = spool.read_result(jid)
        assert record is not None
        return record

    def _grid_record(self, cache) -> dict:
        from repro.service import JobRequest
        request = JobRequest(**self.REQUEST)
        outcome = run_parallel_grid(
            "ex", [(request.flow, request.bits)],
            lambda bits: request.config(), workers=1, cache=cache)
        assert outcome.ok()
        return cell_record(outcome.cells[0])

    def test_grid_and_service_records_identical(self, tmp_path):
        from repro.harness import ResultCache
        grid = self._grid_record(ResultCache())
        service = self._service_record(tmp_path / "cold", ResultCache())
        assert scrubbed_records([grid]) == scrubbed_records([service])
        # Same inputs, same cache key: the two paths share cache entries.
        assert grid["provenance"] == service["provenance"]

    def test_service_hits_what_the_grid_cached(self, tmp_path):
        from repro.harness import ResultCache
        cache = ResultCache(cache_dir=tmp_path / "cache")
        grid = self._grid_record(cache)
        before = cache.stats.snapshot()
        service = self._service_record(tmp_path / "warm", cache)
        assert cache.stats.delta(before).misses == 0
        assert service == grid                  # wall clock and all
