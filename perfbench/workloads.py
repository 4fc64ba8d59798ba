"""The three closed-loop workloads: inputs, ops, output checks.

Each workload is driven by one client in one process with one op in
flight.  ``setup`` does everything a user pays before the first op —
imports, input generation, cache and history fill and one untimed
warm-up op — so first-call effects land in ``setup_s``, not in the
latency tail.  ``plan`` draws a pass's ops from the workload seed;
``run_op`` is the only timed call; ``check`` and ``finish`` verify the
outputs outside the timed region against ``expected.json`` and the
independent semantics oracle
(:func:`repro.analysis.merger_preserves_semantics`).
"""

from __future__ import annotations

import json
import os
import random
import shutil
from collections import Counter
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

#: Tables 1-3 (ex, dct, diffeq) plus paulin and tseng, all four flows.
TABLE_BENCHMARKS = ("ex", "dct", "diffeq", "paulin", "tseng")
FLOWS = ("camad", "approach1", "approach2", "ours")
#: The ATPG seeds of table cells.  A pass gives a third of the cells
#: each seed (the workload seed draws which third); the next two passes
#: rotate them, so every three passes hold each (cell, ATPG seed) pair
#: once and the seed changes only the order, never the work.  With two
#: seeds the cells fell into two clusters of equal size (0.06-0.18 s
#: and 0.25 s up), the median sat in the gap between them and one slow
#: op moved it by a quarter; the third seed fills that gap.
ATPG_SEEDS = (2026, 7, 1998)
#: Sampled-fault ATPG budgets of every cell (table cells and service
#: jobs alike), sized so a pass of 20 cells takes about ten seconds.
CELL_BITS = 4
FAULT_FRACTION = 0.05
MAX_SEQUENCES = 4
SATURATION = 2
MAX_BACKTRACKS = 8

SYNTH_BENCHMARKS = ("ex", "dct", "diffeq", "paulin", "tseng", "iir", "ar")
SYNTH_BITS = (4, 8, 16)
#: k values of the explore grid around PAPER_PARAMS (α, β stay at the
#: paper's per-width values).  The seed draws the k of each (benchmark,
#: width) in the first pass; the next pass uses the other one, so every
#: run of two passes holds each (benchmark, width, k) once.
SYNTH_KS = (3, 4)

#: Distinct service cells, each run cold once in set-up.
SERVICE_CELLS = (("ex", "approach1"), ("ex", "ours"),
                 ("diffeq", "approach2"), ("paulin", "approach1"),
                 ("tseng", "ours"), ("tseng", "approach2"))
#: Completed jobs in the WAL when the first timed request arrives.
SERVICE_HISTORY = 300
SERVICE_NEW = 80          #: new job ids per pass
SERVICE_RESUBMIT = 20     #: exact resubmissions of history jobs per pass


def cell_key(benchmark: str, flow: str, atpg_seed: int) -> str:
    return f"{benchmark}|{flow}|{atpg_seed}"


def design_key(benchmark: str, bits: int, k: int) -> str:
    return f"{benchmark}|{bits}|{k}"


def cell_config(atpg_seed: int) -> Any:
    """The ExperimentConfig of every cell the benchmark runs."""
    from repro.atpg import RandomPhaseConfig
    from repro.harness.experiment import ExperimentConfig
    return ExperimentConfig(
        bits=CELL_BITS, fault_fraction=FAULT_FRACTION,
        random=RandomPhaseConfig(max_sequences=MAX_SEQUENCES,
                                 saturation=SATURATION),
        max_backtracks=MAX_BACKTRACKS, seed=atpg_seed)


def scrubbed_cell(record: dict) -> str:
    """A cell record as canonical bytes, timings and provenance masked."""
    from repro.runtime.checkpoint import scrubbed_records
    return scrubbed_records([record])


def synth_params(bits: int, k: int) -> Any:
    from repro.harness.experiment import PAPER_PARAMS
    from repro.synth import SynthesisParams
    _, alpha, beta = PAPER_PARAMS[bits]
    return SynthesisParams(k=k, alpha=alpha, beta=beta)


def design_summary(result: Any, bits: int) -> dict:
    """Deterministic fingerprint of one synthesis result."""
    import hashlib

    from repro.cost import CostModel
    from repro.io import design_to_dict
    design = result.design
    blob = json.dumps(design_to_dict(design), sort_keys=True)
    return {
        "steps": design.num_steps,
        "modules": design.binding.module_count(),
        "registers": design.binding.register_count(),
        "muxes": design.datapath.mux_count(),
        "area_mm2": round(CostModel(bits=bits).hardware_total(
            design.datapath), 6),
        "mergers": len(result.history),
        "design_sha256": hashlib.sha256(blob.encode()).hexdigest(),
    }


def row_quality(row: dict) -> dict[str, float]:
    """Tables 1-3 quality columns of one cell row."""
    return {"area_mm2": row["area_mm2"], "mux_count": row["muxes"],
            "exec_steps": row["steps"],
            "fault_coverage_pct": row["coverage_pct"],
            "tg_effort_k": row["tg_effort_k"],
            "test_cycles": row["test_cycles"]}


def _oracle(design: Any) -> Optional[str]:
    from repro.analysis import merger_preserves_semantics
    if merger_preserves_semantics(design):
        return None
    return "design fails the MHP race / equivalence oracle"


class Workload:
    """Interface of one workload (see the module docstring)."""

    name = ""
    #: A run keeps making passes until it holds this many samples.
    min_samples = 40
    #: Passes that together hold the whole op set once; a run makes a
    #: multiple of this many, so the seed never changes the work.
    cycle = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.expected: dict = {}
        #: design key -> one synthesised design, and the timed ops that
        #: produced it (all of them fail if the oracle rejects it).
        self.designs: dict[str, Any] = {}
        self.uses: Counter[str] = Counter()

    def setup(self) -> None:
        raise NotImplementedError

    def plan(self, pass_index: int) -> list:
        raise NotImplementedError

    def begin_pass(self) -> None:
        """Restore per-pass state (untimed)."""

    def run_op(self, op: Any) -> Any:
        raise NotImplementedError

    def check(self, op: Any, result: Any) -> tuple[Optional[str], dict]:
        """(error or None, quality columns) of one completed op."""
        raise NotImplementedError

    def end_pass(self, ops: list, results: list) -> dict[int, str]:
        """Errors found only once a pass is over, by op index."""
        return {}

    def finish(self) -> int:
        """Run the semantics oracle once per distinct design; returns
        the number of ops whose design failed it."""
        failed = 0
        for key, design in sorted(self.designs.items()):
            error = _oracle(design)
            if error is not None:
                print(f"{self.name}: {key}: {error}", flush=True)
                failed += self.uses[key]
        return failed

    def _remember(self, key: str, design: Any) -> None:
        self.designs.setdefault(key, design)
        self.uses[key] += 1

    def _warm_up(self, op: Any) -> None:
        """Run and check one untimed op, then forget it."""
        error, _ = self.check(op, self.run_op(op))
        if error is not None:
            raise RuntimeError(f"warm-up op {op}: {error}")
        self.designs.clear()
        self.uses.clear()

    def _load_expected(self) -> None:
        self.expected = json.loads(EXPECTED_PATH.read_text())

    def close(self) -> None:
        """Release what set-up created."""


class TableCells(Workload):
    """``run_cell`` over all four flows on five benchmarks at 4 bits."""

    name = "table-cells"
    min_samples = 60
    cycle = len(ATPG_SEEDS)

    def setup(self) -> None:
        import repro.harness.experiment as experiment
        # Looked up per call, so a traced run sees the wrapped function.
        self._experiment = experiment
        self._load_expected()
        self.configs = {s: cell_config(s) for s in ATPG_SEEDS}
        rng = random.Random(self.seed * 7919 + 1)
        cells = [(b, f) for b in TABLE_BENCHMARKS for f in FLOWS]
        slots = [i % len(ATPG_SEEDS) for i in range(len(cells))]
        rng.shuffle(slots)
        self.cells = cells
        self.seed_slot = dict(zip(cells, slots))
        self._warm_up(("ex", "ours", ATPG_SEEDS[0]))

    def plan(self, pass_index: int) -> list:
        rng = random.Random(self.seed * 7919 + 100 + pass_index)
        order = list(self.cells)
        rng.shuffle(order)
        return [(b, f, ATPG_SEEDS[(self.seed_slot[(b, f)] + pass_index)
                                  % len(ATPG_SEEDS)])
                for b, f in order]

    def run_op(self, op: Any) -> Any:
        benchmark, flow, atpg_seed = op
        return self._experiment.run_cell(benchmark, flow,
                                         self.configs[atpg_seed])

    def check(self, op: Any, cell: Any) -> tuple[Optional[str], dict]:
        from repro.runtime.checkpoint import cell_record
        benchmark, flow, _ = op
        row = cell.row()
        self._remember(f"{benchmark}|{flow}", cell.design)
        if cell.degraded:
            return f"degraded: {cell.degradation}", row_quality(row)
        want = self.expected["cells"].get(cell_key(*op))
        if scrubbed_cell(cell_record(cell)) != want:
            return "cell differs from expected.json", row_quality(row)
        return None, row_quality(row)


class SynthOurs(Workload):
    """``synth.run_flow("ours")`` alone: no RTL, gates or ATPG."""

    name = "synth-ours"
    min_samples = 40
    cycle = len(SYNTH_KS)

    def setup(self) -> None:
        import repro.synth as synth
        from repro.bench import load
        from repro.cost import CostModel
        # Looked up per call, so a traced run sees the wrapped function.
        self._synth = synth
        self._load_expected()
        self.dfgs = {b: load(b) for b in SYNTH_BENCHMARKS}
        self.models = {bits: CostModel(bits=bits) for bits in SYNTH_BITS}
        self.params = {(bits, k): synth_params(bits, k)
                       for bits in SYNTH_BITS for k in SYNTH_KS}
        rng = random.Random(self.seed * 7919 + 2)
        self.k_slot = {(b, bits): rng.randrange(len(SYNTH_KS))
                       for b in SYNTH_BENCHMARKS for bits in SYNTH_BITS}
        self._warm_up(("tseng", 4, 3))

    def plan(self, pass_index: int) -> list:
        rng = random.Random(self.seed * 7919 + 200 + pass_index)
        ops = [(b, bits, SYNTH_KS[(slot + pass_index) % len(SYNTH_KS)])
               for (b, bits), slot in self.k_slot.items()]
        rng.shuffle(ops)
        return ops

    def run_op(self, op: Any) -> Any:
        benchmark, bits, k = op
        return self._synth.run_flow("ours", self.dfgs[benchmark],
                                    cost_model=self.models[bits],
                                    params=self.params[(bits, k)])

    def check(self, op: Any, result: Any) -> tuple[Optional[str], dict]:
        benchmark, bits, k = op
        summary = design_summary(result, bits)
        quality = {"area_mm2": round(summary["area_mm2"], 3),
                   "mux_count": summary["muxes"],
                   "exec_steps": summary["steps"]}
        self._remember(design_key(*op), result.design)
        if result.degraded:
            return f"degraded: {result.degradation_reasons}", quality
        if summary != self.expected["designs"].get(design_key(*op)):
            return "design differs from expected.json", quality
        return None, quality


class ServiceHistory(Workload):
    """Submit → ``Supervisor(workers=1).run()`` → ``read_result`` per
    request, against a spool whose WAL already holds a long history."""

    name = "service-history"
    min_samples = 100

    def setup(self) -> None:
        from repro.harness.cache import ResultCache
        from repro.service.spool import JobRequest, Spool
        from repro.service.supervisor import Supervisor
        self._request = JobRequest
        self._supervisor = Supervisor
        self._load_expected()
        root = self.workdir / "spool"
        self.spool = Spool(root)
        self.cache = ResultCache(cache_dir=root / "cache")
        # Each distinct cell once, cold, through the service.
        for index, (b, f) in enumerate(SERVICE_CELLS):
            jid, _ = self.spool.submit(self._job(b, f, 600.0 + index))
            Supervisor(self.spool, workers=1, cache=self.cache).run()
            if self.spool.read_result(jid) is None:
                raise RuntimeError(f"cold service job {b}/{f} has no result")
        # Fill the history: submit a batch, then drain it in one run.
        filler = SERVICE_HISTORY - len(SERVICE_CELLS) - 1
        self.history_of: dict[tuple[str, str], list] = {}
        for index in range(filler):
            b, f = SERVICE_CELLS[index % len(SERVICE_CELLS)]
            request = self._job(b, f, 1000.0 + index)
            self.spool.submit(request)
            self.history_of.setdefault((b, f), []).append((b, f, request))
        outcome = Supervisor(self.spool, workers=1, cache=self.cache).run()
        if outcome.done != filler or not outcome.drained:
            raise RuntimeError(f"history fill finished {outcome.done} of "
                               f"{filler} jobs")
        self._warm_up(("ex", "approach1", 500.0))
        self.history_jobs = len(self.spool.states())
        # Snapshot the spool so every pass starts from this history.
        self.wal = self.spool.ledger.path.read_bytes()
        self.job_files = set(os.listdir(self.spool.jobs_dir))
        self.result_files = set(os.listdir(self.spool.results_dir))

    def _job(self, benchmark: str, flow: str, deadline: float) -> Any:
        return self._request(
            benchmark, flow, bits=CELL_BITS, deadline_seconds=deadline,
            fault_fraction=FAULT_FRACTION, max_sequences=MAX_SEQUENCES,
            saturation=SATURATION, max_backtracks=MAX_BACKTRACKS)

    def plan(self, pass_index: int) -> list:
        rng = random.Random(self.seed * 7919 + 300 + pass_index)
        ops = []
        for index in range(SERVICE_NEW):
            b, f = SERVICE_CELLS[index % len(SERVICE_CELLS)]
            ops.append((b, f, 10_000.0 + index))
        # Resubmissions cycle through the cells too, so the seed draws
        # which history jobs are resubmitted but not the cell mix.
        for index in range(SERVICE_RESUBMIT):
            cell = SERVICE_CELLS[index % len(SERVICE_CELLS)]
            b, f, request = rng.choice(self.history_of[cell])
            ops.append((b, f, request.deadline_seconds))
        rng.shuffle(ops)
        return ops

    def begin_pass(self) -> None:
        self.spool.ledger.path.write_bytes(self.wal)
        for directory, keep in ((self.spool.jobs_dir, self.job_files),
                                (self.spool.results_dir, self.result_files)):
            for name in os.listdir(directory):
                if name not in keep:
                    os.unlink(directory / name)

    def run_op(self, op: Any) -> Any:
        benchmark, flow, deadline = op
        jid, _ = self.spool.submit(self._job(benchmark, flow, deadline))
        self._supervisor(self.spool, workers=1, cache=self.cache).run()
        return jid, self.spool.read_result(jid)

    def check(self, op: Any, result: Any) -> tuple[Optional[str], dict]:
        benchmark, flow, _ = op
        _, record = result
        self.uses[f"{benchmark}|{flow}"] += 1
        if record is None:
            return "no result spooled", {}
        quality = row_quality(record["row"])
        if record["row"].get("degraded"):
            return "degraded result", quality
        want = self.expected["cells"].get(
            cell_key(benchmark, flow, ATPG_SEEDS[0]))
        if scrubbed_cell(record) != want:
            return "result differs from expected.json", quality
        return None, quality

    def end_pass(self, ops: list, results: list) -> dict[int, str]:
        states = self.spool.states()
        errors = {}
        for index, result in enumerate(results):
            if result is None:
                continue
            state = states.get(result[0])
            if state is None or state.state != "done":
                errors[index] = (f"job left in state "
                                 f"{state.state if state else 'missing'}")
        return errors

    def finish(self) -> int:
        from repro.harness.experiment import synthesize_flow_result
        for b, f in SERVICE_CELLS:
            result = synthesize_flow_result(b, f, CELL_BITS, cache=self.cache)
            self.designs[f"{b}|{f}"] = result.design
        return super().finish()

    def close(self) -> None:
        shutil.rmtree(self.workdir / "spool", ignore_errors=True)


WORKLOADS = {w.name: w for w in (TableCells, SynthOurs, ServiceHistory)}
