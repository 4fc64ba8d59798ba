"""Work-stealing parallel executor for experiment grids.

The benchmark × flow × bit-width grid behind one paper table is
embarrassingly parallel: every cell is an independent synthesis + ATPG
+ costing pipeline.  :func:`run_parallel_grid` shards pending cells
across a :class:`~concurrent.futures.ProcessPoolExecutor` (workers pull
cells as they finish — work stealing for free) and composes with the
checkpoint journal (:mod:`repro.runtime.checkpoint`):

* **Journal ownership protocol** — workers never touch the journal.
  They return one serialised cell record (the exact
  :func:`~repro.runtime.checkpoint.cell_record` shape) and the *parent*
  is the sole journal writer, appending each record as its future
  completes.  ``--resume`` therefore composes with any worker count: a
  resumed run replays journaled cells and shards only the remainder.
* **Determinism** — a cell's deterministic fields depend only on its
  inputs, never on scheduling, and results are reassembled in grid
  order, so ``workers=1`` and ``workers=N`` render byte-identical
  table rows (wall-clock seconds are the one nondeterministic column;
  :func:`~repro.runtime.checkpoint.scrubbed_records` masks them when
  comparing).
* **Degradation** — a worker that raises (including a simulated
  process death injected at the ``harness.worker`` chaos seam, or a
  broken pool) costs exactly its own cell: the parent records a
  :class:`SkippedCell` with the failure reason and the grid completes
  partially, mirroring Algorithm 1's skipped-candidate contract.
  Per-cell wall-clock ceilings (``cell_wall_seconds``) are enforced
  *inside* the worker by a fresh :class:`~repro.runtime.budget.Budget`,
  so a slow cell degrades to a valid partial row instead of hanging
  the pool.
* **Caching** — workers share the content-hash result cache's disk
  tier (:mod:`repro.harness.cache`); repeated cells and
  bit-width-independent baseline synthesis become lookups.

``workers=1`` runs every cell inline in the parent process (no pool,
no pickling), which is also the path that honours a shared
:class:`Budget` and a parent-activated chaos injector.  Both modes run
the same task, :func:`_cell_task`, around the one cell evaluator
:func:`~repro.harness.cache.run_cell_cached`, which the service uses
too.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Generator, Iterable, Optional, Union

from ..runtime.budget import Budget
from ..runtime.chaos import (ChaosCrash, ChaosInjector, Injection,
                             active_injector, chaos_point, clear_injector)
from ..runtime.checkpoint import CellKey, Journal, restore_cell
from .cache import CacheStats, ResultCache, run_cell_cached


def _worker_count(workers: Optional[int]) -> int:
    """``workers``, or the CPU count for None; below 1 is an error."""
    if workers is None:
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return workers


@dataclass(frozen=True)
class SkippedCell:
    """A grid cell lost to a worker failure (crash, broken pool)."""

    benchmark: str
    flow: str
    bits: int
    reason: str

    @property
    def key(self) -> CellKey:
        return (self.benchmark, self.flow, self.bits)


@dataclass
class GridOutcome:
    """Everything one (possibly parallel, possibly resumed) grid run
    produced."""

    #: Completed cells in grid order (live ``CellResult`` or restored
    #: ``JournaledCell`` — they render identically).  Skipped cells are
    #: absent, making the grid explicitly partial.
    cells: list[Any] = field(default_factory=list)
    skipped: list[SkippedCell] = field(default_factory=list)
    workers: int = 1
    elapsed_seconds: float = 0.0
    #: Cells replayed from the journal (resume) / computed this run.
    replayed: int = 0
    computed: int = 0
    #: Aggregated cache counters across the parent and every worker.
    cache_stats: CacheStats = field(default_factory=CacheStats)
    #: True when Ctrl-C cut the run short.  Completed cells were
    #: already journaled (one fsynced append each), so a ``--resume``
    #: picks up exactly where the interrupt landed; the unfinished
    #: cells appear in ``skipped`` with reason ``"interrupted"``.
    interrupted: bool = False

    def ok(self) -> bool:
        """True when no cell was lost."""
        return not self.skipped


# ----------------------------------------------------------------------
# The cell task (inline and pooled)
# ----------------------------------------------------------------------
#: Per-process cache instances, keyed by disk-tier path.  A pool worker
#: serves many cells; keeping one ResultCache per cache-dir gives it a
#: warm in-memory tier across those cells.
_PROCESS_CACHES: dict[str, ResultCache] = {}


def _process_cache(cache_dir: str) -> ResultCache:
    cache = _PROCESS_CACHES.get(cache_dir)
    if cache is None:
        cache = ResultCache(cache_dir=Path(cache_dir))
        _PROCESS_CACHES[cache_dir] = cache
    return cache


def _worker_init() -> None:
    """Pool initializer: forget any chaos injector inherited via fork.

    Worker chaos is always explicit (per-cell plans in the task), never
    an accidental replay of the parent's active injector.
    """
    clear_injector()


def _cell_task(benchmark: str, flow: str, bits: int, config: Any,
               cache: Union[ResultCache, str, None],
               budget: Optional[Budget] = None,
               cell_wall_seconds: Optional[float] = None,
               injections: tuple[Injection, ...] = ()
               ) -> tuple[dict, CacheStats]:
    """Evaluate one grid cell, inline or in a pool worker.

    ``cache`` is the parent's :class:`ResultCache` inline and a
    disk-tier path in a worker (served by one per-process cache).  A
    shared ``budget`` bounds the cell; without one,
    ``cell_wall_seconds`` builds a fresh per-cell Budget.  Per-cell
    chaos ``injections`` apply unless an injector is already active
    (the parent's, inline), so plans never nest.  The
    ``harness.worker`` seam at the top is where chaos plans kill a
    cell deterministically.

    Returns the journal record and this cell's cache-counter delta —
    plain data, cheap to pickle.
    """
    if isinstance(cache, str):
        cache = _process_cache(cache)
    if budget is None and cell_wall_seconds is not None:
        budget = Budget(wall_seconds=cell_wall_seconds)
    before = cache.stats.snapshot() if cache is not None else CacheStats()
    with (ChaosInjector(*injections)
          if injections and active_injector() is None else nullcontext()):
        chaos_point("harness.worker", (benchmark, flow, bits))
        record = run_cell_cached(benchmark, flow, config, cache=cache,
                                 budget=budget)
    return record, (cache.stats.delta(before) if cache is not None
                    else before)


#: One pending cell: its grid key and the :func:`_cell_task` arguments.
_Task = tuple[CellKey, tuple]
#: Finished cells: each key with the task's result, or what it raised.
_Completions = Generator[
    tuple[CellKey, Union[tuple[dict, CacheStats], Exception]], None, None]


def _label(key: CellKey) -> str:
    return f"{key[0]}/{key[1]}/{key[2]}-bit"


def _inline(tasks: list[_Task],
            progress: Optional[Callable[[str], None]]) -> _Completions:
    """Run the tasks one by one in this process."""
    for key, args in tasks:
        if progress:
            progress(f"running {_label(key)} ...")
        try:
            result: Any = _cell_task(*args)
        except ChaosCrash:
            raise  # simulated death of *this* process must not be absorbed
        except Exception as exc:  # noqa: BLE001 - degradation barrier
            result = exc
        yield key, result


def _pooled(tasks: list[_Task], workers: int,
            progress: Optional[Callable[[str], None]]) -> _Completions:
    """Shard the tasks across a process pool, yielding in finish order."""
    if not tasks:
        return
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks)),
                             initializer=_worker_init) as pool:
        futures = {}
        for key, args in tasks:
            if progress:
                progress(f"dispatching {_label(key)} ...")
            futures[pool.submit(_cell_task, *args)] = key
        not_done = set(futures)
        try:
            while not_done:
                finished, not_done = wait(not_done,
                                          return_when=FIRST_COMPLETED)
                for future in finished:
                    try:
                        result: Any = future.result()
                    except Exception as exc:  # noqa: BLE001 - worker died
                        result = exc
                    yield futures[future], result
        except BaseException:
            # Ctrl-C (or the consumer closing us): drop queued cells.  A
            # real SIGINT also reaches the workers — same process group
            # — so the context manager's final wait is brief.
            pool.shutdown(wait=False, cancel_futures=True)
            raise


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def run_parallel_grid(benchmark: str,
                      grid: Iterable[tuple[str, int]],
                      config_for: Callable[[int], Any],
                      *,
                      workers: Optional[int] = None,
                      journal: Optional[Journal] = None,
                      resume: bool = False,
                      cache: Optional[ResultCache] = None,
                      budget: Optional[Budget] = None,
                      cell_wall_seconds: Optional[float] = None,
                      worker_chaos: Optional[
                          dict[CellKey, tuple[Injection, ...]]] = None,
                      progress: Optional[Callable[[str], None]] = None
                      ) -> GridOutcome:
    """Run (or resume) a grid of table cells, sharded across processes.

    Args:
        benchmark: the benchmark every cell runs.
        grid: (flow, bits) pairs in table order.
        config_for: bits -> ExperimentConfig for that column.
        workers: process count (at least 1); None = ``os.cpu_count()``,
            1 = inline.
        journal: completed-cell ledger; written only by this (parent)
            process, one fsynced append per completed cell.
        resume: replay cells already in ``journal``.
        cache: content-hash result cache.  Workers share its disk tier;
            a memory-only cache still serves the inline path and each
            worker's own repeats.
        budget: a shared Budget for the whole grid — inline only (a
            Budget is process-local), so ``workers`` is forced to 1
            when one is given.
        cell_wall_seconds: per-cell wall-clock ceiling (when no shared
            ``budget`` is given), enforced by a fresh Budget inside the
            cell's task; an overrunning cell degrades to a valid
            partial row instead of hanging the pool.
        worker_chaos: per-cell chaos plans (cell key -> injections),
            activated inside the owning task — the deterministic way
            to kill worker N of a parallel run.
        progress: optional per-cell status callback.

    Returns:
        A :class:`GridOutcome`; ``outcome.cells`` is in grid order and
        explicitly partial when workers failed (``outcome.skipped``).
        A Ctrl-C returns the cells completed so far with
        ``interrupted`` set; each of them is already journaled, so
        ``resume`` continues where the interrupt landed.
    """
    started = time.perf_counter()
    grid = list(grid)
    workers = _worker_count(workers)
    if budget is not None:
        workers = 1  # a shared Budget cannot cross process boundaries
    worker_chaos = worker_chaos or {}

    outcome = GridOutcome(workers=workers)
    done = (journal.completed_cells()
            if journal is not None and resume else {})
    results: dict[CellKey, Any] = {}
    pending: list[CellKey] = []
    for flow, bits in grid:
        key: CellKey = (benchmark, flow, bits)
        if key in done:
            if key not in results:
                if progress:
                    progress(f"resuming {_label(key)} from journal")
                results[key] = restore_cell(done[key])
                outcome.replayed += 1
        elif key not in pending:
            pending.append(key)

    shared: Union[ResultCache, str, None] = cache
    if workers > 1:  # workers reach the cache through its disk tier
        shared = (str(cache.cache_dir)
                  if cache is not None and cache.cache_dir is not None
                  else None)
    tasks = [(key, (*key, config_for(key[2]), shared, budget,
                    cell_wall_seconds, worker_chaos.get(key, ())))
             for key in pending]
    completions = (_inline(tasks, progress) if workers == 1
                   else _pooled(tasks, workers, progress))
    try:
        for key, result in completions:
            if isinstance(result, Exception):
                reason = f"{type(result).__name__}: {result}"
                outcome.skipped.append(SkippedCell(*key, reason=reason))
                if progress:
                    progress(f"skipped {_label(key)}: {reason}")
                continue
            record, stats = result
            if journal is not None:  # the parent is the sole writer
                journal.append(record)
            results[key] = restore_cell(record)
            outcome.computed += 1
            outcome.cache_stats.add(stats)
            if progress:
                verdict = ("cache hit" if stats.hits and not stats.misses
                           else "computed")
                progress(f"finished {_label(key)} ({verdict})")
    except KeyboardInterrupt:
        completions.close()
        outcome.interrupted = True
        lost = {s.key for s in outcome.skipped}
        outcome.skipped.extend(SkippedCell(*key, reason="interrupted")
                               for key in pending
                               if key not in results and key not in lost)
        if progress:
            progress("interrupted; returning partial grid "
                     "(journaled cells are safe, --resume continues)")

    emitted: set[CellKey] = set()
    for flow, bits in grid:
        key = (benchmark, flow, bits)
        cell = results.get(key)
        if cell is not None and key not in emitted:
            emitted.add(key)
            outcome.cells.append(cell)
    outcome.elapsed_seconds = time.perf_counter() - started
    return outcome


# ----------------------------------------------------------------------
# Parallel parameter exploration
# ----------------------------------------------------------------------
def explore_grid(benchmark: str, bits: int,
                 grid: Optional[list[tuple[int, float, float]]] = None,
                 *,
                 workers: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> "list[Any]":
    """The parallel twin of :func:`repro.synth.explore.explore`.

    Maps the same per-point step (:func:`~repro.synth.explore.
    explore_point`) over a process pool, then deduplicates by design
    signature *in grid order*, so the returned points match the
    sequential sweep exactly regardless of completion order.
    """
    from itertools import repeat

    from ..bench import load
    from ..cost import CostModel
    from ..synth.explore import (DEFAULT_GRID, distinct_points, explore,
                                 explore_point)

    workers = _worker_count(workers)
    grid = list(grid or DEFAULT_GRID)
    dfg, cost_model = load(benchmark), CostModel(bits=bits)
    if workers == 1:
        return explore(dfg, cost_model, grid, cache=cache)

    # Workers share only the disk tier: each task gets an empty memory
    # tier over the same cache directory.
    shared = (ResultCache(cache_dir=cache.cache_dir)
              if cache is not None and cache.cache_dir is not None
              else None)
    swept: list[Any] = []
    with ProcessPoolExecutor(max_workers=min(workers, len(grid)),
                             initializer=_worker_init) as pool:
        for point, result in zip(grid, pool.map(
                explore_point, repeat(dfg), repeat(cost_model), grid,
                repeat(shared))):
            swept.append(result)
            if progress:
                progress(f"explored (k={point[0]}, a={point[1]:g}, "
                         f"b={point[2]:g})")
    return distinct_points(swept)
