"""The supervisor loop: dispatch, retry, reap, quarantine, drain.

One :class:`Supervisor` owns a :class:`~repro.service.spool.Spool` and
drives its queue to completion:

* **Dispatch** — jobs run FIFO in WAL submit order.  ``workers=1``
  (the default on this 1-CPU class of machine) evaluates jobs inline
  in the supervisor process — the path that honours an active chaos
  injector, which is what makes every failure mode below
  deterministically testable.  ``workers>1`` (or ``isolate=True``)
  runs each job in its own forked worker process, which buys real
  crash isolation and hung-worker reaping at fork cost.
* **Ledger protocol** — the supervisor is the sole WAL writer while
  running (``submit``/``cancel`` CLI appends are safe concurrently:
  single-line O_APPEND writes).  Every transition is committed
  *before* the action it records completes, so replay after a kill at
  any point reconstructs the exact queue; a ``running`` job whose
  result file survived the crash is adopted as ``done`` without
  re-evaluation (results are content-addressed, so adoption is exact).
* **Retry with capped exponential backoff** — a failed job re-enters
  the queue *at the tail* (one poison job can never starve the rest)
  after ``base * 2^(failures-1)`` seconds, capped, plus deterministic
  jitter derived from SHA-256 of (job id, attempt) — reproducible runs,
  no thundering herd.
* **Quarantine circuit breaker** — after ``max_attempts`` consecutive
  failures the job is parked ``quarantined`` and the queue moves on.
* **Reaping** — in process mode a worker that outlives its deadline ×
  grace horizon is terminated and the miss is charged as a failure
  (so a persistently hanging job also quarantines).  Inline jobs are
  bounded by their cooperative :class:`~repro.runtime.budget.Budget`
  instead — they degrade, not hang.
* **Graceful drain** — :meth:`Supervisor.request_stop` (wired to
  SIGTERM/SIGINT by ``repro-hlts serve``) stops dequeuing; running
  work finishes (inline: the current job; process mode: live
  workers), every transition is already fsynced, and :meth:`run`
  returns with ``stopped_reason`` set so the CLI exits 0.

Chaos seams: ``service.dequeue`` (job picked), ``service.dispatch``
(just before evaluation — the canonical transient failure point),
``service.worker_reap`` (the completion/reap check) and
``service.ledger_write`` (inside every WAL commit, via
:class:`~repro.service.ledger.Ledger`).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..runtime.budget import Budget
from ..runtime.chaos import ChaosCrash, chaos_point
from .ledger import (CANCELLED, DONE, FAILED, QUARANTINED, RUNNING,
                     SUBMITTED, JobState)
from .spool import JobRequest, Spool


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/quarantine knobs.

    Attributes:
        max_attempts: consecutive failures before quarantine.
        backoff_base: first retry delay in seconds (0 = immediate).
        backoff_cap: ceiling on any single delay.
        jitter: extra delay as a fraction of the base delay, scaled by
            a deterministic per-(job, attempt) hash — spreads retries
            without sacrificing reproducibility.
    """

    max_attempts: int = 3
    backoff_base: float = 0.5
    backoff_cap: float = 30.0
    jitter: float = 0.25


def backoff_delay(job_id: str, failures: int, policy: RetryPolicy) -> float:
    """Capped exponential backoff with deterministic jitter.

    ``failures`` is the consecutive-failure count *including* the one
    just recorded (so the first retry uses ``backoff_base``).
    """
    if policy.backoff_base <= 0:
        return 0.0
    base = min(policy.backoff_base * (2 ** max(0, failures - 1)),
               policy.backoff_cap)
    digest = hashlib.sha256(f"{job_id}:{failures}".encode()).digest()
    fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return min(base * (1.0 + policy.jitter * fraction), policy.backoff_cap)


@dataclass
class ServiceOutcome:
    """Everything one supervisor run did (counters over *this* run)."""

    processed: int = 0          #: dispatch attempts started
    done: int = 0               #: jobs reaching ``done`` (incl. recovered)
    recovered: int = 0          #: adopted from spooled results at startup
    retried: int = 0            #: failures that scheduled a retry
    quarantined: int = 0        #: circuit breakers tripped
    reaped: int = 0             #: hung workers terminated
    skipped_cancelled: int = 0  #: dequeued jobs found cancelled
    stopped_reason: str = ""    #: why the loop stopped early ("" = drained)
    drained: bool = False       #: queue empty at exit
    elapsed_seconds: float = 0.0

    @property
    def stopped(self) -> bool:
        return bool(self.stopped_reason)

    def ok(self) -> bool:
        """True when nothing was lost: no quarantine this run."""
        return self.quarantined == 0


@dataclass
class _Slot:
    """One live worker process (process mode only)."""

    process: Any
    attempt: int
    deadline_seconds: Optional[float]
    reap_at: Optional[float]


# ----------------------------------------------------------------------
# Job evaluation (shared by inline mode and the forked worker)
# ----------------------------------------------------------------------
def _execute_request(request: JobRequest, cache: Any) -> dict:
    """Evaluate one job into a journal-style cell record.

    A thin seam over the harness's cell evaluator
    (:func:`~repro.harness.cache.run_cell_cached`): it only builds the
    per-job :class:`Budget` (deadline + step ceiling), which rides the
    whole pipeline, so an over-budget job returns a valid, explicitly
    degraded partial record instead of hanging.
    """
    from ..harness.cache import run_cell_cached

    budget = None
    if request.deadline_seconds is not None or request.max_steps is not None:
        budget = Budget(wall_seconds=request.deadline_seconds,
                        max_steps=request.max_steps)
    return run_cell_cached(request.benchmark, request.flow,
                           request.config(), cache=cache, budget=budget)


def _process_worker(spool_root: str, job_id: str, request_dict: dict,
                    cache_dir: Optional[str]) -> None:
    """Forked-worker entry: evaluate, spool the result, exit 0.

    The worker never touches the WAL — the parent is the sole ledger
    writer, mirroring the parallel harness's journal ownership
    protocol.  A raise here exits nonzero, which the parent records as
    the failure.
    """
    from pathlib import Path

    from ..harness.cache import ResultCache
    from ..runtime.chaos import clear_injector

    clear_injector()  # a fork must not replay the parent's chaos plan
    spool = Spool(spool_root)
    request = JobRequest.from_dict(request_dict)
    cache = (ResultCache(cache_dir=Path(cache_dir))
             if cache_dir else None)
    record = _execute_request(request, cache)
    spool.write_result(job_id, record)


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------
class Supervisor:
    """Crash-recoverable dispatch loop over one spool directory."""

    def __init__(self, spool: Spool, *,
                 workers: int = 1,
                 isolate: bool = False,
                 retry: Optional[RetryPolicy] = None,
                 default_deadline: Optional[float] = None,
                 deadline_grace: float = 2.0,
                 reap_floor_seconds: float = 1.0,
                 poll_seconds: float = 0.05,
                 cache: Any = None,
                 progress: Optional[Callable[[str], None]] = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        self.spool = spool
        self.workers = workers
        self.isolate = isolate or self.workers > 1
        self.retry = retry or RetryPolicy()
        self.default_deadline = default_deadline
        self.deadline_grace = deadline_grace
        self.reap_floor_seconds = reap_floor_seconds
        self.poll_seconds = poll_seconds
        self.cache = cache
        self.progress = progress
        self._sleep = sleep
        self._stop_reason = ""
        self._queue: list[str] = []
        self._due: dict[str, float] = {}
        self._seen: set[str] = set()
        self._states: dict[str, JobState] = {}

    # ------------------------------------------------------------------
    def request_stop(self, reason: str = "stop") -> None:
        """Ask the loop to drain gracefully (signal-handler safe)."""
        if not self._stop_reason:
            self._stop_reason = reason

    def _log(self, message: str) -> None:
        if self.progress:
            self.progress(message)

    def _ledger(self, job_id: str, state: str, *,
                attempt: Optional[int] = None,
                reason: Optional[str] = None,
                recovered: bool = False) -> None:
        self.spool.ledger.append(job_id, state, attempt=attempt,
                                 reason=reason, recovered=recovered)
        detail = f" ({reason})" if reason else ""
        self._log(f"{job_id[:12]} -> {state}{detail}")

    # ------------------------------------------------------------------
    # Queue maintenance
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        """Fold the WAL and pick up newly submitted jobs (FIFO)."""
        self._states = self.spool.states()
        for job_id, state in self._states.items():
            if state.state == SUBMITTED and job_id not in self._seen:
                self._seen.add(job_id)
                self._queue.append(job_id)

    def _pop_due(self, now: float) -> Optional[str]:
        for index, job_id in enumerate(self._queue):
            if self._due.get(job_id, 0.0) <= now:
                del self._queue[index]
                self._due.pop(job_id, None)
                return job_id
        return None

    def _earliest_wait(self, now: float) -> Optional[float]:
        """Seconds until the next queued job is due (None = queue empty)."""
        if not self._queue:
            return None
        return max(0.0, min(self._due.get(j, 0.0) for j in self._queue)
                   - now)

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def _recover(self, outcome: ServiceOutcome) -> None:
        """Replay the WAL and repair interrupted state.

        * ``running`` + spooled result → adopt as ``done`` (recovered);
          content-addressed ids make adoption exact, so a completed job
          is never evaluated twice.
        * ``running`` without a result → the crash interrupted the
          attempt; re-queue (not charged as a job failure).
        * ``failed`` → re-queue behind its backoff, or quarantine if
          the WAL already shows the circuit-breaker threshold.
        """
        self.spool.ledger.compact()  # repair a torn tail from a hard kill
        for job_id, state in self.spool.states().items():
            if state.state == RUNNING:
                if self.spool.read_result(job_id) is not None:
                    self._ledger(job_id, DONE, recovered=True,
                                 reason="adopted spooled result on restart")
                    outcome.done += 1
                    outcome.recovered += 1
                else:
                    self._ledger(job_id, SUBMITTED,
                                 reason="requeued: interrupted mid-run")
            elif state.state == FAILED:
                if state.failures >= self.retry.max_attempts:
                    self._ledger(job_id, QUARANTINED,
                                 reason=f"{state.failures} consecutive "
                                        f"failures; last: {state.reason}")
                    outcome.quarantined += 1
                else:
                    self._ledger(job_id, SUBMITTED,
                                 reason="requeued: retry pending at restart")
                    self._due[job_id] = (time.monotonic() + backoff_delay(
                        job_id, state.failures, self.retry))

    # ------------------------------------------------------------------
    # Failure path (shared)
    # ------------------------------------------------------------------
    def _failure(self, job_id: str, reason: str,
                 outcome: ServiceOutcome) -> None:
        failures = self._states[job_id].failures + 1 \
            if job_id in self._states else 1
        if failures >= self.retry.max_attempts:
            self._ledger(job_id, QUARANTINED,
                         reason=f"{failures} consecutive failures; "
                                f"last: {reason}")
            outcome.quarantined += 1
            return
        self._ledger(job_id, FAILED, reason=reason)
        delay = backoff_delay(job_id, failures, self.retry)
        self._due[job_id] = time.monotonic() + delay
        self._queue.append(job_id)  # tail: poison cannot starve the rest
        outcome.retried += 1

    # ------------------------------------------------------------------
    # Claim (shared by both modes)
    # ------------------------------------------------------------------
    def _claim(self, job_id: str, outcome: ServiceOutcome
               ) -> Optional[tuple[int, JobRequest]]:
        """Take a dequeued job: the ``service.dequeue`` seam, the
        cancelled-skip, the ``running`` commit, then the request load.

        Returns ``(attempt, request)``, or None when the job was skipped
        or its request could not be loaded (charged as a failure).
        """
        chaos_point("service.dequeue", job_id)
        state = self._states.get(job_id)
        if state is not None and state.state == CANCELLED:
            outcome.skipped_cancelled += 1
            self._log(f"{job_id[:12]} skipped (cancelled)")
            return None
        attempt = (state.attempts if state else 0) + 1
        self._ledger(job_id, RUNNING, attempt=attempt)
        outcome.processed += 1
        try:
            return attempt, self.spool.request(job_id)
        except ChaosCrash:
            raise
        except Exception as exc:  # noqa: BLE001 - the retry barrier
            self._failure(job_id, f"{type(exc).__name__}: {exc}", outcome)
            return None

    # ------------------------------------------------------------------
    # Inline mode
    # ------------------------------------------------------------------
    def _execute_one(self, job_id: str, outcome: ServiceOutcome) -> None:
        claim = self._claim(job_id, outcome)
        if claim is None:
            return
        attempt, request = claim
        try:
            chaos_point("service.dispatch", job_id)
            record = _execute_request(request, self.cache)
        except ChaosCrash:
            raise  # simulated process death must escape, never be absorbed
        except KeyboardInterrupt:
            self.request_stop("interrupt")
            self._ledger(job_id, SUBMITTED,
                         reason="requeued: interrupted by operator")
            self._seen.discard(job_id)
            return
        except Exception as exc:  # noqa: BLE001 - the retry barrier
            self._failure(job_id, f"{type(exc).__name__}: {exc}", outcome)
            return
        self.spool.write_result(job_id, record)
        chaos_point("service.worker_reap", job_id)
        self._ledger(job_id, DONE, attempt=attempt)
        outcome.done += 1

    def _run_inline(self, outcome: ServiceOutcome,
                    max_jobs: Optional[int],
                    idle_seconds: Optional[float]) -> None:
        idle_deadline: Optional[float] = None
        while not self._stop_reason:
            self._refresh()
            now = time.monotonic()
            job_id = self._pop_due(now)
            if job_id is None:
                wait = self._earliest_wait(now)
                if wait is None:  # nothing queued at all
                    if idle_seconds is not None:
                        if idle_deadline is None:
                            idle_deadline = now + idle_seconds
                        if now >= idle_deadline:
                            break
                    self._sleep(self.poll_seconds)
                else:  # jobs exist but are waiting out a backoff
                    self._sleep(min(wait, self.poll_seconds)
                                if wait > 0 else 0.0)
                continue
            idle_deadline = None
            self._execute_one(job_id, outcome)
            if max_jobs is not None and outcome.processed >= max_jobs:
                break

    # ------------------------------------------------------------------
    # Process mode
    # ------------------------------------------------------------------
    def _spawn(self, job_id: str,
               outcome: ServiceOutcome) -> Optional[_Slot]:
        import multiprocessing

        claim = self._claim(job_id, outcome)
        if claim is None:
            return None
        attempt, request = claim
        try:
            chaos_point("service.dispatch", job_id)
            cache_dir = (str(self.cache.cache_dir)
                         if self.cache is not None
                         and self.cache.cache_dir is not None else None)
            process = multiprocessing.Process(
                target=_process_worker,
                args=(str(self.spool.root), job_id, request.to_dict(),
                      cache_dir))
            process.daemon = True
            process.start()
        except ChaosCrash:
            raise
        except Exception as exc:  # noqa: BLE001 - the retry barrier
            self._failure(job_id, f"{type(exc).__name__}: {exc}", outcome)
            return None
        deadline = (request.deadline_seconds
                    if request.deadline_seconds is not None
                    else self.default_deadline)
        reap_at = None
        if deadline is not None:
            reap_at = time.monotonic() + max(
                deadline * self.deadline_grace, self.reap_floor_seconds)
        return _Slot(process, attempt, deadline, reap_at)

    def _poll_slots(self, slots: dict[str, _Slot],
                    outcome: ServiceOutcome) -> None:
        now = time.monotonic()
        for job_id in list(slots):
            slot = slots[job_id]
            chaos_point("service.worker_reap", job_id)
            process = slot.process
            if not process.is_alive():
                process.join()
                record = self.spool.read_result(job_id)
                if process.exitcode == 0 and record is not None:
                    self._ledger(job_id, DONE, attempt=slot.attempt)
                    outcome.done += 1
                else:
                    self._failure(
                        job_id,
                        f"worker exited with code {process.exitcode}"
                        + ("" if record is None else
                           " before the result was adopted"), outcome)
                del slots[job_id]
            elif slot.reap_at is not None and now >= slot.reap_at:
                process.terminate()
                process.join(timeout=5.0)
                outcome.reaped += 1
                self._failure(job_id,
                              f"reaped: exceeded deadline "
                              f"{slot.deadline_seconds:g}s x grace "
                              f"{self.deadline_grace:g}", outcome)
                del slots[job_id]

    def _run_pool(self, outcome: ServiceOutcome,
                  max_jobs: Optional[int],
                  idle_seconds: Optional[float]) -> None:
        slots: dict[str, _Slot] = {}
        idle_deadline: Optional[float] = None
        while True:
            self._poll_slots(slots, outcome)
            if self._stop_reason:
                if not slots:
                    break  # graceful drain: live workers have finished
                self._sleep(self.poll_seconds)
                continue
            hit_cap = (max_jobs is not None
                       and outcome.processed >= max_jobs)
            if not hit_cap:
                self._refresh()
                now = time.monotonic()
                while len(slots) < self.workers:
                    if (max_jobs is not None
                            and outcome.processed >= max_jobs):
                        break
                    job_id = self._pop_due(now)
                    if job_id is None:
                        break
                    slot = self._spawn(job_id, outcome)
                    if slot is not None:
                        slots[job_id] = slot
            if not slots:
                if hit_cap:
                    break
                if not self._queue:
                    if idle_seconds is not None:
                        if idle_deadline is None:
                            idle_deadline = (time.monotonic()
                                             + idle_seconds)
                        if time.monotonic() >= idle_deadline:
                            break
                else:
                    idle_deadline = None
            else:
                idle_deadline = None
            self._sleep(self.poll_seconds)

    # ------------------------------------------------------------------
    def run(self, *, max_jobs: Optional[int] = None,
            idle_seconds: Optional[float] = 0.0) -> ServiceOutcome:
        """Recover, then supervise the queue.

        Args:
            max_jobs: stop after this many dispatch attempts (None =
                unbounded) — the chaos scenarios' safety net.
            idle_seconds: once the queue drains, keep polling the spool
                for new submissions this long before exiting (0 = exit
                on drain, None = serve forever / until a signal).

        Returns:
            A :class:`ServiceOutcome` with this run's counters;
            ``stopped_reason`` is set when a stop request (signal)
            ended the run before the queue drained.
        """
        outcome = ServiceOutcome()
        started = time.perf_counter()
        self._stop_reason = ""
        self._queue.clear()
        self._due.clear()
        self._seen.clear()
        self._recover(outcome)
        if self.isolate:
            self._run_pool(outcome, max_jobs, idle_seconds)
        else:
            self._run_inline(outcome, max_jobs, idle_seconds)
        self._refresh()
        outcome.drained = not self._queue
        outcome.stopped_reason = self._stop_reason
        outcome.elapsed_seconds = time.perf_counter() - started
        return outcome


# Re-exported for tests that patch the evaluation seam.
__all__ = ["RetryPolicy", "ServiceOutcome", "Supervisor", "backoff_delay",
           "_execute_request", "_process_worker"]
