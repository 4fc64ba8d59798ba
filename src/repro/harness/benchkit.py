"""Shared scaffolding of the ``bench-*`` baselines.

Each bench module supplies only its cell function, its summary line and
its pass predicate.  What they have in common lives here:

* :func:`write_report` stamps the report header — ``schema``,
  ``protocol`` and ``cpu_count``, because a timing taken on one CPU
  means something different from one taken on sixteen — and writes the
  report atomically, so an interrupted run never leaves a truncated
  baseline file;
* :func:`best_of` is the min-over-repeats timing protocol, and
  :func:`ratio` the rounded speedup or throughput it feeds;
* :func:`sweep` is the benchmark × width cell loop with its progress
  line, and :func:`say` the optional progress callback.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, TypeVar, Union

from ..bench import names
from ..runtime.atomic import atomic_write_text

T = TypeVar("T")

#: Optional status callback every bench reports its steps to.
Progress = Optional[Callable[[str], None]]


def say(progress: Progress, message: str) -> None:
    """Send ``message`` to ``progress`` when a callback is given."""
    if progress is not None:
        progress(message)


def best_of(fn: Callable[..., T], repeats: int,
            setup: Optional[Callable[[], Any]] = None) -> tuple[float, T]:
    """Fastest wall time over ``repeats`` calls (at least one) of ``fn``,
    with that call's result.

    With ``setup``, each call is ``fn(setup())`` and only ``fn`` is
    timed: a fresh argument per repeat, built outside the clock.
    """
    best: Optional[tuple[float, T]] = None
    for _ in range(max(1, repeats)):
        args = () if setup is None else (setup(),)
        started = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best[0]:
            best = (elapsed, result)
    assert best is not None
    return best


def ratio(numerator: float, denominator: float,
          digits: int = 2) -> Optional[float]:
    """``numerator / denominator`` rounded, or None for a zero
    denominator (a speedup over an unmeasurably fast run)."""
    return round(numerator / denominator, digits) if denominator else None


def sweep(widths: Iterable[int], cell: Callable[[str, int], dict],
          describe: Callable[[dict], str], progress: Progress) -> list[dict]:
    """``cell(benchmark, width)`` for every registered benchmark × width,
    each reported as ``<benchmark>/<width>-bit: <describe(cell)>``."""
    cells = []
    for benchmark in names():
        for width in widths:
            cells.append(cell(benchmark, width))
            say(progress, f"{benchmark}/{width}-bit: {describe(cells[-1])}")
    return cells


def write_report(output: Union[str, Path], schema: str, protocol: str,
                 body: dict[str, Any]) -> dict[str, Any]:
    """Write ``body`` under the common header to ``output`` atomically
    and return the whole report."""
    report = {"schema": schema, "protocol": protocol,
              "cpu_count": os.cpu_count(), **body}
    atomic_write_text(output, json.dumps(report, indent=2) + "\n")
    return report
