"""Machine-speed normalisation of measured times.

On the 2-vCPU container this benchmark was built on, the same Python
code runs up to 1.9x slower for stretches of a few hundred milliseconds
to several seconds.  The slowdown shows no steal time, and process CPU
time grows with wall time, so the cause is presumably contention on the
host core.  Raw wall times of identical runs therefore spread by 20-50 %
from run to run.

The benchmark samples the machine's speed while it measures.  Every
5 ms of process CPU time, a ``SIGPROF`` handler runs a fixed
pure-Python probe loop from this file and times it.  The handler runs
in the measuring thread between bytecodes, so no thread or process is
added.  A measured interval is then reported twice:

- ``raw``: its wall time, minus the time the probes took;
- ``ref``: the time the interval would have taken at the reference
  speed.  Its CPU time (minus the probes') is scaled by
  ``REFERENCE_PROBE_S`` over the median probe time during the interval,
  and the rest of its wall time (waiting, such as ``fsync``) is kept
  as measured.  The reference speed is this container's fast state, in
  which the probe takes 0.10 ms.

The probe is benchmark code, not library code, so a change to the
library moves ``ref`` exactly as it moves ``raw``.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, process_time
from typing import Any, Callable

#: Probe duration at the reference speed (seconds).
REFERENCE_PROBE_S = 1.0e-4
#: CPU time between probes (seconds).
INTERVAL_S = 0.005
#: An interval is scaled by at least this many of the latest probes
#: (an op shorter than a few intervals borrows its predecessors').
MIN_PROBES = 5


class _Node:
    __slots__ = ("value", "kids")

    def __init__(self, value: int) -> None:
        self.value = value
        self.kids: list[_Node] = []

    def weight(self) -> int:
        return self.value + len(self.kids)


def _probe() -> int:
    """Integer arithmetic, then small objects, tuple-keyed dicts and
    method calls.  The library's hot loops mix both kinds of work, and
    timing the mix tracks their speed better than either part alone
    (per-op spread of table cells 4.2 % against 5.9 % and 4.6 %)."""
    total = 0
    table: dict[Any, Any] = {}
    for i in range(500):
        total += i * i % 7
        table[i & 1023] = total
    for i in range(75):
        node = _Node(i)
        table[(i & 63, "k")] = node
        previous = table.get(((i - 1) & 63, "k"))
        if previous is not None:
            previous.kids.append(node)
            total += previous.weight()
    return total


def _timed_probe() -> float:
    start = perf_counter()
    _probe()
    return perf_counter() - start


class SpeedMeter:
    """Times callables at the reference speed (see the module doc)."""

    def __init__(self) -> None:
        self.samples: list[float] = [_timed_probe()
                                     for _ in range(MIN_PROBES)]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGPROF, self._handler)

    def _handler(self, signum: int, frame: Any) -> None:
        start = perf_counter()
        _probe()
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        self.spent += perf_counter() - start

    def run(self, fn: Callable[[], Any]) -> tuple[Any, float, float]:
        """``(result, raw seconds, reference seconds)`` of ``fn()``."""
        first = len(self.samples)
        spent = self.spent
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        cpu_start = process_time()
        start = perf_counter()
        try:
            result = fn()
        finally:
            elapsed = perf_counter() - start
            cpu = process_time() - cpu_start
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
        probes = self.spent - spent
        raw = elapsed - probes
        cpu = min(max(cpu - probes, 0.0), raw)
        window = self.samples[min(first, len(self.samples) - MIN_PROBES):]
        scale = REFERENCE_PROBE_S / statistics.median(window)
        return result, raw, cpu * scale + (raw - cpu)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
