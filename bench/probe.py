"""Machine-speed probe for the benchmark's child processes.

The machine's speed drifts by tens of percent within seconds to minutes.
Timing a fixed chunk of work while an operation runs lets run.py scale the
operation's time to a reference speed.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time
from fractions import Fraction

PROBE_PERIOD_S = 0.1
# Longer than a chunk, so that a chunk is not interrupted; short, so that
# the probe does not wait long for the lock.
SWITCH_INTERVAL_S = 0.025


def work_chunk() -> float:
    """Seconds this process takes for a fixed ~10 ms mix of rational,
    integer-dict and tuple work, the kinds of work twistchar spends its
    time in."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1200):
        acc += Fraction(i % 97 - 48, i % 13 + 1) * Fraction(3, i % 7 + 1)
    series: dict[int, int] = {}
    for i in range(15000):
        series[i % 1009] = series.get(i % 1009, 0) + i * i
    cells = sum(len(tuple(range(i % 40))) for i in range(2000))
    if not acc.denominator or not series or not cells:
        raise RuntimeError("probe work was skipped")
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the machine's speed while an operation runs.

    A probe only before and after a long operation misses most of the
    drift.  This one runs ``work_chunk`` every PROBE_PERIOD_S in a thread, plus once before
    and once after.  The switch interval is raised while it runs so that a
    chunk holds the interpreter lock from start to end and times only
    itself.  ``during_s`` is the chunks' time inside the operation, which
    the caller subtracts from the operation's wall time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.during_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            self.samples.append(work_chunk())

    def __enter__(self) -> "SpeedProbe":
        self._switch = sys.getswitchinterval()
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        self.samples.append(work_chunk())
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("speed probe did not stop")
        self.during_s = sum(self.samples[1:])
        self.samples.append(work_chunk())
        sys.setswitchinterval(self._switch)

    @property
    def chunk_s(self) -> float:
        return statistics.mean(self.samples)
