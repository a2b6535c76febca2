"""The host's speed while a measured process runs, from a fixed probe.

The benchmark runs on shared hosts whose speed drifts by a third or more
over seconds to minutes, for every process alike, so a time measured alone
says as much about the host as about qlink.  While each measured process
runs, a ``Sampler`` thread in the benchmark's own process runs ``unit()``
every ``PERIOD_S`` and keeps the CPU time each took.  ``run.py`` scales the
process's times by ``REFERENCE_UNIT_S / mean unit time``: the times it
reports are the ones a host would give on which one unit takes
``REFERENCE_UNIT_S``.  The unit is plain Python calls and float arithmetic,
the kind of work that dominates qlink, and uses nothing of qlink, so a
change to qlink moves it only through the cores it shares.
"""

from __future__ import annotations

import math
import statistics
import threading
import time

# CPU time of one unit on the reference host (Intel Xeon, Python 3.11, in a
# quiet spell); a scaled time is in seconds of that host.
REFERENCE_UNIT_S = 0.65e-3
# Each sample costs one unit, about 2% of one core at this period.
PERIOD_S = 0.04
UNIT_STEPS = 4_000


def _term(a: float, b: float) -> float:
    return a * b + math.log1p(a)


def unit() -> float:
    total = 0.0
    for i in range(UNIT_STEPS):
        total += _term(i * 1e-6, 0.5)
    return total


class Sampler:
    """Times ``unit()`` on a thread, at once and then every ``PERIOD_S``,
    from ``__enter__`` to ``__exit__``."""

    def __init__(self) -> None:
        self.unit_s: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while True:
            start = time.thread_time()
            unit()
            self.unit_s.append(time.thread_time() - start)
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self) -> Sampler:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self) -> float:
        """Factor from this host's times to the reference host's."""
        return REFERENCE_UNIT_S / statistics.fmean(self.unit_s)
