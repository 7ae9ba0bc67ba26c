"""Speed-normalised timing for a shared, noisy host.

On the shared 2-core host this benchmark was built on, the same code ran
up to half again as slow from one minute to the next, and in bursts of a
few seconds. That noise swamps the differences the benchmark must resolve.
So while a timed block runs, a SIGALRM handler times a fixed probe every
PERIOD_S seconds, and the probe is also timed at the block's start and
end. The probe uses only the standard library, so no change to chiralattice
can change its cost. It does Fraction arithmetic and tuple-keyed dict
updates, like the library's hot loops.

The block's time is then rescaled to a machine on which the probe takes
PROBE_NOMINAL_S. Each interval between two probes is weighted by its
length. The time spent in probes is subtracted first.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.1
PROBE_NOMINAL_S = 0.002  # about the probe's time on a quiet 2-core host


def probe() -> float:
    """Seconds one fixed piece of interpreter work takes right now."""
    enabled = gc.isenabled()
    gc.disable()  # the probe must not pay for collecting the library's heap
    start = time.perf_counter()
    total = Fraction(0)
    counts: dict = {}
    for i in range(1, 900):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class SpeedMeter:
    """Times a block, minus its probes, and the machine's speed during it.

    After the block, ``wall`` and ``cpu`` hold its raw seconds, and
    ``factor`` is the time-weighted mean of PROBE_NOMINAL_S / probe time.
    Multiplying a time by ``factor`` gives nominal seconds.
    """

    def __enter__(self) -> "SpeedMeter":
        self.samples: list[tuple[float, float]] = []  # (when, probe seconds)
        self._probe_wall = self._probe_cpu = 0.0
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self._sample())
        self._wall0, self._cpu0 = time.perf_counter(), time.process_time()
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self.wall = time.perf_counter() - self._wall0 - self._probe_wall
        self.cpu = time.process_time() - self._cpu0 - self._probe_cpu
        speeds = [PROBE_NOMINAL_S / seconds for _, seconds in self.samples]
        spans = [b[0] - a[0] for a, b in zip(self.samples, self.samples[1:])]
        weighted = sum(w * (v0 + v1) / 2 for w, v0, v1 in zip(spans, speeds, speeds[1:]))
        self.factor = weighted / sum(spans) if sum(spans) > 0 else speeds[-1]

    def _sample(self) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.samples.append((wall0, probe()))
        self._probe_wall += time.perf_counter() - wall0
        self._probe_cpu += time.process_time() - cpu0
