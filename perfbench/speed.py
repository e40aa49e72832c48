"""A speed probe: fixed stdlib work, timed, to rescale wall times.

The machine this benchmark was tuned on runs the same Python code at two
speeds, switching every few seconds (see NOTES.md); wall times of
identical runs differ by up to 1.8x.  The probe is a fixed piece of work
that uses nothing from qhaar: exact Gaussian elimination over Fractions
(big-integer arithmetic) and a dictionary-counting loop (interpreter
overhead).  A pass is rescaled to the reference speed:

    rescaled_s = work_s * (REFERENCE_S / mean(probe times during the pass)) ** sensitivity

`sensitivity` is how strongly that pass's time follows the probe's, the
slope of log(work time) on log(probe time) that calibrate.py measures; it
is fixed per workload and pass in workloads.SENSITIVITY.  Code that spends
its time in numpy or in big-integer multiplication slows less than the
interpreter when the machine does, so its sensitivity is below 1.

While a pass runs, `Sampler` times the probe every PERIOD_S seconds from a
SIGALRM handler, so the mean follows speed changes inside a long pass.  The
probes' own time is taken out of the pass's work time.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Probe time at the fast speed on a 2-vCPU x86-64 VM under Python 3.11.
# Only a scale: rescaled seconds read as seconds at that speed.
REFERENCE_S = 0.011
PERIOD_S = 0.25


def _work():
    n = 11
    rows = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    counts: dict = {}
    for i in range(70000):
        k = (i * 7919) % 1009
        counts[k] = counts.get(k, 0) + i
    return rows[-1][-1], max(counts.values())


def probe_s() -> float:
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def setup_probe_s(reps: int = 3) -> float:
    """Median of a few back-to-back probes, for an import-only spawn."""
    return statistics.median(probe_s() for _ in range(reps))


class Sampler:
    """Times the probe at the start, every PERIOD_S seconds, and at the end."""

    def __init__(self):
        self.probes: list[float] = []

    def _tick(self, signum, frame):
        self.probes.append(probe_s())

    def __enter__(self):
        self.probes.append(probe_s())
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.probes.append(probe_s())
        return False


def rescale(work_s: float, probes: list[float], sensitivity: float = 1.0) -> float:
    return work_s * (REFERENCE_S / statistics.fmean(probes)) ** sensitivity
