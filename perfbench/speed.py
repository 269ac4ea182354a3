"""Machine-speed probe that rescales pass times on a host whose speed drifts.

On a shared virtual machine, identical work can run 1.5x slower for seconds
at a time, most likely while other tenants contend for the same cores. A
run's median then depends on how much of it fell in a slow phase. While a
pass runs, the probe times a fixed kernel every ``PERIOD_S`` from a
``SIGALRM`` handler. The kernel mixes small LAPACK calls and interpreted
Python, like mipulse itself. A pass's net time (its wall time less the
probe's own time) is scaled by ``REFERENCE_S / mean kernel time``. The
result is the pass time at the kernel's reference speed. The scale does not
depend on the program, so it applies equally to every commit compared.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.1
#: Kernel time that defines the reference speed (about an uncontended
#: 2-vCPU Xeon virtual machine).
REFERENCE_S = 1.0e-3

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((42, 42))
_H = (_A + _A.T).astype(complex)
#: Bound at import, so the traced run's eigh wrapper never counts the probe.
_EIGH = np.linalg.eigh


def _kernel() -> None:
    for _ in range(2):
        _EIGH(_H)
    total = 0
    for i in range(3000):
        total += i * i


class SpeedProbe:
    """Context manager: samples the kernel while active.

    A pass shorter than ``PERIOD_S`` gets one sample at exit, outside the
    timed interval.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.probe_s = 0.0
        self._previous = None

    @staticmethod
    def _time_kernel() -> float:
        start = perf_counter()
        _kernel()
        return perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        duration = self._time_kernel()
        self.samples.append(duration)
        self.probe_s += duration

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.samples.append(self._time_kernel())

    def rescale(self, wall_s: float) -> float:
        """Wall time of the probed interval, less the probe's own time, at
        the reference speed."""
        return (wall_s - self.probe_s) * REFERENCE_S / statistics.mean(self.samples)
