"""Machine-speed probe, for end-to-end times on a shared machine.

On a shared host the speed that one process gets drifts by half or more
over minutes: one T2 complex took from 2.6 to 6.1 s within five minutes,
and CPU time tracked wall time, so the process was slowed, not paused.
The probe runs fixed work of the same kind as morseflow's flows: Cash-Karp
steps of a cosine-gradient field on 2-vectors, small numpy arrays driven
from Python.  It is the benchmark's own code, so no change to the package
moves it.

While installed, a real-time interval timer interrupts the run every
``INTERVAL_S`` and times one short sample of the probe, so the samples
cover the run evenly however long its operations are.  Times are reported
in reference seconds: measured seconds times ``factor()``, which is 1 when
a probe step takes ``REF_STEP_S``.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

# Cash-Karp tableau: stage coefficients, then 5th- and 4th-order weights
_A = ((), (1 / 5,), (3 / 40, 9 / 40), (3 / 10, -9 / 10, 6 / 5),
      (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
      (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096))
_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)
_AMPS = np.array([1.0, 0.7])
_TWO_PI = 2.0 * math.pi

INTERVAL_S = 0.25
SAMPLE_STEPS = 100
# a step's time on the unloaded 2-CPU machine of the recorded baseline; it
# only sets the scale of reference seconds
REF_STEP_S = 40e-6


def _steps(n):
    x = np.array([0.3, 2.9])
    h = 0.01
    for _ in range(n):
        k = []
        for row in _A:
            xs = x.copy()
            for j, a in enumerate(row):
                xs = xs + (h * a) * k[j]
            k.append(-_AMPS * np.sin(xs))
        x5, x4 = x.copy(), x.copy()
        for j in range(6):
            x5 = x5 + (h * _B5[j]) * k[j]
            x4 = x4 + (h * _B4[j]) * k[j]
        float(np.linalg.norm(x5 - x4))
        x = np.mod(x5, _TWO_PI)
    return x


class SpeedProbe:
    """Samples the probe on a timer while installed, as a context manager."""

    def __init__(self):
        self.steps = 0
        self.seconds = 0.0
        self._old = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _steps(SAMPLE_STEPS)
        self.seconds += time.perf_counter() - t0
        self.steps += SAMPLE_STEPS

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def factor(self):
        """Reference seconds per measured second while installed."""
        return REF_STEP_S * self.steps / self.seconds
