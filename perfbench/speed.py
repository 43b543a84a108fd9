"""Machine-speed calibration for the gated times.

The benchmark's host is a small VM on a shared machine.  Its speed for
the same single-threaded work drifts by 15-20% over tens of seconds, which
is as wide as the regression bounds.  So during the passes of the
in-process workloads a timer signal interrupts the program once a second
for a mark: three runs of a fixed calibration kernel.  The run reports the
time it spent in its own process scaled to the speed the kernel had on the
baseline VM:

    scaled = measured * REFERENCE_S / (mean kernel time of the run)

The kernel is made of what the program spends its time on: Python loops
over complex numbers, small complex numpy matrices and their LU
determinant.  It calls nothing of the program, so a change to the program
cannot move it, and the scaled times show every change of the program at
full size.  The machine switches between a fast and a slow state every few
hundred milliseconds (the kernel takes about 17 or 29 ms), and the program
slows with the share of time spent in the slow state.  The mean kernel time
over the run's marks follows that share; the median, which jumps between
the two states, does not.  The marks' own time is left out of the task
times, and the measured times are kept in the details line.
"""

from __future__ import annotations

import cmath
import contextlib
import signal
import statistics
import time
from typing import List

import numpy as np

# mean kernel time on the baseline VM (2-core Intel Xeon, Python 3.11.7,
# numpy with one BLAS thread)
REFERENCE_S = 0.026
KERNEL_REPS = 3      # kernel runs per mark
MARK_EVERY_S = 1.0   # one mark a second during a pass


def kernel() -> float:
    """Seconds for one run of the fixed calibration kernel."""
    t0 = time.perf_counter()
    acc = 0j
    for k in range(800):
        z = complex(0.3 + 0.0007 * k, 0.02)
        m = np.zeros((6, 6), dtype=complex)
        for i in range(6):
            for j in range(6):
                if (i + j) % 3 != 1:
                    m[i, j] = 0.3 * cmath.exp(1j * z * (i - j + 0.5))
        acc += complex(np.linalg.det(np.eye(6, dtype=complex) - m))
    if not cmath.isfinite(acc):
        raise RuntimeError("calibration kernel lost its value")
    return time.perf_counter() - t0


class Speed:
    """Calibration marks taken during a run's passes, and the factor they
    give."""

    def __init__(self):
        self.samples: List[float] = []   # kernel seconds
        self.spent = 0.0                 # seconds spent in marks
        self._busy = False

    def mark(self):
        if self._busy:   # the timer fired during a slow mark: skip it
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            self.samples += [kernel() for _ in range(KERNEL_REPS)]
        finally:
            self.spent += time.perf_counter() - t0
            self._busy = False

    @contextlib.contextmanager
    def marking(self):
        """A mark now and every MARK_EVERY_S while the block runs, from a
        timer signal, so that marks fall inside long tasks too.  Task times
        leave out `spent`, the time of the marks."""
        self.mark()
        old = signal.signal(signal.SIGALRM, lambda signum, frame: self.mark())
        signal.setitimer(signal.ITIMER_REAL, MARK_EVERY_S, MARK_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, old)

    def factor(self) -> float:
        """What turns a time measured in this run into one at the
        reference speed."""
        if not self.samples:
            raise RuntimeError("no calibration mark in this run")
        return REFERENCE_S / statistics.fmean(self.samples)

    def summary(self) -> dict:
        return {"reference_s": REFERENCE_S, "kernel_runs": len(self.samples),
                "kernel_mean_s": statistics.fmean(self.samples),
                "kernel_quartiles_s": statistics.quantiles(self.samples, n=4),
                "marks_s": self.spent, "factor": self.factor()}
