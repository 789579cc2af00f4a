"""Machine-speed sampling, so that timings survive a host whose speed drifts.

On a shared host a core's speed can change while the program runs.  On the
2-vCPU Intel Xeon VM this benchmark was written on, the same scalar chain
took about 23 us per state in one second and about 40 us in the next, and
whole-run wall times spread by 20-30% from that alone.

``SpeedSampler`` measures that speed while the program runs.  Every
``PERIOD_S`` a SIGALRM handler times ``REPS`` runs of ``reference_op``, a
fixed piece of pure-Python work, and keeps the fastest, which is the warm
and uninterrupted one.  A duration divided by the reference operation's
time at that moment is the duration in reference operations ("refop"):
it follows the work the program did, not how fast the host happened to be.
``reference_op`` is fixed here, so between two versions of xstates a change
in these figures comes from xstates.

The handler costs about 0.5% of the run; its time is taken out of every
duration it interrupts.
"""

from __future__ import annotations

import cmath
import math
import signal
import time
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.01
REPS = 8
SMOOTH = 5  # samples in the rolling median of the reference times


@dataclass(frozen=True)
class _Point:
    a: float
    b: float
    c: complex


def reference_op(k: int) -> float:
    """Fixed work shaped like one xstates scalar call: a small frozen
    dataclass, complex and float arithmetic, and math calls."""
    p = _Point(0.1 + k * 1e-6, 0.4, complex(0.1, 0.05))
    s = 0.0
    for j in range(8):
        z = p.c * cmath.exp(1j * j)
        s += math.log(p.a + abs(z)) * math.cos(j * p.b)
    return s


class SpeedSampler:
    """Samples the reference operation's time while it is entered.

    ``spent`` is a one-element list holding the nanoseconds spent in the
    handler so far; a caller timing a region subtracts its growth.
    """

    def __init__(self):
        self.stamps: list[int] = []  # perf_counter_ns when each sample began
        self.refs: list[int] = []  # fastest of REPS reference operations, ns
        self.spent = [0]
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        clock = time.perf_counter_ns
        enter = clock()
        best = None
        for k in range(REPS):
            t0 = clock()
            reference_op(k)
            dt = clock() - t0
            if best is None or dt < best:
                best = dt
        self.stamps.append(enter)
        self.refs.append(best)
        if signum is not None:  # inside the timed region
            self.spent[0] += clock() - enter

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.refs:  # a region shorter than PERIOD_S still gets a sample
            self._sample()

    def _smoothed(self) -> tuple[np.ndarray, np.ndarray]:
        refs = np.asarray(self.refs, dtype=float)
        padded = np.pad(refs, SMOOTH // 2, mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(padded, SMOOTH)
        return np.asarray(self.stamps, dtype=np.int64), np.median(windows, axis=1)

    def refops(self, start_ns: int, end_ns: int, spent_ns: int) -> float:
        """Reference operations in [start_ns, end_ns), less ``spent_ns`` in the handler.

        Samples are evenly spaced in time, so the mean of 1/ref over the
        samples inside the interval is its mean speed.
        """
        stamps, refs = self._smoothed()
        inside = (stamps >= start_ns) & (stamps < end_ns)
        if not inside.any():  # shorter than PERIOD_S: use the next sample
            inside[min(np.searchsorted(stamps, start_ns), len(stamps) - 1)] = True
        return (end_ns - start_ns - spent_ns) * float(np.mean(1.0 / refs[inside]))

    def per_call(self, starts_ns: np.ndarray, durations_ns: np.ndarray) -> np.ndarray:
        """Each call's duration in reference operations, at the speed sampled
        last before it started."""
        stamps, refs = self._smoothed()
        idx = np.clip(np.searchsorted(stamps, starts_ns, side="right") - 1, 0, len(stamps) - 1)
        return np.asarray(durations_ns, dtype=float) / refs[idx]

    def median_ref_ns(self) -> float:
        return float(np.median(self.refs)) if self.refs else math.nan
