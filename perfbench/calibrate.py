"""Host-speed calibration: a fixed numpy/Python loop that shares no code with capillary1d.

On a host with shared cores, the speed of this process drifts by up to 2x
over tens of seconds, and a run sees whichever regime it falls in.  The
benchmark therefore times this loop right before every operation, at the end
of every round, and (unless disabled) every half second inside an operation
from a SIGALRM handler, whose own time is taken out of the operation's wall
time.  Each operation's wall time is then rescaled to the reference host:

    host_seconds = wall * REFERENCE_S / mean(loop times before, during, after)

The loop mixes what the program spends its time on: numpy calls on arrays of
the kernel's size at N = 8 and N = 32, and float formatting.  So it slows down
with the host the way the program does, while no change to capillary1d can
change its time.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

REFERENCE_S = 0.085  # one sample() on the reference host (README, "Reference figures")
ITERATIONS = 2000
IN_OP_INTERVAL_S = 0.5
IN_OP_SHARE = 8  # an in-op sample runs 1/8 of the loop and is scaled back up


@dataclass
class OpTiming:
    wall: float = 0.0  # seconds in the operation, handler time excluded
    samples: list = field(default_factory=list)  # loop times before and during it


class Calibrator:
    def __init__(self, in_op: bool = True):
        self.in_op = in_op
        rng = np.random.default_rng(20151005)
        self._big = rng.standard_normal((264, 33)), rng.standard_normal(33)
        self._small = rng.standard_normal((72, 9)), rng.standard_normal(9), rng.random(72)

    def sample(self, iterations: int = ITERATIONS) -> float:
        """Seconds one pass of the fixed loop takes now."""
        A, v = self._big
        E, c, w = self._small
        start = time.perf_counter()
        for _ in range(iterations):
            u = A @ v
            q = np.sqrt(1.0 + u * u)
            float(np.dot(q, q))
            ",".join([repr(x) for x in u[:6].tolist()])
            s = E @ c
            sx = E @ (c * w[:9])
            r = np.sqrt(1.0 + sx * sx)
            d = E.T @ (w * (sx / r + 0.1 * sx))
            float(np.sum(w * (np.abs(s) ** 2.0 + 0.1) * s))
            float(np.max(np.abs(d)))
        return time.perf_counter() - start

    @contextmanager
    def op(self):
        """Time the body as one operation; yields the OpTiming it fills in."""
        timing = OpTiming(samples=[self.sample()])
        paused = 0.0

        def on_alarm(signum, frame):
            nonlocal paused
            t0 = time.perf_counter()
            timing.samples.append(self.sample(ITERATIONS // IN_OP_SHARE) * IN_OP_SHARE)
            paused += time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, IN_OP_INTERVAL_S)

        previous = None
        if self.in_op:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, IN_OP_INTERVAL_S)
        start = time.perf_counter()
        try:
            yield timing
        finally:
            end = time.perf_counter()
            if self.in_op:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            timing.wall = end - start - paused


def host_seconds(wall: float, samples: list) -> float:
    return wall * REFERENCE_S * len(samples) / sum(samples)
