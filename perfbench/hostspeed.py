"""Reference kernel that tracks how fast the host runs during a run.

On a small shared machine the speed of a CPU drifts: a fixed psgd-n8
operation, timed back to back, took from 1.1 to 2.0 s, and its median
over 28 s windows ranged from 1.14 to 1.85 s.  The speed changes from
second to second and from minute to minute, so no run length averages
it out.  The benchmark therefore runs a fixed
reference block every PERIOD_S of wall time while it measures, and
reports operation times in units of that block as well as in seconds:
the host slows both alike.

The blocks run from a SIGALRM handler, in the measured thread, between
the workload's own Python bytecodes, so they sample the speed all
through an operation and not only between operations; ``clock`` leaves
their time out of the operations' times.  A long call into C defers a
block until it returns.

The block uses numpy and the interpreter the way the workloads do
(small complex SVDs and QRs, dict lookups and float arithmetic) and
nothing of mpoqst, so a change to mpoqst moves the operation time and
not the unit.  The workload's state must not leak into the block's
time either: its data are a few kilobytes, which the workload's memory
use barely evicts, and it runs with the garbage collector off, so it
never pays for a collection of the workload's objects.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import time

import numpy as np

PERIOD_S = 0.05


class HostSpeed:
    """Accumulates the wall time of reference blocks run during a run."""

    def __init__(self):
        rng = np.random.default_rng(20241003)

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        self.small = [cplx(16, 16), cplx(32, 32), cplx(64, 16)]
        self.table = {i: float(i) for i in range(64)}
        self.blocks = 0
        self.seconds = 0.0
        for _ in range(4):  # warm-up, not counted
            self._block()

    def _block(self) -> float:
        for a in self.small:
            np.linalg.svd(a, full_matrices=False)
            np.linalg.qr(a)
        table, acc = self.table, 0.0
        for i in range(1500):
            acc += table[i & 63] * 0.5 + i
        return acc

    def _on_alarm(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._block()
            self.seconds += time.perf_counter() - t0
            self.blocks += 1
        finally:
            if collecting:
                gc.enable()

    @contextlib.contextmanager
    def sampling(self):
        """Run one block every PERIOD_S of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def clock(self) -> float:
        """perf_counter() less the time spent in reference blocks."""
        return time.perf_counter() - self.seconds

    def unit_s(self) -> float:
        """Mean seconds per reference block over the run so far."""
        return self.seconds / self.blocks
