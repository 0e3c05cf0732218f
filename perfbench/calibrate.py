"""Times scaled to a nominal machine speed, read from a fixed calibration kernel.

The host this benchmark is run on shares its cores with other machines, and
its speed drifts by up to a factor of two over tens of seconds: the same
operation, and a fixed pure-Python loop with it, takes twice as long in a slow
phase as in a fast one.  Wall times of runs taken a minute apart then differ
by more than any change worth measuring.

A ``Calibrator`` runs a fixed kernel between operations, at least every
``EVERY_S`` seconds of operation time, and records how long it took.  The
kernel is plain Python complex 2×2 matrix arithmetic from ``reference``; it
shares no code with biqz, so a change to biqz cannot move it.  Each operation's
wall time is then scaled by ``NOMINAL_S / k``, where k is the mean of the two
kernel times that bracket it: the result is the time the operation would take
on a machine that runs the kernel in exactly ``NOMINAL_S``.  Slow phases slow
the kernel and the operations alike, so the ratio cancels them; a change that
makes biqz slower or faster moves the operations and not the kernel.

Set-up time is scaled the same way, by starts of a bare interpreter in place
of the kernel (``NOMINAL_BARE_START_S``, used by ``run.py``).
"""
from __future__ import annotations

from array import array
from time import perf_counter

import reference as ref

KERNEL_STEPS = 600
NOMINAL_S = 1e-3  # kernel time that defines nominal speed, near this host's fast phase
EVERY_S = 0.05  # operation time between kernel runs, at most
# Starting a process tracks the kernel poorly (much of it is the operating
# system's work), so set-up time is scaled by starts of a bare interpreter
# instead: run.py brackets each timed start with two, and reports the time on
# a machine where a bare interpreter starts in this long.
NOMINAL_BARE_START_S = 0.05

_A = ref.from_quaternion(0.3 + 0.1j, 0.2 - 0.4j, 0.5j, 0.1)


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    start = perf_counter()
    m = ref.IDENTITY
    for _ in range(KERNEL_STEPS):
        m = ref.mul(m, _A)
        m = ref.scale(m, 1.0 / ref.norm(m))
    return perf_counter() - start


class Calibrator:
    """Kernel runs interleaved with a sequence of timed operations.

    Call ``before_op`` before each operation and ``after_op`` with its wall
    time, and ``finish`` after the last; ``nominal`` then gives every
    operation's time at nominal speed, in the order they were timed.
    """

    def __init__(self):
        self.kernel = array("d")  # seconds of each kernel run
        self.first_op = array("q")  # index of the first operation after each run
        self._ops = 0
        self._since = EVERY_S

    def before_op(self):
        if self._since >= EVERY_S:
            self.kernel.append(kernel_seconds())
            self.first_op.append(self._ops)
            self._since = 0.0

    def after_op(self, seconds: float):
        self._ops += 1
        self._since += seconds

    def finish(self):
        self.kernel.append(kernel_seconds())
        self.first_op.append(self._ops)

    def nominal(self, wall) -> array:
        """``wall`` (one time per operation, in order) at nominal speed."""
        if len(wall) != self._ops:
            raise ValueError(f"{len(wall)} times for {self._ops} operations")
        out = array("d", wall)
        for j in range(len(self.kernel) - 1):
            factor = 2.0 * NOMINAL_S / (self.kernel[j] + self.kernel[j + 1])
            for n in range(self.first_op[j], self.first_op[j + 1]):
                out[n] *= factor
        return out

    def median_kernel_ms(self) -> float:
        ordered = sorted(self.kernel)
        return ordered[len(ordered) // 2] * 1e3
