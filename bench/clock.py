"""A clock that reads in seconds at a fixed reference speed of the host.

On a shared host the speed of a single-threaded process drifts by up to 2x
over minutes, with CPU time equal to wall time: the process is slowed, not
descheduled.  A run's median wall time follows that drift, however long
the run.  So the benchmark times each piece of work (one CLI call, or one
chunk of the criterion-8 sweep) between two runs of fixed calibration
kernels, and divides the piece's wall time by the host's slowness around
it: the mean, over the two bracketing calibrations and the kernels, of a
kernel's time over its reference time.  The result is the piece's time at the speed the
reference times were taken at.

The kernels use no srhtlab code, so a change to the program moves the
reading in full.  Each does the kind of work one of the program's hot paths
does, and a workload names the ones that resemble its own time:
``INTERPRETER`` for Python-level float arithmetic and calls, ``NUMPY`` for
seeded draws, stacked small-matrix rotations, streaming over 8 MiB and a
LAPACK QR.  With no kernels the clock is a plain wall clock.
"""

import math
import time

import numpy

_QR_INPUT = numpy.random.default_rng(0).standard_normal((4096, 16))


def _interpreter():
    """Float arithmetic and math calls in a Python loop, as in the bounds."""
    total = 0.0
    for i in range(1, 80_000):
        total += math.log(i) * math.exp(-1.0 / i) / (1.0 + i)
    return total


def _rng():
    """Seeded generators and small draws, as in an operator draw."""
    for i in range(200):
        rng = numpy.random.default_rng(numpy.random.SeedSequence((12345, 7, i)))
        rng.integers(0, 64 - numpy.arange(8))
        rng.choice(2, size=64)


def _stack():
    """Plane rotations across a stack of 1000 8x8 matrices, as in a stacked
    Jacobi sweep."""
    a = numpy.full((1000, 8, 8), 0.5)
    for _ in range(2):
        for p in range(8):
            for q in range(p + 1, 8):
                c = numpy.cos(a[:, p, q])[:, None]
                s = numpy.sin(a[:, p, q])[:, None]
                row_p = a[:, p, :] * c - a[:, q, :] * s
                a[:, q, :] = a[:, p, :] * s + a[:, q, :] * c
                a[:, p, :] = row_p


def _stream():
    """Elementwise passes over 8 MiB, larger than L2, as in a large FWHT."""
    x = numpy.full(1 << 20, 1.0)
    for _ in range(4):
        x = x * 1.0001 + 0.5


def _qr():
    """LAPACK QR of a 4096x16 matrix, as in drawing an orthonormal basis."""
    for _ in range(3):
        numpy.linalg.qr(_QR_INPUT)


KERNELS = {"interpreter": _interpreter, "rng": _rng, "stack": _stack, "stream": _stream, "qr": _qr}
# Seconds each kernel takes at the reference speed: about its median on a
# 2-core Intel Xeon VM.
REFERENCE_S = {"interpreter": 0.024, "rng": 0.010, "stack": 0.007, "stream": 0.012, "qr": 0.006}
INTERPRETER = ("interpreter",)
NUMPY = ("rng", "stack", "stream", "qr")


def slowness(kernels):
    """Mean over ``kernels`` of their time now over their reference time."""
    if not kernels:
        return 1.0
    total = 0.0
    for name in kernels:
        start = time.perf_counter()
        KERNELS[name]()
        total += (time.perf_counter() - start) / REFERENCE_S[name]
    return total / len(kernels)


class Clock:
    """Accumulates the time of timed pieces, at the reference speed
    (``elapsed``) and as wall time (``wall``)."""

    def __init__(self, kernels=()):
        self.kernels = tuple(kernels)
        self.elapsed = 0.0
        self.wall = 0.0
        self._before = slowness(self.kernels)

    def time(self, fn, *args):
        """Return ``fn(*args)``; its time is added even when it raises."""
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            wall = time.perf_counter() - start
            after = slowness(self.kernels)
            self.elapsed += wall / ((self._before + after) / 2)
            self.wall += wall
            self._before = after
