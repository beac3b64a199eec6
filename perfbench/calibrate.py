"""Host-speed calibration for the benchmark's timings.

The shared host this benchmark runs on changes speed by up to half
between runs and over tens of seconds within one (other tenants load the
same physical cores), and a slow phase slows every kind of work, if
not all by quite the same factor.
Raw wall-clock throughput therefore spreads far more between runs of the
same code than a real change of the program would move it.

:class:`Calibrator` times a fixed, benchmark-owned reference kernel --
a vectorised NumPy reduction and a Python dict/sort round, the two kinds
of work the program does -- right beside the work it measures: before
every protected user of a pass, after each ``serve.PROBE_EVERY_S`` of
request handling in a drain's server child, around every set-up.  A timed interval is then reported at the
reference speed::

    scaled = raw * REFERENCE_S / median(kernel times beside the interval)

``REFERENCE_S`` is the kernel's time on the 2-core host the benchmark
was written on at its fastest, so scaled figures read as that host's
figures when it is quiet.  The kernel is benchmark code: it never
changes with the program, so a faster program still reads faster by the
same factor.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: The reference kernel's time on an unloaded run of the 2-core Xeon
#: host (Sapphire Rapids, 2.1 GHz base) this benchmark was written on.
REFERENCE_S = 0.0060
#: Kernel samples taken before and after a set-up.
SETUP_PROBES = 3

_ROWS = np.random.default_rng(0).random((128, 400))
_ROW = _ROWS[0].copy()
#: Scratch for the kernel's arrays: the kernel allocates no array, so
#: it adds nothing to the peak RSS the benchmark reports.
_DIFF = np.empty_like(_ROWS)
_DISTANCES = np.empty(len(_ROWS))


def kernel() -> int:
    """The reference work: fixed inputs, fixed result."""
    for _ in range(16):
        np.subtract(_ROWS, _ROW, out=_DIFF)
        np.abs(_DIFF, out=_DIFF)
        _DIFF.sum(axis=1, out=_DISTANCES)
        order = np.argsort(_DISTANCES, kind="stable")
    table = {}
    for i in range(8000):
        table[(i % 61, i)] = (i, i * 0.5)
    return int(order[-1]) + len(sorted(table))


class Calibrator:
    """Kernel samples beside one timed interval."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def probe(self, times: int = 1) -> float:
        """Run the kernel *times* times; the seconds it took."""
        total = 0.0
        for _ in range(times):
            t0 = time.perf_counter()
            kernel()
            dt = time.perf_counter() - t0
            self.samples.append(dt)
            total += dt
        return total

    @property
    def spent_s(self) -> float:
        return sum(self.samples)

    def scale(self) -> float:
        """Factor that turns a raw time beside these samples into a time
        at the reference speed (1.0 without samples)."""
        if not self.samples:
            return 1.0
        return REFERENCE_S / statistics.median(self.samples)


def timed_setup(fn, *args):
    """``(fn(*args), scaled seconds)``, the kernel sampled before and
    after the call."""
    calib = Calibrator()
    calib.probe(SETUP_PROBES)
    t0 = time.perf_counter()
    out = fn(*args)
    raw = time.perf_counter() - t0
    calib.probe(SETUP_PROBES)
    return out, raw * calib.scale()
