"""A fixed numpy kernel whose time scales the benchmark's timings.

On a shared machine the speed of a core drifts in plateaus: the same code
ran 1.3 to 1.6 times slower for tens of seconds at a time, in both wall
and CPU time.  A run's median cannot average that out.  The benchmark
therefore times this kernel between units of work and multiplies each
unit's timings by ``NOMINAL_S / kernel time``, which reports them as if
the kernel had taken ``NOMINAL_S``.  The kernel is plain numpy, touches no
dctnet code and allocates nothing, so a change to the library cannot
change its speed; only the machine can.  Raw timings are kept beside the
scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.009   # about the kernel's median time on a 2-core Xeon VM
REPS = 10           # kernel runs per measurement; the median is kept


class Reference:
    """Small-array dispatch plus mid-size GEMMs, on preallocated buffers."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small_x = rng.standard_normal((704, 16))
        self._small_w = rng.standard_normal((16, 16)) * 0.1
        self._big_x = rng.standard_normal((2464, 64))
        self._big_w = rng.standard_normal((64, 64)) * 0.1
        self._x = np.empty_like(self._small_x)
        self._y = np.empty_like(self._small_x)
        self._row = np.empty((704, 1))
        self._a = np.empty_like(self._big_x)
        self._b = np.empty_like(self._big_x)
        self.seconds: list[float] = []

    def _kernel(self) -> None:
        x, y, row = self._x, self._y, self._row
        np.copyto(x, self._small_x)
        for _ in range(40):
            np.matmul(x, self._small_w, out=y)
            np.tanh(y, out=y)
            np.sum(y, axis=-1, keepdims=True, out=row)
            np.multiply(row, 0.01, out=row)
            np.subtract(y, row, out=x)
        np.copyto(self._a, self._big_x)
        for _ in range(3):
            np.matmul(self._a, self._big_w, out=self._b)
            np.tanh(self._b, out=self._b)
            np.matmul(self._b, self._big_w, out=self._a)
            np.tanh(self._a, out=self._a)

    def measure(self) -> float:
        """Median seconds of REPS kernel runs; also appended to ``seconds``."""
        times = []
        for _ in range(REPS):
            started = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - started)
        self.seconds.append(statistics.median(times))
        return self.seconds[-1]

    def factor(self, before: float, after: float) -> float:
        """Scale for timings taken between two measurements."""
        return NOMINAL_S / ((before + after) / 2.0)
