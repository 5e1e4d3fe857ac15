"""Fixed kernels that track how fast the host is running right now.

On a shared machine the speed a process gets drifts by up to a factor
of two over minutes, far more than any regression bound, and not by the
same factor for all code: interpreter-bound loops and LAPACK calls drift
apart.  The benchmark times a kernel like the workload's own work around
every measured piece of it and reports *reference seconds*: raw seconds
scaled to the speed at which that kernel takes ``REFERENCE_S``.  The
kernels' inputs are fixed, never drawn from the workload seed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import gen

#: Duration of one kernel run that defines one reference second's speed.
REFERENCE_S = 0.05


def _loop_kernel(rng):
    """A Python-level loop of small numpy products, like the simulators."""
    system = gen.scaled_system(rng, 16, 2, 1, 1, gen.grid_edges(4, 4))
    u = rng.normal(size=(5000, 16))
    return lambda: gen.dense_response(system, u)


def _lapack_kernel(rng):
    """Condition number, complex solve and eigenvalues, like the structure layer."""
    a = rng.normal(size=(200, 200))
    z = a + 1j * rng.normal(size=(200, 200))

    def run():
        np.linalg.cond(z)
        np.linalg.solve(z, z)
        np.linalg.eigvals(a)
    return run


#: Reference kernels by name.
KERNELS = {"loop": _loop_kernel, "lapack": _lapack_kernel}


class SpeedReference:
    """Times the reference kernel and converts raw seconds.

    Each piece of work is converted with the kernel runs just before and
    just after it, so a change of host speed during a run is followed.
    """

    def __init__(self, kernel: str):
        self._kernel = KERNELS[kernel](np.random.default_rng(20181219))

    def measure(self) -> float:
        """Seconds one kernel run takes now."""
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Multiplier from raw to reference seconds for work between two kernel runs."""
        return 2.0 * REFERENCE_S / (before + after)

    def timed(self, fn, repeats: int = 1):
        """Run ``fn`` ``repeats`` times between two kernel runs.

        Returns the last result and the median run time in reference seconds.
        """
        before = self.measure()
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - start)
        return result, statistics.median(times) * self.factor(before, self.measure())
