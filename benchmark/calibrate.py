"""Machine speed from a fixed reference kernel, to rescale wall times.

The benchmark shares its machine with other tenants, and their load makes
the machine's speed drift by tens of percent over minutes.  On a 2-vCPU box
the 12-second medians of a fixed toruslab kernel ranged over 1.6x within two
minutes, while its ratio to this reference kernel, timed alongside, stayed
within a few percent.  So every timed round is bracketed by reference
samples, and its wall time is rescaled to a machine on which the kernel takes
REFERENCE_S:

    scaled = wall * REFERENCE_S[threads] / mean(sample before, sample after)

The kernel imports nothing from toruslab, so no change to the package can
move it.  It mixes the three kinds of work toruslab does: scalar Python
arithmetic (orbits, word decoding), NumPy trig on cache-sized arrays (the
Fourier moments) and NumPy passes over arrays larger than the caches (basin
chunks).  A workload whose basin sweep keeps several workers busy is
bracketed by the array part alone, run on that many threads at once.  The
scalar part holds the interpreter lock: two full copies on two threads
tracked the two-worker rounds worse than one copy on one thread, while the
array part on two threads tracked them best (run_s spread of leb-basin over
5 seeds: 0.07, against 0.12 with the one-thread kernel).
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Kernel time, by thread count, on the reference machine: the 2-vCPU box the
# benchmark was tuned on, at its quietest.
REFERENCE_S = {1: 0.0125, 2: 0.0193}
SAMPLE_REPS = 7             # kernel runs per sample; the median is kept

_SMALL = np.random.default_rng(12345).random(1 << 14)
_BIG = np.random.default_rng(54321).random((1 << 17, 2))
_CAT = np.array([[2.0, 1.0], [1.0, 1.0]])


def _scalar_part() -> int:
    x, y = 0.1, 0.2
    symbols = []
    for _ in range(15000):
        x, y = (2.0 * x + y) % 1.0, (x + y) % 1.0
        symbols.append(int(x * 5.0))
    return sum(symbols)


def _array_part() -> float:
    acc = 0.0
    for k in range(1, 13):
        acc += float(np.cos((2.0 * np.pi * k) * _SMALL).sum())
    z = (_BIG @ _CAT) % 1.0
    return acc + float(z[:, 0].sum())


class Speed:
    """Reference samples for a workload that keeps `threads` threads busy;
    use as a context manager."""

    def __init__(self, threads: int = 1):
        if threads not in REFERENCE_S:
            raise ValueError(f"no reference kernel time for {threads} threads")
        self.threads = threads
        self._pool = (ThreadPoolExecutor(max_workers=threads)
                      if threads > 1 else None)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def _kernel(self) -> None:
        if self._pool is None:
            _scalar_part()
            _array_part()
            return
        def work():
            _array_part()
            _array_part()
        for f in [self._pool.submit(work) for _ in range(self.threads)]:
            f.result()

    def sample(self) -> float:
        """Median kernel time over SAMPLE_REPS runs, in seconds."""
        times = []
        for _ in range(SAMPLE_REPS):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def rescale(self, wall: float, before: float, after: float) -> float:
        """wall seconds on the reference machine, given the samples taken
        just before and just after them."""
        return wall * REFERENCE_S[self.threads] / (0.5 * (before + after))

    def timed(self, fn, *args, **kwargs):
        """Run fn once between two samples; returns (result, wall seconds,
        wall seconds rescaled to the reference machine)."""
        before = self.sample()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        return result, wall, self.rescale(wall, before, self.sample())
