"""Host-speed references: two fixed loops that run no emq code.

On a shared host the machine's speed changes in phases that last from
seconds to minutes.  On a 2-CPU VM the pure-Python loop below took 1.0 ms in
a fast phase and 2.1 ms in a slow one, and the benchmark's symbolic jobs
slowed by the same factor.  Numpy-bound jobs (FFT, eigh, path sampling)
slowed far less, by about 1.3x, so they get a numpy reference of their own.
Raw job times spread by more than any useful regression bound between runs
of the same code.

The benchmark times the interpreter loop before the first job and after
every job, and the numpy loop right before and after every native job.  A
job's time is scaled by the reference's nominal time over the mean of the
two reference times around the job: it reads as the job's time on a host
where the loop takes its nominal time.  The loops do not touch the program,
so a change to emq moves the scaled time exactly as it moves the raw time.
numpy is imported only by the numpy loop, so a set-up probe can time the
interpreter loop before it imports anything.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 1.0e-3
NATIVE_NOMINAL_S = 5.0e-3
REPS = 3


def loop() -> int:
    """Tuple keys, dict updates and small string allocations, about 1 ms."""
    acc = 0
    table = {}
    for i in range(3000):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + i
        acc += len(str(i))
    return acc


def native_loop() -> float:
    """Normal draws and cumulative sums, an FFT and a symmetric eigensolve,
    the kinds of numpy work the native jobs do; about 5 ms."""
    import numpy as np
    draws = np.random.default_rng(0).standard_normal((96, 1024))
    walks = draws.cumsum(axis=1)
    spectrum = np.fft.ifft(np.fft.fft(walks.reshape(-1)[:16384]))
    block = walks[:, :96] / 1024.0
    return float(np.linalg.eigvalsh(block @ block.T)[-1] + spectrum[0].real)


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(reps: int = REPS) -> float:
    """Median time of the interpreter loop over reps back-to-back runs."""
    return _median_time(loop, reps)


def measure_native(reps: int = REPS) -> float:
    """Median time of the numpy loop over reps back-to-back runs."""
    return _median_time(native_loop, reps)


def scale(seconds: float, ref_before: float, ref_after: float,
          nominal: float = NOMINAL_S) -> float:
    """seconds on a host where the reference loop takes its nominal time."""
    return seconds * nominal / ((ref_before + ref_after) / 2.0)
