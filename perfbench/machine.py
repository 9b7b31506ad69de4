"""The speed of the machine the benchmark runs on.

``calibrate()`` times fixed work of the kinds mspde does and measures nothing
of mspde.  ``bench.py`` has it run just before and just after each repeat's
CLI call and divides the repeat's wall times by the mean of the two slowdowns,
to take out the drift of this shared machine's speed, which reaches tens of
percent over seconds to minutes.

    python3 perfbench/machine.py

prints ``ready``, then answers each line read from standard input with one
line, the slowdown.  ``bench.py`` keeps one such process for a run, so that
the calibration's memory and allocator state stay out of the measured process
and its ``peak_rss_mb``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROUNDS = 3
# Typical seconds of each part of ``calibrate`` on the 2-vCPU Xeon VM the
# baseline was measured on; a part's time over its reference is its slowdown.
REFERENCE_S = {"lu_large": 0.08, "lu_small": 0.011, "numpy_small": 0.008, "python": 0.004}


def _parts():
    rng = np.random.default_rng(0)
    large, small = rng.standard_normal((1300, 1300)), rng.standard_normal((600, 600))
    rhs, v = rng.standard_normal(1300), rng.standard_normal((8, 16))

    def numpy_small():
        for _ in range(1500):
            (v @ v.T).sum()

    def python():
        total = 0
        for i in range(40000):
            total += i * i

    return {"lu_large": lambda: np.linalg.solve(large, rhs),
            "lu_small": lambda: np.linalg.solve(small, rhs[:600]),
            "numpy_small": numpy_small, "python": python}


def calibrate() -> float:
    """Slowdown of this machine against the reference speed: the mean over
    four parts of each part's time ÷ its reference time.  The parts are the
    kinds of work mspde spends its time on: a large dense LU solve (cache-
    and memory-bound, as on ``nls-dg``), a small one, small numpy operations
    and interpreted Python.  The large solve runs once; the short parts take
    the median of ``ROUNDS`` rounds.  In tests on this VM the four in equal
    weight followed each workload's wall time about as well as the best
    single part did for it."""
    parts = _parts()
    times = {name: [] for name in parts}
    for round_ in range(ROUNDS):
        for name, work in parts.items():
            if name == "lu_large" and round_:
                continue
            start = time.perf_counter()
            work()
            times[name].append(time.perf_counter() - start)
    return statistics.fmean(statistics.median(times[name]) / REFERENCE_S[name]
                            for name in parts)


if __name__ == "__main__":
    print("ready", flush=True)
    for _ in sys.stdin:
        print(repr(calibrate()), flush=True)
