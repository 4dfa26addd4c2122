"""Machine-speed reference for the timed metrics.

On a shared host the same CPU-bound call can run 1.5x slower for minutes at
a time, and the slowdown shows in CPU time as well as wall time, so neither
can be compared between runs made at different times.  The benchmark
therefore times a fixed task between CLI calls, on as many processes at
once as the call uses, and scales its times to a machine on which the task
takes ``REFERENCE_S`` seconds.  The slowdown hits interpreted Python and
NumPy/SciPy code by different amounts, so there are two tasks: pure-Python
dict and tuple work like the tokenizer's, and a k-d tree query like the
metrics'.  Each workload names the one that matches where its time goes.
Neither task uses ``striptok``, so a change to the package cannot move them.
"""

from __future__ import annotations

import statistics
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from time import perf_counter

import numpy as np
from scipy.spatial import cKDTree

REFERENCE_S = 0.1  # nominal duration of one reference task
REFERENCE_SHARE = 0.1  # reference time after each call, as a share of the call's wall time
# Set-up time is scaled by a fresh interpreter importing NumPy and SciPy's
# k-d tree instead: most of ``striptok.cli``'s import, and none of its code.
REFERENCE_START = "import numpy, scipy.spatial; print('ready', flush=True)"
REFERENCE_START_S = 0.3  # its nominal wall time until ready
_POINTS = np.random.default_rng(0).random((50_000, 3))
_QUERIES = np.random.default_rng(1).random((50_000, 3))


def _python_task():
    counts: dict[tuple[int, int], int] = {}
    for i in range(100_000):
        key = ((i * 7919) % 10007, i & 15)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts, key=lambda k: (k[1], k[0]))


def _numpy_task():
    cKDTree(_POINTS).query(_QUERIES)


TASKS = {"python": _python_task, "numpy": _numpy_task}


def task_s(kind: str) -> float:
    """Wall time of one run of the reference task ``kind``."""
    t0 = perf_counter()
    TASKS[kind]()
    return perf_counter() - t0


class Reference:
    """Times reference task ``kind`` on ``procs`` processes at once; a context manager."""

    def __init__(self, kind: str, procs: int):
        self.kind = kind
        self.procs = procs
        self.times: list[float] = []
        self._pool = None

    def __enter__(self):
        if self.procs > 1:
            # fork, like the CLI's own pool: a spawn context would start
            # multiprocessing's resource tracker, which outlives the benchmark
            self._pool = ProcessPoolExecutor(self.procs, mp_context=get_context("fork"))
            list(self._pool.map(task_s, [self.kind] * self.procs))  # start and warm the workers
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def measure(self, min_s: float = 0.0) -> float:
        """Run the task at least once, and until ``min_s`` seconds have passed.

        Returns the slowdown over this measurement alone.
        """
        first = len(self.times)
        start = perf_counter()
        while True:
            if self._pool is None:
                self.times.append(task_s(self.kind))
            else:
                futures = [self._pool.submit(task_s, self.kind) for _ in range(self.procs)]
                self.times.append(statistics.mean(f.result() for f in futures))
            if perf_counter() - start >= min_s:
                return statistics.mean(self.times[first:]) / REFERENCE_S

    def slowdown(self) -> float:
        """Median reference time of the run over the nominal one."""
        return statistics.median(self.times) / REFERENCE_S
