"""Host-speed reference: rescales measured times to a fixed host speed.

On the small shared VM the benchmark was defined on, the speed of the same
code drifts by +-25% between 10-second windows and by 2x between single
samples, independently on each vCPU.  A sampler process pinned to the
benchmark's own CPU runs a fixed reference kernel every ``PERIOD_S``
seconds and logs how long it took.  A time t measured over an interval is
reported as ``t * REFERENCE_S / k`` ("reference seconds"), where k is the
mean kernel time over the interval (or over the ``MIN_SAMPLES`` samples
nearest to it, for short intervals).  Over eight 6 s corpus passes the
interquartile spread of pass times fell from 12% (raw) to 3%; raw times are
kept in the run record.

The sampler takes about 5% of the CPU, evenly over the run.

    python3 perfbench/speed.py LOG CPU     # the sampler; stop with SIGTERM
"""

import bisect
import os
import statistics
import subprocess
import sys
import time

import numpy as np

# Median kernel time on the 2-core host the benchmark was defined on, so
# reference seconds read close to wall seconds there.  Changing it rescales
# every reported time; it is part of the benchmark definition.
REFERENCE_S = 0.0025
PERIOD_S = 0.05
MIN_SAMPLES = 6
_ROUNDS = 40


def _kernel(M, b):
    # the program's mix: small LAPACK calls, array assembly and reductions,
    # each paying interpreter and numpy dispatch overhead
    acc = 0.0
    for _ in range(_ROUNDS):
        s = np.linalg.svd(M, compute_uv=False)
        x = np.linalg.solve(M, b)
        h = np.hstack([M, M[:, :2]]) @ np.ones(M.shape[0] + 2)
        acc += float(s[0]) + float(np.abs(x).max()) + float(h[0])
        acc += float(np.linalg.norm(M, "fro"))
    return acc


def sample_forever(log_path, cpu):
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    rng = np.random.default_rng(0)
    M, b = rng.standard_normal((8, 8)), rng.standard_normal(8)
    with open(log_path, "w") as log:
        while True:
            time.sleep(PERIOD_S)
            t0, c0 = time.perf_counter(), time.thread_time()
            _kernel(M, b)
            # CPU time, so a preemption by the benchmark process (same CPU)
            # does not count as a slow host
            log.write(f"{t0!r} {time.thread_time() - c0!r}\n")
            log.flush()


def pin_to_one_cpu():
    """Pin this process to one CPU; returns it, or None where unsupported."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Sampler:
    """The kernel sampler process; a context manager that always stops it."""

    def __init__(self, log_path, cpu):
        self._log_path = log_path
        self._cpu = cpu
        self._proc = None
        self.times = []
        self.kernel_s = []

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__, str(self._log_path),
             "" if self._cpu is None else str(self._cpu)],
            stdout=subprocess.DEVNULL,
        )
        # the first samples must exist before the first measured interval
        deadline = time.perf_counter() + 30.0
        while self._count_lines() < MIN_SAMPLES:
            if self._proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("the speed sampler did not start")
            time.sleep(PERIOD_S)
        return self

    def _count_lines(self):
        try:
            with open(self._log_path) as fh:
                return sum(1 for _ in fh)
        except FileNotFoundError:
            return 0

    def __exit__(self, *exc):
        self._proc.terminate()
        self._proc.wait(timeout=30)
        with open(self._log_path) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2:
                    self.times.append(float(parts[0]))
                    self.kernel_s.append(float(parts[1]))
        return False

    def factor(self, t0, t1):
        """Reference seconds per raw second over [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.times, (t0 + t1) / 2.0)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return REFERENCE_S / statistics.fmean(self.kernel_s[lo:hi])


if __name__ == "__main__":
    sample_forever(sys.argv[1], int(sys.argv[2]) if sys.argv[2] else None)
