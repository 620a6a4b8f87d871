"""Machine-speed probe for the timed run.

On a shared host the speed of a CPU drifts by up to a factor of two over
seconds to minutes, as other tenants load it; the program's wall times
drift with it.  The probe measures that speed on the CPU the benchmark
runs on, so each timing can be scaled to a fixed speed.

:class:`SpeedProbe` pins the benchmark's process to one CPU and starts
this file as a second process pinned to the same CPU; a probe on another
CPU does not track the benchmark's CPU.  The pinning is inherited by
every process the benchmark starts, so work the program might spread over
several CPUs runs on one here.  The probe runs a fixed loop of mpmath
arithmetic of about half a millisecond (a "chunk"), the kind of work the
program does, which tracks the program's speed more closely than a plain
integer loop; then it sleeps ``PERIOD_S`` and repeats, so it takes about
5% of the CPU.  It keeps the time and duration of each chunk in memory
and writes them out when it is stopped.  :meth:`SpeedProbe.scale` is the
factor that turns a wall time measured in an interval into the time it
would have taken at the speed where one chunk takes ``NOMINAL_CHUNK_S``:
the mean, over the chunks in the interval, of that constant over the
chunk's duration.  Chunks start at nearly even steps of time, so this is
the speed averaged over the interval, also when it changes within it.
"""
from __future__ import annotations

import array
import bisect
import os
import signal
import statistics
import subprocess
import sys
import time

from mpmath.ctx_mp import MPContext

CTX = MPContext()
CTX.dps = 30
CHUNK_TERMS = 16
PERIOD_S = 0.01
# Median chunk duration on a 2-vCPU Intel Xeon VM (Python 3.11, mpmath 1.3
# on its Python backend) when its
# CPU ran at its fastest; reported times are scaled to that speed.
NOMINAL_CHUNK_S = 0.00035
MIN_SAMPLES = 5  # an interval with fewer chunks borrows its nearest ones


def chunk():
    x, s = CTX.mpf(1) / 3, CTX.mpf(0)
    for i in range(1, CHUNK_TERMS + 1):
        s += CTX.exp(x / i) * CTX.sqrt(i) / (i + x)
    return s


def probe():
    """Time chunks until SIGTERM or until the parent exits; return
    (midpoints, durations) on the monotonic clock."""
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    parent = os.getppid()
    mids, durs = array.array("d"), array.array("d")
    while not stop and os.getppid() == parent:
        t0 = time.monotonic()
        chunk()
        t1 = time.monotonic()
        mids.append((t0 + t1) / 2)
        durs.append(t1 - t0)
        time.sleep(PERIOD_S)
    return mids, durs


class SpeedProbe:
    """Context manager: the probe process running beside this one."""

    def __enter__(self):
        self.cpu = min(os.sched_getaffinity(0))
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpu})  # children, the probe too, inherit it
        self._proc = subprocess.Popen([sys.executable, __file__],
                                      stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        return self

    def __exit__(self, *exc):
        self._proc.terminate()
        raw, _ = self._proc.communicate(timeout=30)
        os.sched_setaffinity(0, self._affinity)
        if self._proc.returncode != 0:
            raise RuntimeError(f"speed probe exited with {self._proc.returncode}")
        data = array.array("d", raw)
        half = len(data) // 2
        self.mids, self.durs = data[:half], data[half:]

    def scale(self, t0, t1):
        """Mean of NOMINAL_CHUNK_S over the chunk durations in [t0, t1]
        (monotonic clock), widened to the MIN_SAMPLES nearest chunks."""
        lo = bisect.bisect_left(self.mids, t0)
        hi = bisect.bisect_right(self.mids, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.mids)):
            before = t0 - self.mids[lo - 1] if lo > 0 else float("inf")
            after = self.mids[hi] - t1 if hi < len(self.mids) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        if hi - lo < MIN_SAMPLES:
            raise RuntimeError("speed probe recorded too few chunks")
        return statistics.fmean(NOMINAL_CHUNK_S / d for d in self.durs[lo:hi])


if __name__ == "__main__":
    mids, durs = probe()
    sys.stdout.buffer.write(mids.tobytes() + durs.tobytes())
