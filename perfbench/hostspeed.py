"""Host speed sampling, to express times at one reference host speed.

The benchmark runs on hosts shared with other tenants. There, a fixed pure
Python loop varies by up to 80% from one half second to the next, in phases
that last from a second to minutes, and the program slows with it. A timer
signal interrupts the process every SAMPLE_EVERY_S and times two fixed
probes that call nothing in `syncmesh`, so no change to the package can
move them: a compute probe (dict and str building, json, zlib, sha256) and
a memory probe (random reads over a 16 MB table, larger than the caches a
tenant keeps to itself). Memory-heavy work such as the matrix slows more
than compute under contention, so a sample is the geometric mean of the
two. An interval's time at reference speed is its own time, less the
probing inside it, scaled by REFERENCE_PROBE_S over the samples taken
during it (or the nearest ones, for an interval shorter than the period).
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import random
import signal
import statistics
import time
import zlib

REFERENCE_PROBE_S = 0.0025  # a sample in a quiet period of a 2-core sandbox
SAMPLE_EVERY_S = 0.25
TABLE_BYTES = 16 * 2**20
TABLE_READS = 30_000


def _compute_probe() -> float:
    start = time.perf_counter()
    table = {k: str(k) * 3 for k in range(2000)}
    text = json.dumps(list(table.values())).encode()
    zlib.compress(text, 6)
    hashlib.sha256(text).digest()
    return time.perf_counter() - start


def _memory_probe(table: bytearray, index: list) -> float:
    start = time.perf_counter()
    total = 0
    for i in index:
        total += table[i]
    return time.perf_counter() - start


class HostSpeed:
    """Samples the probe on a timer while started; see the module doc."""

    def __init__(self):
        rng = random.Random(0)
        self._table = bytearray(TABLE_BYTES)
        self._table[::4096] = b"\1" * (TABLE_BYTES // 4096)  # make it resident
        self._index = [rng.randrange(TABLE_BYTES) for _ in range(TABLE_READS)]
        self.starts: list[float] = []  # sample start times, ascending
        self.ends: list[float] = []
        self.probe_s: list[float] = []
        self._previous = None
        self._sampling = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._sampling:  # a tick that arrives while the probe runs
            return
        self._sampling = True
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not host speed
        try:
            compute = min(_compute_probe(), _compute_probe())
            memory = min(_memory_probe(self._table, self._index),
                         _memory_probe(self._table, self._index))
        finally:
            if enabled:
                gc.enable()
            self._sampling = False
        self.starts.append(start)
        self.probe_s.append((compute * memory) ** 0.5)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scaled(self, a: float, b: float) -> float:
        """The interval [a, b] without its probing, at reference speed."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.starts, b)
        busy = sum(min(b, self.ends[i]) - max(a, self.starts[i])
                   for i in range(max(lo - 1, 0), hi)
                   if self.ends[i] > a and self.starts[i] < b)
        if hi > lo:  # samples taken inside the interval
            probe = statistics.fmean(self.probe_s[lo:hi])
        else:  # the nearest samples around it
            probe = statistics.fmean(self.probe_s[max(lo - 1, 0):lo + 1])
        return (b - a - busy) * REFERENCE_PROBE_S / probe
