"""Op timing scaled to a fixed machine speed.

The benchmark runs on shared machines whose speed drifts: the same fixed
computation takes from 0.7 to 1.5 times its usual time from one few-second
stretch to the next, with no steal time visible to the guest, and CPU time
drifts with wall time. No median over one run removes a drift that lasts
longer than the run, so every timing is scaled by the machine's speed at the
moment it was taken.

The speed is measured by a probe: a short reference computation that mixes
small LAPACK calls, matrix products and interpreted Python, as the
workloads do, so a slow spell stretches both alike. While a pass runs, an
interval timer interrupts it every PROBE_INTERVAL seconds to run a probe,
inside an op as well as between ops; `now()` is the clock that leaves the
probes' own time out, for ops and for the tracer's spans. The probes cut
each op into pieces, and each piece's time is scaled by REFERENCE_S over
the mean of the two probes that bound it: a short op is scaled by the last
probe before it and the first one after it, a long one piece by piece. A
scaled time is the wall time the op would have taken with the machine at
the speed where the probe takes REFERENCE_S. Worker results report the raw
wall times beside it.
"""

import bisect
import contextlib
import json
import signal
import statistics
import time

import numpy as np

# About the probe's time between a workload's ops on a 2-CPU x86_64 virtual
# machine (Python 3.11, numpy 2.4, OpenBLAS 0.3.31 on one thread). A
# constant, so scaled times compare across runs, commits and days.
REFERENCE_S = 1.0e-3
PROBE_INTERVAL = 0.05  # seconds between two probes while a pass runs
PROBE_REPEATS = 3  # a probe is the fastest of this many reference runs

_rng = np.random.default_rng(20260317)
_M = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))
_H = _M + _M.conj().T
_EYE = np.eye(16)
_BATCH = _rng.standard_normal((128, 8, 8)) + 1j * _rng.standard_normal((128, 8, 8))


def _reference_work():
    acc = 0.0
    for k in range(4):
        _, vecs = np.linalg.eigh(_H)
        x = np.linalg.solve(_M + (k + 4.0) * _EYE, vecs)
        acc += float(np.abs(x @ _M).sum())
        y = _BATCH @ _BATCH.conj().transpose(0, 2, 1)
        acc += float(np.trace(y, axis1=1, axis2=2).real.sum())
    acc += len(json.dumps({str(i): i * i for i in range(300)}))
    return acc


_probe_total = 0.0  # seconds this process has spent in probes


def now():
    """time.perf_counter() less the time spent in probes: the clock for
    timing anything that a probe may interrupt."""
    return time.perf_counter() - _probe_total


def probe():
    """Seconds the reference computation takes now: the fastest of
    PROBE_REPEATS runs, so one interrupt does not count as a slow machine."""
    global _probe_total
    start = time.perf_counter()
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - t0)
    _probe_total += time.perf_counter() - start
    return best


def speed_factor(samples=5):
    """REFERENCE_S over the median of a few probes taken now."""
    return REFERENCE_S / statistics.median(probe() for _ in range(samples))


class Clock:
    """Times one pass's ops and probes the machine's speed while it runs.

        with Clock() as clock:
            with clock.op():
                ...
        raw, scaled = clock.times()

    Probes run from a SIGALRM handler, so a Clock must be used in the main
    thread, and one at a time."""

    def __init__(self):
        self.ops = []  # (start, end) on the now() clock
        # (now(), probe seconds); a probe takes no time on the now() clock
        self.probes = []
        self._probing = False
        self._previous = None

    def _probe(self, *_):
        if self._probing:
            return
        self._probing = True
        self.probes.append((now(), probe()))
        self._probing = False

    def __enter__(self):
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        return False

    @contextlib.contextmanager
    def op(self):
        start = now()
        yield
        self.ops.append((start, now()))

    def times(self):
        """(raw seconds, scaled seconds) of every op, in order. The probes
        cut an op into pieces; each piece is scaled by the mean of the two
        probes that bound it."""
        stamps = [t for t, _ in self.probes]
        speeds = [seconds for _, seconds in self.probes]
        raw, scaled = [], []
        for start, end in self.ops:
            first = bisect.bisect_right(stamps, start) - 1  # last probe before
            last = bisect.bisect_left(stamps, end)  # first probe after
            edges = [start] + stamps[first + 1:last] + [end]
            raw.append(end - start)
            scaled.append(sum(
                (b - a) * REFERENCE_S / (0.5 * (speeds[k] + speeds[k + 1]))
                for k, (a, b) in enumerate(zip(edges, edges[1:]), first)))
        return raw, scaled
