"""Spans, timed cache, statistics and run bookkeeping for the benchmark.

Everything here observes the stack from outside: spans are recorded
around calls into public functions, never inside them, so the program
under test runs exactly the code a user runs.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import heapq
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.runner.cache import ArtifactCache

#: The checkout root (the directory that holds ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: Private scratch state; never the user's artifact cache.
STATE_DIR = ROOT / ".perfbench"

#: Every layer a span can be charged to, in report order.
LAYERS = (
    "workloads",
    "compiler",
    "runner.cache",
    "sim.plan",
    "sim.fused",
    "sim.batch",
    "serve",
    "serve.http",
)


class Spans:
    """In-memory span recorder with self-time attribution.

    A span is ``(seq, layer, start_ns, end_ns)``; ``seq`` orders
    begins.  Self time is attributed on one timeline: every instant
    of the traced wall goes to the most recently begun span still
    open, so nested spans charge their parent only for the time no
    child covers, and overlapping request spans never count the same
    instant twice.  Instants no span covers are reported as
    ``uncovered``.
    """

    def __init__(self) -> None:
        self.on = False
        self.events: list[tuple[int, str, int, int]] = []
        self._seq = 0
        self._t0 = 0
        self._t1 = 0

    def start(self) -> None:
        self.events.clear()
        self.on = True
        self._t0 = time.perf_counter_ns()

    def stop(self) -> None:
        self._t1 = time.perf_counter_ns()
        self.on = False

    def begin(self, layer: str):
        if not self.on:
            return None
        self._seq += 1
        return (self._seq, layer, time.perf_counter_ns())

    def end(self, token) -> None:
        if token is not None:
            seq, layer, start = token
            self.events.append((seq, layer, start, time.perf_counter_ns()))

    @contextmanager
    def span(self, layer: str):
        token = self.begin(layer)
        try:
            yield
        finally:
            self.end(token)

    def self_times(
        self, t0: int | None = None, t1: int | None = None
    ) -> tuple[dict[str, float], float, float]:
        """``(layer -> self seconds, uncovered seconds, wall seconds)``
        over the traced window, or over ``[t0, t1)`` inside it.

        Raises:
            RuntimeError: If the attributed parts do not add up to the
                wall time (a double count or a lost interval).
        """
        t0 = self._t0 if t0 is None else t0
        t1 = self._t1 if t1 is None else t1
        wall_ns = t1 - t0
        clipped = [
            (seq, layer, max(s, t0), min(e, t1))
            for seq, layer, s, e in self.events
            if s < t1 and e > t0
        ]
        marks = sorted(
            {t0, t1} | {t for _, _, s, e in clipped for t in (s, e)}
        )
        by_start = sorted(clipped, key=lambda ev: ev[2])
        active: list[tuple[int, int, str]] = []  # (-seq, end, layer)
        charged = dict.fromkeys(LAYERS, 0)
        uncovered = 0
        i = 0
        for lo, hi in zip(marks, marks[1:]):
            while i < len(by_start) and by_start[i][2] <= lo:
                seq, layer, _start, end = by_start[i]
                heapq.heappush(active, (-seq, end, layer))
                i += 1
            while active and active[0][1] <= lo:
                heapq.heappop(active)
            if active:
                charged[active[0][2]] += hi - lo
            else:
                uncovered += hi - lo
        if sum(charged.values()) + uncovered != wall_ns:
            raise RuntimeError("self times do not add up to the wall time")
        return (
            {k: v / 1e9 for k, v in charged.items()},
            uncovered / 1e9,
            wall_ns / 1e9,
        )


class TimedCache(ArtifactCache):
    """An artifact cache that times its own reads and writes.

    Passed explicitly as ``cache=`` to the ``cached_*`` functions, so
    the process-wide default cache is never consulted.
    """

    def __init__(self, directory, spans: Spans) -> None:
        super().__init__(directory)
        self.spans = spans
        self.get_s = 0.0
        self.put_s = 0.0

    def get(self, key):
        token = self.spans.begin("runner.cache")
        t = time.perf_counter()
        try:
            return super().get(key)
        finally:
            self.get_s += time.perf_counter() - t
            self.spans.end(token)

    def put(self, key, payload) -> None:
        token = self.spans.begin("runner.cache")
        t = time.perf_counter()
        try:
            super().put(key, payload)
        finally:
            self.put_s += time.perf_counter() - t
            self.spans.end(token)


def quantile(values, q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation."""
    data = sorted(values)
    if not data:
        raise ValueError("no samples")
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def weighted_quantile(pairs, q: float) -> float:
    """The ``q`` quantile of ``(value, weight)`` pairs: the smallest
    value at which the cumulative weight reaches ``q`` of the total."""
    data = sorted(pairs)
    target = q * sum(w for _, w in data)
    acc = 0.0
    for value, weight in data:
        acc += weight
        if acc >= target:
            return value
    return data[-1][0]


def median(values) -> float:
    return statistics.median(values)


@contextmanager
def gc_paused():
    """Collect cyclic garbage, then keep the collector off until the
    block ends, as ``timeit`` does.  In a benchmark process a full
    collection scans every artifact the benchmark holds, takes up to
    half a second, and lands on whichever program happens to run."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def fast(times) -> float:
    """The fast quartile (0.25 quantile) of repeated timings of the
    same work, taken over windows spread across the run.

    The host is shared: in spells of one to a few seconds, at any time
    and for any share of a run, the same work takes up to 1.6x longer.
    A median over a run moves with that share; the fast quartile reads
    the work's own cost outside the spells, as long as they cover less
    than three quarters of the run.
    """
    return quantile(times, 0.25)


class HostSpeed:
    """How fast the host runs right now, from a fixed probe kernel
    timed next to the work, so that times can be scaled to one speed.

    The host is shared, and its speed wanders: for tens of seconds at
    a time the same work runs up to 1.4x slower, by the CPU time the
    process gets as much as by the wall clock, so neither a longer run
    nor a robust statistic inside one removes it.  The probe does
    what the stack does, interpreter dispatch and a numpy gather from
    a few MB, and never touches the program under test, so a change
    to the program cannot move it.  ``scaled`` turns a measured
    interval into the time it would have taken at the reference speed
    ``REF_S``: the probe's time on the reference host (2-vCPU x86_64
    VM) at its quiet times.
    """

    #: Probe seconds at the reference speed.
    REF_S = 0.6e-3
    #: Least seconds between two probes.
    EVERY_S = 0.25
    #: Probes within this many seconds of an interval describe it (one
    #: probe alone is noisy).
    NEAR_S = 0.75

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = rng.random(1 << 19)  # 4 MiB
        self._index = rng.integers(0, 1 << 19, 1 << 16)
        self._keys = [f"k{i}" for i in range(64)]
        self.at: list[float] = []
        self.took: list[float] = []

    def _kernel(self) -> float:
        counts = dict.fromkeys(self._keys, 0)
        for i in range(4000):
            counts[self._keys[i & 63]] += i
        return float(self._table[self._index].sum()) + counts["k0"]

    def tick(self) -> None:
        """Probe the host, unless it was probed less than ``EVERY_S``
        ago.  Call it before and after every timed interval."""
        now = time.perf_counter()
        if self.at and now - self.at[-1] < self.EVERY_S:
            return
        runs = []
        for _ in range(5):
            t = time.perf_counter()
            self._kernel()
            runs.append(time.perf_counter() - t)
        self.at.append(time.perf_counter())
        self.took.append(statistics.median(runs))

    def scaled(self, t0: float, t1: float) -> float:
        """``t1 - t0`` at the reference speed, from the probes taken
        during the interval or within ``NEAR_S`` of it."""
        lo = bisect.bisect_left(self.at, t0 - self.NEAR_S)
        hi = bisect.bisect_right(self.at, t1 + self.NEAR_S)
        took = self.took[lo:hi]
        if not took:
            if not self.at:
                raise RuntimeError("the host was never probed")
            i = min(max(bisect.bisect_left(self.at, t0), 0), len(self.at) - 1)
            took = [self.took[i]]
        return (t1 - t0) * self.REF_S / statistics.median(took)


#: The one host-speed probe of a benchmark process.
HOST = HostSpeed()


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def host_fingerprint() -> dict:
    import numpy

    return {
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": len(os.sched_getaffinity(0)),
    }


def code_digest() -> str:
    """Digest of every source file that can change an exact count."""
    h = hashlib.blake2b(digest_size=12)
    for base in (ROOT / "src" / "repro", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def check_exact_record(workload: str, seed: int, counts: dict) -> list[str]:
    """Compare exact counts with the record of an earlier run of the
    same code and seed (writing the record on first sight).

    Returns the names of the counts that disagree.
    """
    record_dir = STATE_DIR / "exact"
    record_dir.mkdir(parents=True, exist_ok=True)
    path = record_dir / f"{workload}-{seed}-{code_digest()}.json"
    if path.exists():
        before = json.loads(path.read_text())
        return sorted(
            k for k in set(before) | set(counts)
            if before.get(k) != counts.get(k)
        )
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    os.replace(tmp, path)
    return []


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
