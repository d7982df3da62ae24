"""Measurement helpers of the benchmark: seeds, percentiles, ratios,
wall-clock spans and the host record.

Nothing here imports ``repro``: the helpers are tested on their own
(``python -m pytest perfbench``) and the program under test stays a
black box reached only through the calls in ``session.py``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, highest last.  A fixed grid
#: keeps the reported rank away from the edge of the slowest samples,
#: so a handful of cold outliers cannot make the tail jump run to run.
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: Samples a tail percentile must leave beyond it.
TAIL_MIN_BEYOND = 10


def derive_seed(seed: int, name: str) -> int:
    """A 31-bit seed for input ``name``, derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``numpy`` 'linear' definition)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def percentiles(samples: Sequence[float]) -> Dict[str, float]:
    """The samples' median and every :data:`TAIL_GRID` percentile."""
    return {f"p{pct:g}": percentile(samples, pct) for pct in TAIL_GRID}


def trimmed_mean(samples: Sequence[float], share: float = 0.1) -> float:
    """Mean of the samples without the lowest and highest ``share``."""
    ordered = sorted(samples)
    cut = int(len(ordered) * share)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The tail latency: ``(value, percentile, sample count)``.

    The percentile is the highest of :data:`TAIL_GRID` that leaves at
    least :data:`TAIL_MIN_BEYOND` samples beyond it.  Fewer than
    ``2 * TAIL_MIN_BEYOND`` samples support no tail at all.
    """
    count = len(samples)
    chosen = None
    for pct in TAIL_GRID:
        # Rounded: (100 - 99.9) is not exactly 0.1 in binary.
        if round(count * (100.0 - pct) / 100.0, 6) >= TAIL_MIN_BEYOND:
            chosen = pct
    if chosen is None:
        raise ValueError(f"{count} samples support no tail "
                         f"(need {2 * TAIL_MIN_BEYOND})")
    return percentile(samples, chosen), chosen, count


@dataclass(frozen=True)
class Ratio:
    """A ratio kept with its base, so no figure loses its denominator."""

    numerator: float
    base: float

    @property
    def value(self) -> float:
        if self.base == 0:
            raise ZeroDivisionError("ratio over a zero base")
        return self.numerator / self.base

    def to_json(self) -> Dict[str, float]:
        return {"value": self.value, "numerator": self.numerator,
                "base": self.base}


# -- spans -------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    request: Optional[str] = None
    index: int = 0

    def to_json(self) -> Dict[str, object]:
        return {"index": self.index, "name": self.name,
                "start": self.start, "end": self.end,
                "parent": self.parent, "request": self.request}


class Tracer:
    """Wall-clock spans recorded in memory around calls into the program.

    ``span()`` nests per thread: a span opened while another is open on
    the same thread becomes its child; a span opened on a worker thread
    names its parent explicitly.  A disabled tracer records nothing and
    returns ``None`` from ``span()``.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, request: Optional[str] = None,
             parent: Optional[int] = None) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if parent is None and stack:
            parent = stack[-1].index
        record = Span(name=name, start=time.perf_counter(),
                      parent=parent, request=request)
        with self._lock:
            record.index = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def current(self) -> Optional[int]:
        """Index of the span open on the calling thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1].index if stack else None

    def totals(self, name: str) -> List[float]:
        """Durations of every span called ``name``."""
        return [s.end - s.start for s in self.spans if s.name == name]


def covered(intervals: Sequence[Tuple[float, float]],
            low: float, high: float) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, low), min(b, high)) for a, b in intervals)
    total = 0.0
    cursor = low
    for start, end in clipped:
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time per span name: duration minus child coverage.

    Children of one parent may overlap (concurrent client threads), so
    coverage is the length of the union of their intervals, not the sum.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    result: Dict[str, float] = {}
    for s in spans:
        own = (s.end - s.start) - covered(children.get(s.index, ()),
                                          s.start, s.end)
        result[s.name] = result.get(s.name, 0.0) + own
    return result


def span_cost_s(samples: int = 2000) -> float:
    """Measured seconds one recorded span costs, on this host."""
    probe = Tracer(enabled=True)
    start = time.perf_counter()
    for _ in range(samples):
        with probe.span("probe"):
            pass
    traced = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        pass
    return max(0.0, traced - (time.perf_counter() - start)) / samples


# -- host record -------------------------------------------------------------


class Yardstick:
    """A fixed pure-Python annealing loop, the host-speed yardstick.

    It belongs to the benchmark, not the program, so it does the same
    work on every commit.  It mixes what the program spends its time on
    -- seeded random draws, list and dict indexing, tuples, small
    function calls -- over a working set of a few thousand objects.
    """

    CELLS = 1500
    GRID = 48

    def __init__(self) -> None:
        rng = self.rng = random.Random(12345)
        self.where = [(rng.randrange(self.GRID), rng.randrange(self.GRID))
                      for _ in range(self.CELLS)]
        self.nets = [[rng.randrange(self.CELLS) for _ in range(4)]
                     for _ in range(2000)]
        self.nets_of: Dict[int, List[int]] = {}
        for index, net in enumerate(self.nets):
            for cell in net:
                self.nets_of.setdefault(cell, []).append(index)

    def burst(self, moves: int = 80) -> int:
        """``moves`` annealing moves; returns how many were accepted."""
        rng, where, nets = self.rng, self.where, self.nets

        def wirelength(net: List[int]) -> int:
            xs = [where[cell][0] for cell in net]
            ys = [where[cell][1] for cell in net]
            return max(xs) - min(xs) + max(ys) - min(ys)

        accepted = 0
        for _ in range(moves):
            cell = rng.randrange(self.CELLS)
            touched = self.nets_of.get(cell, ())
            before = sum(wirelength(nets[index]) for index in touched)
            old = where[cell]
            where[cell] = (rng.randrange(self.GRID), rng.randrange(self.GRID))
            if sum(wirelength(nets[index]) for index in touched) <= before:
                accepted += 1
            else:
                where[cell] = old
        return accepted


#: Seconds one :meth:`Yardstick.burst` takes on a 2-vCPU x86 VM at its
#: usual speed; timings are reported at this host speed.
REF_NOMINAL_S = 0.0025


class HostSpeed:
    """How fast the host ran, sampled all through a benchmark run.

    The shared host's speed swings by tens of percent within seconds
    and drifts for minutes, and every timing of the program follows it.
    So a sampler thread times a :class:`Yardstick` burst (~2.5 ms, well
    under the interpreter's 5 ms switch interval, so it runs in one
    piece) every :attr:`PERIOD_S`, and each measured interval is
    rescaled to the speed at which a burst takes :data:`REF_NOMINAL_S`:
    ``scaled = measured * REF_NOMINAL_S / ref``, with ``ref`` the
    :func:`trimmed_mean` burst inside the interval, or of the
    :attr:`NEAREST` bursts nearest to it when it holds fewer.  A mean,
    not a median: a measured time adds up the slow and fast moments
    alike.  A slower program still reads slower; a slower host does
    not.  The sampler costs about 3% of the main thread's time, the
    same on every commit.

    Sections that run several threads or processes of the program are
    measured :meth:`paused`: there the sampler would compete with them
    for the processors and measure the contention, not the host.
    """

    PERIOD_S = 0.1
    NEAREST = 12

    def __init__(self) -> None:
        #: (mid time, burst seconds) per sample, in time order.
        self.samples: List[Tuple[float, float]] = []
        self._yardstick = Yardstick()
        for _ in range(5):      # let the interpreter specialize its code
            self._yardstick.burst()
        self._active = True
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample,
                                        name="bench-host-speed",
                                        daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @contextmanager
    def paused(self) -> Iterator[None]:
        with self._lock:         # waits out a burst in progress
            self._active = False
        try:
            yield
        finally:
            self._active = True

    def _sample(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            with self._lock:
                if not self._active:
                    continue
                start = time.perf_counter()
                self._yardstick.burst()
                end = time.perf_counter()
            self.samples.append(((start + end) / 2.0, end - start))

    def ref_s(self, start: float, end: float) -> float:
        """Mean burst seconds inside ``[start, end]``, or of the
        :attr:`NEAREST` bursts nearest to it if it holds fewer."""
        def distance(sample: Tuple[float, float]) -> float:
            return max(start - sample[0], sample[0] - end, 0.0)

        ordered = sorted(self.samples, key=distance)
        inside = sum(1 for sample in ordered if distance(sample) == 0.0)
        chosen = ordered[:max(inside, self.NEAREST)]
        if not chosen:
            raise RuntimeError("no host-speed samples")
        return trimmed_mean([ref for _, ref in chosen])

    def factor(self, start: float, end: float) -> float:
        """Multiply a time measured over ``[start, end]`` by this
        (divide a rate)."""
        return REF_NOMINAL_S / self.ref_s(start, end)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def commit_of(root: Path) -> str:
    """The checked-out commit, or ``"unknown"`` outside a git work tree.

    Only ``root`` itself is asked, never a repository above it.
    """
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_info(root: Path) -> Dict[str, object]:
    return {"nproc": os.cpu_count() or 1,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "commit": commit_of(root)}


@dataclass
class Checks:
    """One output check per operation: ``attempted`` counts them all,
    ``failures`` describes each one that failed."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
