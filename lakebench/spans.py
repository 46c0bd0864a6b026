"""In-memory spans, per-layer aggregation and the self-time report.

Every call the benchmark times goes through :meth:`Tracer.span`. With
recording off the span only measures the call; with recording on it is
also kept (name, start, end, parent, round) together with any counts
taken at the same boundary, and everything is written out once at exit.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``: the value is the sample with exactly
    ten larger samples after it, and the percentile is its rank on the
    0-100 scale. With fewer than 11 samples no sample qualifies and the
    result is None."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return None
    i = n - 11
    return (100.0 * i / (n - 1), float(xs[i]))


class Span:
    __slots__ = ("name", "start", "end", "parent", "round", "cpu")

    def __init__(self, name, start, parent, rnd):
        self.name, self.start, self.end, self.parent, self.round = name, start, None, parent, rnd
        self.cpu = None

    @property
    def elapsed(self) -> float:
        return self.end - self.start


class Tracer:
    """``cpu_clock`` returns the CPU seconds the run has used so far; spans
    opened with ``cpu=True`` also record the CPU time spent inside them."""

    def __init__(self, cpu_clock=None):
        self.cpu_clock = cpu_clock
        self.recording = False
        self.round = None
        self.spans: list[Span] = []
        self.counts: list[tuple[int | None, str, float]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, *, cpu: bool = False):
        s = Span(name, 0.0, self._stack[-1] if self._stack else None, self.round)
        if self.recording:
            self.spans.append(s)
            self._stack.append(len(self.spans) - 1)
        cpu0 = self.cpu_clock() if cpu else None
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            if cpu:
                s.cpu = self.cpu_clock() - cpu0
            if self.recording:
                self._stack.pop()

    def count(self, name: str, value: float) -> None:
        if self.recording:
            self.counts.append((self.round, name, float(value)))

    def has(self, name: str) -> bool:
        return any(s.name == name for s in self.spans)

    # -- aggregation ---------------------------------------------------
    def per_round_time(self, name: str) -> float | None:
        """Median over rounds of the total time spent in spans ``name``."""
        by_round: dict = defaultdict(float)
        for s in self.spans:
            if s.name == name:
                by_round[s.round] += s.elapsed
        return median(by_round.values()) if by_round else None

    def per_round_count(self, name: str, how=median) -> float | None:
        vals = [v for _, n, v in self.counts if n == name]
        return how(vals) if vals else None

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total time, self time). A span's self time is
        its duration minus the part of it its child spans cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.elapsed
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, s in enumerate(self.spans):
            row = out[s.name]
            row[0] += 1
            row[1] += s.elapsed
            row[2] += s.elapsed - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def report(self) -> str:
        rows = sorted(self.self_times().items(), key=lambda kv: -kv[1][2])
        lines = [f"{'span':44s} {'calls':>6s} {'total_s':>10s} {'self_s':>10s}"]
        lines += [f"{k:44s} {c:6d} {t:10.4f} {s:10.4f}" for k, (c, t, s) in rows]
        return "\n".join(lines)

    def dump(self, path: str) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as f:
            json.dump({
                "spans": [{"id": i, "name": s.name, "start": s.start - t0, "end": s.end - t0,
                           "cpu": s.cpu, "parent": s.parent, "round": s.round}
                          for i, s in enumerate(self.spans)],
                "counts": [{"round": r, "name": n, "value": v} for r, n, v in self.counts],
                "self_time": {k: {"calls": c, "total_s": t, "self_s": s}
                              for k, (c, t, s) in self.self_times().items()},
            }, f)
