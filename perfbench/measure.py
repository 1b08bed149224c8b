"""Estimators, span arithmetic and failure accounting for the benchmark.

Pure functions and small records only: nothing here touches the program
under test, so the unit tests in ``perfbench/tests`` cover it directly.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

#: Percentiles the tail helper may report, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile (``pct`` in (0, 100]) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``pct``."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def min_samples_for(pct: float, beyond: int = MIN_BEYOND) -> int:
    """The smallest sample count leaving ``beyond`` samples past ``pct``."""
    n = 1
    while samples_beyond(n, pct) < beyond:
        n += 1
    return n


@dataclass(frozen=True)
class Tail:
    """The highest percentile of a sample with enough samples beyond it."""

    pct: float
    value: float
    n: int
    beyond: int


def tail(samples, ladder=TAIL_LADDER, beyond: int = MIN_BEYOND) -> "Tail | None":
    """The highest ``ladder`` percentile with ``beyond`` samples past it.

    ``None`` when even the lowest rung lacks support (fewer than
    ``min_samples_for(ladder[-1])`` samples).
    """
    n = len(samples)
    for pct in ladder:
        if samples_beyond(n, pct) >= beyond:
            return Tail(pct, percentile(samples, pct), n, samples_beyond(n, pct))
    return None


def median(samples) -> float:
    return percentile(samples, 50.0)


def describe(samples) -> str:
    """``median`` plus the supported tail, with counts, for the tables."""
    if not samples:
        return "n=0"
    out = f"p50 {median(samples):.4g} (n={len(samples)})"
    t = tail(samples)
    if t is not None and t.pct > 50.0:
        out += f", p{t.pct:g} {t.value:.4g} ({t.beyond} beyond)"
    return out


# -- spans -------------------------------------------------------------------
@dataclass
class Span:
    """One timed interval recorded by the benchmark around a layer call."""

    name: str
    start: float
    end: float
    parent: "int | None" = None
    query: "int | None" = None
    sid: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SpanLog:
    """Spans kept in memory and written out once, at the end of a run."""

    spans: list = field(default_factory=list)

    def add(self, name, start, end, parent=None, query=None) -> int:
        sid = len(self.spans)
        self.spans.append(Span(name, start, end, parent, query, sid))
        return sid

    def nested(self, name, parent: int, duration: float, query=None) -> int:
        """A child of ``parent`` known only by its duration.

        The program reports some layer times as durations (``latency_s``,
        ``makespan_s``) without a start on the benchmark's clock; such a
        child is centred in its parent, which leaves the self-time
        arithmetic exact (only the covered length matters).
        """
        outer = self.spans[parent]
        duration = min(max(duration, 0.0), outer.duration)
        start = outer.start + (outer.duration - duration) / 2.0
        return self.add(name, start, start + duration, parent, query)

    def self_times(self) -> "dict[int, float]":
        return self_times(self.spans)

    def self_ms(self, name: str) -> "list[float]":
        """Self time (ms) of every span called ``name``."""
        own = self.self_times()
        return [own[s.sid] * 1000.0 for s in self.spans if s.name == name]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "query": s.query,
                }) + "\n")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> "dict[int, float]":
    """Each span's duration minus the part its children cover."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - covered(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


# -- failure accounting ------------------------------------------------------
@dataclass
class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        """``n`` attempted operations that failed."""
        self.attempted += n
        self.failed += n
        self.reasons[reason] += n

    def retract(self, reason: str, n: int = 1) -> None:
        """Turn ``n`` operations already counted as attempted into failures
        (an output check that fails after the operation completed)."""
        self.failed += n
        self.reasons[reason] += n

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
