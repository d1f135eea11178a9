"""The one counter/gauge/timer/histogram sink every layer reports into.

Engines, routers, simulators and the compile service each take an
optional :class:`Stats` sink and feed it named counters, float gauges,
wall-time buckets and latency histograms; benchmarks, the compile report
and the HTTP front-end read it back.  This module sits below every layer
(it imports nothing but :mod:`repro.exceptions`), so the simulator can
report without importing the compiler stack.  The counter names each
layer uses are listed in ``docs/ARCHITECTURE.md`` ("Stats sinks").

Names of per-entity series use a ``family:key`` form
(``http:/v1/compile``, ``shard_bytes:<digest>``), which the Prometheus
renderer in :mod:`repro.service.metrics` turns into labels.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.exceptions import ServiceError

__all__ = ["DEFAULT_BUCKETS", "LatencyHistogram", "Stats", "rate"]

#: Upper bucket bounds in seconds: 1ms .. 60s, log-spaced, matching the
#: range a compile request can plausibly take (warm hit to exact-tier race).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)


class LatencyHistogram:
    """Fixed-bucket histogram of seconds (Prometheus-classic shape).

    ``counts[i]`` holds observations with ``value <= buckets[i]`` that
    did not fit an earlier bucket; ``counts[-1]`` is the ``+Inf``
    overflow bucket.  ``cumulative()`` produces the monotone
    less-or-equal totals the text format wants.  Fixed buckets keep
    ``observe`` O(log B) and make merging two histograms a plain
    element-wise add.
    """

    __slots__ = ("buckets", "counts", "sum")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ServiceError(
                "histogram buckets must be a non-empty strictly "
                f"increasing sequence, got {buckets!r}"
            )
        self.buckets = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.sum = 0.0

    @property
    def count(self) -> int:
        """Total number of observations."""
        return sum(self.counts)

    def observe(self, seconds: float) -> None:
        """Record one observation of *seconds*."""
        self.counts[bisect_left(self.buckets, float(seconds))] += 1
        self.sum += float(seconds)

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, count_le)`` pairs; the last bound is ``inf``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Bucket-upper-bound estimate of the *q* quantile (0..1)."""
        total = self.count
        if total == 0:
            return 0.0
        rank = q * total
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            if running >= rank:
                return bound
        return self.buckets[-1]

    def merge(self, other: "LatencyHistogram") -> None:
        """Element-wise add *other* into this histogram (same buckets)."""
        if other.buckets != self.buckets:
            raise ServiceError(
                "cannot merge histograms with different bucket bounds"
            )
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.sum += other.sum

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible snapshot (``/v1/stats`` payload fragment)."""
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "LatencyHistogram":
        hist = cls(payload["buckets"])  # type: ignore[arg-type]
        counts = list(payload["counts"])  # type: ignore[call-overload]
        if len(counts) != len(hist.counts):
            raise ServiceError("histogram snapshot counts/buckets mismatch")
        hist.counts = [int(c) for c in counts]
        hist.sum = float(payload["sum"])  # type: ignore[arg-type]
        return hist


@dataclass
class Stats:
    """Counter/gauge/timer/histogram sink for one run (or many, merged)."""

    counters: Dict[str, int] = field(default_factory=dict)
    timers: Dict[str, float] = field(default_factory=dict)
    values: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, LatencyHistogram] = field(default_factory=dict)

    def count(self, name: str, amount: int = 1) -> None:
        """Increment counter *name* by *amount*."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def add_time(self, name: str, seconds: float) -> None:
        """Add *seconds* to wall-time bucket *name*."""
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    def add_value(self, name: str, amount: float) -> None:
        """Accumulate *amount* into gauge *name* (e.g. dropped mass)."""
        self.values[name] = self.values.get(name, 0.0) + amount

    def set_value(self, name: str, value: float) -> None:
        """Overwrite gauge *name* (e.g. final tree size)."""
        self.values[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Record *seconds* into latency histogram *name*."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = LatencyHistogram()
        hist.observe(seconds)

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Context manager timing its block into bucket *name*."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    def merge(self, other: "Stats") -> None:
        """Fold *other*'s counters, gauges, timers, and histograms in."""
        for name, value in other.counters.items():
            self.count(name, value)
        for name, value in other.timers.items():
            self.add_time(name, value)
        for name, value in other.values.items():
            self.add_value(name, value)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = LatencyHistogram(hist.buckets)
            mine.merge(hist)

    def reset(self) -> None:
        """Zero all counters, gauges, timers, and histograms."""
        self.counters.clear()
        self.timers.clear()
        self.values.clear()
        self.histograms.clear()

    def summary(self) -> str:
        """One-line report for benchmark and CLI output."""
        parts = [f"{name}={self.counters[name]}" for name in sorted(self.counters)]
        parts.extend(f"{name}={self.values[name]:g}" for name in sorted(self.values))
        parts.extend(
            f"{name}_s={self.timers[name]:.3f}" for name in sorted(self.timers)
        )
        return ", ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible snapshot; ``histograms`` only when there are any."""
        payload: Dict[str, object] = {
            "counters": dict(self.counters),
            "timers": dict(self.timers),
            "values": dict(self.values),
        }
        if self.histograms:
            payload["histograms"] = {
                name: hist.to_dict() for name, hist in self.histograms.items()
            }
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Stats":
        """Inverse of :meth:`to_dict`; ``values`` and ``histograms`` may be
        absent (records written before every sink carried gauges)."""
        return cls(
            counters={k: int(v) for k, v in payload["counters"].items()},
            timers={k: float(v) for k, v in payload["timers"].items()},
            values={k: float(v) for k, v in payload.get("values", {}).items()},
            histograms={
                k: LatencyHistogram.from_dict(v)
                for k, v in payload.get("histograms", {}).items()
            },
        )


def rate(stats: Stats, part: str, *whole: str) -> float:
    """Counter *part* as a fraction of the summed counters *whole*.

    ``rate(s, "hits", "hits", "misses")`` is a cache hit rate;
    ``rate(s, "dedup_folds", "requests")`` the share of requests folded
    onto an identical one.  0.0 while the denominator is zero.
    """
    total = sum(stats.counters.get(name, 0) for name in whole)
    return stats.counters.get(part, 0) / total if total else 0.0
