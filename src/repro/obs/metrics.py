"""Metrics registry: counters, gauges, and histograms.

The observability layer keeps runtime telemetry separate from the trace
event stream: events answer "what happened, in order", metrics answer
"how much, in total".  A :class:`MetricsRegistry` snapshot is appended
as the final line of every JSONL trace.

This module deliberately imports nothing from the rest of ``repro`` so
that instrumented modules (kernel, engine) can import the observability
layer without cycles.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class Counter:
    """Monotonically increasing count (e.g. ``syscalls.total``)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def as_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time level (e.g. ``ring.occupancy``); tracks its max."""

    __slots__ = ("name", "value", "max_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self.max_value = 0

    def set(self, value: int) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def as_dict(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value, "max": self.max_value}


class Histogram:
    """Exact value distribution over observed values.

    The simulator's virtual-time values are exact integers, so instead
    of approximating with log buckets the histogram keeps exact
    per-value counts: :meth:`quantile` is then the true nearest-rank
    percentile and :meth:`merge` makes cross-worker aggregation lossless
    — two sharded halves merged together are indistinguishable from one
    serial run.
    """

    __slots__ = ("name", "count", "total", "min_value", "max_value",
                 "counts")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0
        self.min_value: Optional[int] = None
        self.max_value: Optional[int] = None
        #: Exact value -> occurrence count.
        self.counts: Dict[int, int] = {}

    def observe(self, value: int) -> None:
        self.count += 1
        self.total += value
        self.counts[value] = self.counts.get(value, 0) + 1
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[int]:
        """Exact nearest-rank quantile: the smallest observed value with
        at least ``ceil(q * count)`` observations at or below it.

        ``quantile(0.0)`` is the minimum, ``quantile(1.0)`` the maximum;
        None when nothing was observed.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return None
        rank = q * self.count
        target = int(rank) if rank == int(rank) else int(rank) + 1
        target = max(1, target)
        cumulative = 0
        for value in sorted(self.counts):
            cumulative += self.counts[value]
            if cumulative >= target:
                return value
        return self.max_value  # pragma: no cover - counts always sum

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram's observations into this one.

        Lossless by construction (exact counts add), so a sharded run's
        per-worker histograms merge into exactly the serial histogram —
        the property the ``--workers`` byte-identity guarantee rests on.
        Returns ``self`` for chaining.
        """
        self.count += other.count
        self.total += other.total
        for value, n in other.counts.items():
            self.counts[value] = self.counts.get(value, 0) + n
        if other.min_value is not None and (
                self.min_value is None or other.min_value < self.min_value):
            self.min_value = other.min_value
        if other.max_value is not None and (
                self.max_value is None or other.max_value > self.max_value):
            self.max_value = other.max_value
        return self

    def as_dict(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "min": self.min_value,
            "max": self.max_value,
            "mean": round(self.mean, 3),
        }


class MetricsRegistry:
    """Named metrics, created lazily on first touch.

    A name belongs to exactly one metric type for the registry's
    lifetime; asking for the same name with a different type raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All metrics as plain JSON-ready dicts, sorted by name."""
        return {name: metric.as_dict()
                for name, metric in sorted(self._metrics.items())}
