"""The exact histogram behind every latency table and trace histogram.

Counters and gauges need no class: a trace's metrics are folded from
its event log (:meth:`repro.obs.trace.Tracer.metrics`), and the SLO and
open-loop reports merge :class:`Histogram` values across workers.

This module deliberately imports nothing from the rest of ``repro`` so
that instrumented modules (kernel, engine) can import the observability
layer without cycles.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional


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

    @classmethod
    def from_counts(cls, name: str,
                    values: Mapping[str, int]) -> "Histogram":
        """The histogram of a report's ``{"<value>": count}`` map — the
        form per-cell latency counts travel in between workers."""
        histogram = cls(name)
        for key, count in values.items():
            value = int(key)
            histogram.count += count
            histogram.total += value * count
            histogram.counts[value] = histogram.counts.get(value, 0) + count
            if histogram.min_value is None or value < histogram.min_value:
                histogram.min_value = value
            if histogram.max_value is None or value > histogram.max_value:
                histogram.max_value = value
        return histogram

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
