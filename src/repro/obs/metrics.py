"""Named metric stores: counters, gauges and histograms.

All three are plain dict-backed stores; locking lives in the
:class:`~repro.obs.recorder.Recorder` that owns them.  Histogram summaries
(p50/p95/p99) are computed on demand from the raw observations — exact
percentiles, not sketch approximations, which is the right trade-off for
the ~10^3-10^5 observations a profiling run produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class CounterStore:
    """Monotonically accumulating named counters."""

    def __init__(self) -> None:
        self._values: dict[str, float] = {}

    def add(self, name: str, n: float = 1.0) -> None:
        self._values[name] = self._values.get(name, 0.0) + n

    def get(self, name: str) -> float:
        return self._values.get(name, 0.0)

    def as_dict(self) -> dict[str, float]:
        return dict(self._values)

    def __len__(self) -> int:
        return len(self._values)


@dataclass
class GaugeValue:
    """Last/min/max/mean of a sampled quantity."""

    last: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    total: float = 0.0
    n: int = 0

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def update(self, value: float) -> None:
        self.last = value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self.total += value
        self.n += 1

    def as_dict(self) -> dict[str, float]:
        return {
            "last": self.last,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "n": float(self.n),
        }


class GaugeStore:
    """Named gauges: point-in-time samples with min/max/mean tracking."""

    def __init__(self) -> None:
        self._values: dict[str, GaugeValue] = {}

    def set(self, name: str, value: float) -> None:
        gauge = self._values.get(name)
        if gauge is None:
            gauge = self._values[name] = GaugeValue()
        gauge.update(value)

    def get(self, name: str) -> GaugeValue | None:
        return self._values.get(name)

    def as_dict(self) -> dict[str, dict[str, float]]:
        return {name: g.as_dict() for name, g in self._values.items()}

    def __len__(self) -> int:
        return len(self._values)


@dataclass
class HistogramSummary:
    """Exact summary statistics of one histogram's observations."""

    count: int
    mean: float
    min: float
    max: float
    p50: float
    p95: float
    p99: float

    def as_dict(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``numpy.percentile`` default) of a
    pre-sorted list; ``q`` in [0, 100]."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of empty histogram")
    if n == 1:
        return sorted_values[0]
    pos = (q / 100.0) * (n - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


@dataclass
class Histogram:
    """Raw observations of one named quantity."""

    values: list[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.values.append(value)

    def summary(self) -> HistogramSummary:
        ordered = sorted(self.values)
        n = len(ordered)
        if n == 0:
            return HistogramSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return HistogramSummary(
            count=n,
            mean=sum(ordered) / n,
            min=ordered[0],
            max=ordered[-1],
            p50=percentile(ordered, 50.0),
            p95=percentile(ordered, 95.0),
            p99=percentile(ordered, 99.0),
        )


class HistogramStore:
    """Named histograms of raw float observations."""

    def __init__(self) -> None:
        self._values: dict[str, Histogram] = {}

    def observe(self, name: str, value: float) -> None:
        hist = self._values.get(name)
        if hist is None:
            hist = self._values[name] = Histogram()
        hist.observe(value)

    def get(self, name: str) -> Histogram | None:
        return self._values.get(name)

    def summaries(self) -> dict[str, HistogramSummary]:
        return {name: h.summary() for name, h in self._values.items()}

    def __len__(self) -> int:
        return len(self._values)
