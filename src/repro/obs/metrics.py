"""The unified metrics registry: labeled counters, gauges, histograms.

One :class:`MetricsRegistry` instance is the single source of truth
for a process's operational metrics.  The service broker owns the only
one, always on, and counts each event there once: the JSON
``/v1/metrics`` body (its ``jobs`` and ``requests`` sections are sums
over registry series) and the Prometheus text exposition
(:mod:`repro.obs.prom`) are both views over it, rendered after one
shared refresh of the point-in-time gauges.  Three instrument kinds:

* :class:`Counter` — monotonically increasing totals;
* :class:`Gauge` — point-in-time values (queue depth, workers busy);
* :class:`Histogram` — fixed-bucket latency/size distributions with
  exact ``sum``/``count`` and interpolated quantiles.

Every instrument carries a declared label tuple (``tenant``,
``route``, ...); a distinct label-value combination is one *series*.
Series materialise lazily on first update, so an idle tenant costs
nothing.

Thread-safety: one lock per registry guards series creation and
updates.  Updates are a dict lookup plus a float add under that lock —
cheap enough for admission-path use (the broker calls these while
already holding its own lock; the registry lock never takes any other
lock, so lock order is trivially acyclic).

Only JSON scalars/containers appear in exports, so a snapshot survives
the worker pipe and the ``/v1/metrics`` serialisation unchanged.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError

#: default histogram bucket upper bounds, in seconds — spans the
#: service's realistic range from sub-millisecond admission work to
#: minute-long simulations.  ``+Inf`` is implicit (the final bucket).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)


def _label_key(
    names: Tuple[str, ...], labels: Mapping[str, Any]
) -> Tuple[str, ...]:
    """Resolve keyword labels to the declared order; reject drift."""
    if len(labels) != len(names):
        raise ConfigurationError(
            f"expected labels {list(names)}, got {sorted(labels)}"
        )
    try:
        return tuple(str(labels[name]) for name in names)
    except KeyError as exc:
        raise ConfigurationError(
            f"missing label {exc.args[0]!r}; expected {list(names)}"
        ) from exc


class _Instrument:
    """Shared series bookkeeping for one named metric."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labels: Tuple[str, ...],
        lock: threading.Lock,
    ) -> None:
        self.name = name
        self.help = help_text
        self.label_names = labels
        self._lock = lock
        self._series: Dict[Tuple[str, ...], Any] = {}

    def _labels_dict(self, key: Tuple[str, ...]) -> Dict[str, str]:
        return dict(zip(self.label_names, key))

    def samples(self) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe export of this metric and all its series."""
        return {
            "type": self.kind,
            "help": self.help,
            "labels": list(self.label_names),
            "samples": self.samples(),
        }


class Counter(_Instrument):
    """A monotonically increasing total per label combination."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up")
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._series.get(key, 0.0)

    def total(self) -> float:
        """Sum over every series."""
        with self._lock:
            return sum(self._series.values())

    def sum_by(self, *names: str) -> Dict[str, float]:
        """Sums over the series, grouped by the ``names`` labels; each
        group is keyed by its label values joined with spaces."""
        index = [self.label_names.index(name) for name in names]
        sums: Dict[str, float] = {}
        with self._lock:
            for key, value in self._series.items():
                group = " ".join(key[i] for i in index)
                sums[group] = sums.get(group, 0.0) + value
        return sums

    def samples(self) -> List[Dict[str, Any]]:
        with self._lock:
            items = sorted(self._series.items())
        return [
            {"labels": self._labels_dict(key), "value": value}
            for key, value in items
        ]


class Gauge(_Instrument):
    """A point-in-time value per label combination."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._series[key] = float(value)

    def add(self, amount: float, **labels: Any) -> None:
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._series.get(key, 0.0)

    def samples(self) -> List[Dict[str, Any]]:
        with self._lock:
            items = sorted(self._series.items())
        return [
            {"labels": self._labels_dict(key), "value": value}
            for key, value in items
        ]


class Histogram(_Instrument):
    """Fixed-bucket distribution with exact sum/count per series.

    Buckets are *non-cumulative* internally (``counts[i]`` observations
    fell in ``(bounds[i-1], bounds[i]]``; the final slot is the
    ``+Inf`` overflow), which keeps :meth:`observe` to one index
    increment.  The Prometheus renderer accumulates them into the
    cumulative ``le`` form at scrape time, where cost does not matter.
    """

    kind = "histogram"

    def __init__(self, *args, buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(*args)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ConfigurationError(
                "histogram buckets must be non-empty, sorted and unique"
            )
        self.bounds = bounds

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(self.label_names, labels)
        value = float(value)
        # linear scan: bucket lists are short (~15) and admission-path
        # observations are rare relative to the work they measure.
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = {
                    "counts": [0] * (len(self.bounds) + 1),
                    "sum": 0.0,
                    "count": 0,
                }
            series["counts"][index] += 1
            series["sum"] += value
            series["count"] += 1

    def series(self, **labels: Any) -> Optional[Dict[str, Any]]:
        key = _label_key(self.label_names, labels)
        with self._lock:
            found = self._series.get(key)
            if found is None:
                return None
            return {
                "counts": list(found["counts"]),
                "sum": found["sum"],
                "count": found["count"],
            }

    def quantile(self, q: float, **labels: Any) -> Optional[float]:
        """Interpolated quantile for one series (None when empty)."""
        found = self.series(**labels)
        if found is None or not found["count"]:
            return None
        return quantile_from_buckets(self.bounds, found["counts"], q)

    def samples(self) -> List[Dict[str, Any]]:
        with self._lock:
            items = sorted(self._series.items())
        return [
            {
                "labels": self._labels_dict(key),
                "counts": list(series["counts"]),
                "sum": series["sum"],
                "count": series["count"],
            }
            for key, series in items
        ]

    def to_dict(self) -> Dict[str, Any]:
        data = super().to_dict()
        data["buckets"] = list(self.bounds)
        return data


def quantile_from_buckets(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> Optional[float]:
    """Estimate the ``q``-quantile of a bucketed distribution.

    Linear interpolation inside the bucket that crosses the target
    rank (the Prometheus ``histogram_quantile`` convention); the lowest
    bucket interpolates from 0 and the overflow bucket clamps to its
    lower bound, so the estimate never invents mass beyond the data.
    Exact when every observation sits on a bucket boundary — which the
    correctness tests exploit.

    An empty histogram (no observations, or no buckets at all) has no
    quantiles: the answer is ``None``, never a made-up 0.0 — renderers
    show it as ``—`` so "no data" cannot be misread as "zero latency".
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError("quantile must be within [0, 1]")
    if not bounds:
        return None
    total = sum(counts)
    if total == 0:
        return None
    rank = q * total
    seen = 0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        if seen + count >= rank:
            if index >= len(bounds):  # overflow bucket: clamp
                return float(bounds[-1])
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index]
            fraction = (rank - seen) / count
            return lower + (upper - lower) * fraction
        seen += count
    return float(bounds[-1])


class MetricsRegistry:
    """The process-wide set of named instruments.

    Instrument creation is idempotent for an identical declaration and
    an error for a conflicting one — two subsystems registering the
    same name must mean the same metric, or the exposition would lie.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Instrument] = {}

    def _register(self, cls, name: str, help_text: str, labels, **extra):
        label_names = tuple(labels)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if (
                    type(existing) is not cls
                    or existing.label_names != label_names
                ):
                    raise ConfigurationError(
                        f"metric {name!r} already registered with a "
                        "different type or label set"
                    )
                return existing
            metric = cls(
                name, help_text, label_names, self._lock, **extra
            )
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help_text: str, labels: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter, name, help_text, labels)

    def gauge(
        self, name: str, help_text: str, labels: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge, name, help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(
            Histogram, name, help_text, labels, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> List[_Instrument]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def to_dict(self) -> Dict[str, Any]:
        """The ``metrics`` section of ``/v1/metrics`` (schema v2)."""
        return {metric.name: metric.to_dict() for metric in self.metrics()}
