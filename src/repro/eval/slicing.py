"""Metric extraction and slice construction over paired runs.

A report answers "how does policy B compare to baseline A" *per
metric* and *per workload slice*.  This module owns both axes:

* :data:`METRICS` declares the derived per-run metrics — throughput,
  LLC MPKI, LLC miss rate, inclusion victims per kilo-instruction and
  the paper's Section V.B back-invalidate-class rate — each tagged
  with the direction that counts as an improvement so the report can
  colour deltas without per-metric special cases.
* :func:`slice_pairs` groups the paired runs by workload-category tag
  (``CCF+LLCT`` etc., from the sweep manifest), always prepending the
  ``All`` slice, so every table row is "this metric, on this subset of
  workloads, with paired statistics".
* :func:`interval_overlay` reduces the per-kcycle interval series of
  both sides of every pair to a window-aligned mean overlay — the
  time-resolved version of the back-invalidate rate claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..orchestrate import RunSummary
from ..telemetry.events import BACK_INVALIDATE_CLASS
from .pairing import Pair
from .stats import PairedStats, SeedDraws, derive_seed

#: slice label covering every pair regardless of category.
SLICE_ALL = "All"


@dataclass(frozen=True)
class Metric:
    """One derived per-run metric, with its improvement direction."""

    name: str
    unit: str
    higher_is_better: bool
    extract: Callable[[RunSummary], float]
    description: str


def _total_instructions(summary: RunSummary) -> int:
    return sum(summary.instructions)


def _llc_mpki(summary: RunSummary) -> float:
    instructions = _total_instructions(summary)
    return 1000.0 * summary.llc_misses / instructions if instructions else 0.0


def _llc_miss_rate(summary: RunSummary) -> float:
    return (
        summary.llc_misses / summary.llc_accesses
        if summary.llc_accesses
        else 0.0
    )


def _victims_per_ki(summary: RunSummary) -> float:
    instructions = _total_instructions(summary)
    return (
        1000.0 * summary.inclusion_victims / instructions
        if instructions
        else 0.0
    )


def _bi_class_per_kcycle(summary: RunSummary) -> float:
    messages = sum(summary.traffic.get(key, 0) for key in BACK_INVALIDATE_CLASS)
    return 1000.0 * messages / summary.max_cycles if summary.max_cycles else 0.0


#: the report's metric set, in table order.
METRICS: Tuple[Metric, ...] = (
    Metric(
        name="throughput",
        unit="IPC",
        higher_is_better=True,
        extract=lambda summary: summary.throughput,
        description="sum of per-core IPCs",
    ),
    Metric(
        name="llc_mpki",
        unit="misses/KI",
        higher_is_better=False,
        extract=_llc_mpki,
        description="LLC misses per kilo-instruction (all cores)",
    ),
    Metric(
        name="llc_miss_rate",
        unit="ratio",
        higher_is_better=False,
        extract=_llc_miss_rate,
        description="LLC misses / LLC accesses",
    ),
    Metric(
        name="inclusion_victims_per_ki",
        unit="victims/KI",
        higher_is_better=False,
        extract=_victims_per_ki,
        description="hot lines killed by inclusion per kilo-instruction",
    ),
    Metric(
        name="bi_class_per_kcycle",
        unit="msgs/kcycle",
        higher_is_better=False,
        extract=_bi_class_per_kcycle,
        description="back-invalidate-class messages per 1000 cycles "
        "(paper Section V.B)",
    ),
)

METRICS_BY_NAME: Dict[str, Metric] = {metric.name: metric for metric in METRICS}


def metric_values(
    pairs: Sequence[Pair], metric: Metric
) -> Tuple[List[float], List[float]]:
    """(baseline, candidate) value vectors for one metric, pair-aligned."""
    a = [metric.extract(pair.a.summary) for pair in pairs]
    b = [metric.extract(pair.b.summary) for pair in pairs]
    return a, b


def slice_pairs(pairs: Sequence[Pair]) -> Dict[str, List[Pair]]:
    """Pairs grouped by category tag, ``All`` first, tags sorted."""
    slices: Dict[str, List[Pair]] = {SLICE_ALL: list(pairs)}
    by_category: Dict[str, List[Pair]] = {}
    for pair in pairs:
        by_category.setdefault(pair.category, []).append(pair)
    for category in sorted(by_category):
        slices[category] = by_category[category]
    return slices


@dataclass(frozen=True)
class SliceCell:
    """One (metric, slice) table cell: the paired stats plus context."""

    metric: str
    slice_name: str
    stats: PairedStats
    higher_is_better: bool
    #: Holm-adjusted permutation p-value, filled in report assembly
    #: once the whole comparison family is known.
    p_adjusted: Optional[float] = None

    @property
    def improved(self) -> Optional[bool]:
        """Direction-aware verdict on the mean delta (None for a tie)."""
        if self.stats.mean_delta == 0:
            return None
        if self.higher_is_better:
            return self.stats.mean_delta > 0
        return self.stats.mean_delta < 0

    def to_dict(self) -> Dict:
        data = {
            "metric": self.metric,
            "slice": self.slice_name,
            "higher_is_better": self.higher_is_better,
            "improved": self.improved,
            "p_adjusted": self.p_adjusted,
        }
        data.update(self.stats.to_dict())
        return data


def build_cells(
    comparisons: Sequence[Sequence[Pair]],
    metrics: Sequence[Metric] = METRICS,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 2010,
) -> List[List[SliceCell]]:
    """Every (metric, slice) cell of each policy contrast, table order.

    ``comparisons`` holds each contrast's pairs; the result holds each
    contrast's cells.  Each cell resamples from its own
    :func:`~repro.eval.stats.derive_seed` stream, so adding a metric or
    slice never perturbs the others' intervals — reports stay stable
    under extension.  That stream does not depend on the policy, so
    the loop runs cell by cell across the contrasts and makes each
    seed's draws once, dropping them before the next seed.
    """
    sliced = [slice_pairs(pairs) for pairs in comparisons]
    tags = sorted({name for slices in sliced for name in slices} - {SLICE_ALL})
    cells: List[List[SliceCell]] = [[] for _ in comparisons]
    for metric in metrics:
        for slice_name in [SLICE_ALL, *tags]:
            draws = SeedDraws(
                derive_seed(seed, f"{metric.name}:{slice_name}"), resamples
            )
            for slices, contrast in zip(sliced, cells):
                if slice_name not in slices:
                    continue
                a, b = metric_values(slices[slice_name], metric)
                contrast.append(
                    SliceCell(
                        metric=metric.name,
                        slice_name=slice_name,
                        stats=draws.paired_stats(a, b, confidence),
                        higher_is_better=metric.higher_is_better,
                    )
                )
    return cells


def interval_overlay(pairs: Sequence[Pair]) -> Optional[Dict]:
    """Mean back-invalidate-class per-kcycle series across pairs.

    Uses :meth:`~repro.telemetry.IntervalSeries.back_invalidate_class_per_kcycle`
    from each side's interval telemetry, truncated to the shortest
    series so every window averages over the same pair population.
    Returns ``None`` when no pair carries interval telemetry (interval
    collection is opt-in), never a fabricated flat line.
    """
    series_a: List[List[float]] = []
    series_b: List[List[float]] = []
    window = None
    for pair in pairs:
        intervals_a = pair.a.summary.interval_series()
        intervals_b = pair.b.summary.interval_series()
        if intervals_a is None or intervals_b is None:
            continue
        if intervals_a.num_windows == 0 or intervals_b.num_windows == 0:
            continue
        window = window or intervals_a.window
        series_a.append(intervals_a.back_invalidate_class_per_kcycle())
        series_b.append(intervals_b.back_invalidate_class_per_kcycle())
    if not series_a:
        return None
    length = min(len(series) for series in series_a + series_b)
    mean_a = [
        sum(series[index] for series in series_a) / len(series_a)
        for index in range(length)
    ]
    mean_b = [
        sum(series[index] for series in series_b) / len(series_b)
        for index in range(length)
    ]
    return {
        "metric": "bi_class_per_kcycle",
        "window_cycles": window,
        "num_pairs": len(series_a),
        "num_windows": length,
        "baseline": mean_a,
        "candidate": mean_b,
    }
