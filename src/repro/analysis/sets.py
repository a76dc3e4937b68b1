"""Per-set LLC pressure profiling.

Inclusion victims are produced where the LLC thrashes; this profiler
counts fills and evictions per LLC set so the source of the pressure
(streaming sets vs quiet sets) is visible.  Used by the
``victim_forensics`` example and handy when calibrating synthetic
workloads.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cache import Cache
from ..telemetry.events import EVENT_LLC_EVICT
from .victims import LLC_FILL_EVENTS


class SetPressureProfiler:
    """Trace-event sink counting LLC fill/eviction pressure per set.

    Attached and replayed like :class:`~repro.analysis.VictimReuseAnalyzer`.
    Fills are the ``llc_miss`` and ``victim_cache_rescue`` events and
    evictions the ``llc_evict`` events.  On an exclusive LLC, misses
    do not fill the LLC (lines enter it as core-cache victims, which
    emit no event), so there the fill counts are LLC miss counts.
    """

    def __init__(self, llc: Cache) -> None:
        self._llc = llc
        self.fills_per_set: List[int] = [0] * llc.num_sets
        self.evictions_per_set: List[int] = [0] * llc.num_sets

    def emit(
        self,
        cycle: float,
        event: str,
        core: int = -1,
        line: int = -1,
        extra: Optional[dict] = None,
    ) -> None:
        """Consume one trace event (``Tracer.emit``'s signature)."""
        if event in LLC_FILL_EVENTS:
            self.fills_per_set[self._llc.set_index_of(line)] += 1
        elif event == EVENT_LLC_EVICT:
            self.evictions_per_set[self._llc.set_index_of(line)] += 1

    # -- results ------------------------------------------------------------------
    @property
    def total_fills(self) -> int:
        return sum(self.fills_per_set)

    @property
    def total_evictions(self) -> int:
        return sum(self.evictions_per_set)

    def hottest_sets(self, count: int = 8) -> List[int]:
        """Set indices with the most evictions, hottest first."""
        order = sorted(
            range(len(self.evictions_per_set)),
            key=lambda s: self.evictions_per_set[s],
            reverse=True,
        )
        return order[:count]

    def pressure_skew(self) -> float:
        """Max-to-mean eviction ratio (1.0 = perfectly uniform)."""
        total = self.total_evictions
        if not total:
            return 0.0
        mean = total / len(self.evictions_per_set)
        return max(self.evictions_per_set) / mean

    def summary(self) -> Dict[str, float]:
        return {
            "total_fills": float(self.total_fills),
            "total_evictions": float(self.total_evictions),
            "pressure_skew": self.pressure_skew(),
        }
