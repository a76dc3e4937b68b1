"""Inclusion-victim forensics.

The paper argues that the inclusive/non-inclusive gap is explained by
*harmful* inclusion victims: hot lines whose eviction forces a memory
re-fetch.  :class:`VictimReuseAnalyzer` measures exactly that — for
every inclusion victim it waits for the line's next LLC fill and
records the distance (in LLC fills, a proxy for time at the LLC's own
rate); victims never re-fetched were dead lines whose eviction cost
nothing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..telemetry.events import (
    EVENT_INCLUSION_VICTIM,
    EVENT_LLC_MISS,
    EVENT_VCACHE_RESCUE,
)

#: the trace events that precede every ``BaseHierarchy._fill_llc``.
LLC_FILL_EVENTS = frozenset((EVENT_LLC_MISS, EVENT_VCACHE_RESCUE))


@dataclass(frozen=True)
class VictimRecord:
    """One inclusion victim and its afterlife."""

    line_addr: int
    core_id: int
    victimised_at_fill: int
    refetched_at_fill: Optional[int]

    @property
    def was_refetched(self) -> bool:
        return self.refetched_at_fill is not None

    @property
    def refetch_distance(self) -> Optional[int]:
        """LLC fills between eviction and re-fetch (None if dead)."""
        if self.refetched_at_fill is None:
            return None
        return self.refetched_at_fill - self.victimised_at_fill


class VictimReuseAnalyzer:
    """Trace-event sink separating harmful from harmless inclusion victims.

    Attach live as ``hierarchy.tracer = analyzer`` *before* running, or
    replay a complete recorded log (one with the ``llc`` and
    ``inclusion`` categories, nothing dropped or sampled out):
    ``for event in tracer.events: analyzer.emit(*event)``.
    """

    def __init__(self) -> None:
        self._fill_clock = 0
        self._pending: Dict[int, List[VictimRecord]] = {}
        self.records: List[VictimRecord] = []

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
            self._fill_clock += 1
            for record in self._pending.pop(line, ()):
                self.records.append(
                    VictimRecord(
                        line_addr=record.line_addr,
                        core_id=record.core_id,
                        victimised_at_fill=record.victimised_at_fill,
                        refetched_at_fill=self._fill_clock,
                    )
                )
        elif event == EVENT_INCLUSION_VICTIM:
            record = VictimRecord(
                line_addr=line,
                core_id=core,
                victimised_at_fill=self._fill_clock,
                refetched_at_fill=None,
            )
            self._pending.setdefault(line, []).append(record)

    # -- results -----------------------------------------------------------------
    def finalize(self) -> None:
        """Close the books: still-pending victims are recorded as dead."""
        for waiting in self._pending.values():
            self.records.extend(waiting)
        self._pending.clear()

    @property
    def total_victims(self) -> int:
        return len(self.records) + sum(len(v) for v in self._pending.values())

    @property
    def harmful_victims(self) -> List[VictimRecord]:
        """Victims whose line came back from memory."""
        return [r for r in self.records if r.was_refetched]

    @property
    def dead_victims(self) -> List[VictimRecord]:
        return [r for r in self.records if not r.was_refetched]

    def harmful_fraction(self) -> float:
        total = self.total_victims
        return len(self.harmful_victims) / total if total else 0.0

    def refetch_distance_histogram(self, bucket: int = 16) -> Counter:
        """Histogram of re-fetch distances, bucketed by ``bucket`` fills."""
        histogram: Counter = Counter()
        for record in self.harmful_victims:
            histogram[(record.refetch_distance // bucket) * bucket] += 1
        return histogram

    def victims_per_core(self) -> Counter:
        counter: Counter = Counter()
        for record in self.records:
            counter[record.core_id] += 1
        for waiting in self._pending.values():
            for record in waiting:
                counter[record.core_id] += 1
        return counter

    def summary(self) -> Dict[str, float]:
        harmful = self.harmful_victims
        distances = [r.refetch_distance for r in harmful]
        return {
            "total_victims": float(self.total_victims),
            "harmful_victims": float(len(harmful)),
            "harmful_fraction": self.harmful_fraction(),
            "median_refetch_distance": (
                float(sorted(distances)[len(distances) // 2]) if distances else 0.0
            ),
        }
