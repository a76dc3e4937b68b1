"""The event tracer: typed simulation events, free when off.

Off is ``None``: hook sites in the hierarchy and the MSHR file hold
the tracer in a local and guard with ``if tracer is not None``, so an
untraced simulation never calls into this module
(``BaseHierarchy.tracer`` stays ``None``).  Any object with
:meth:`Tracer.emit`'s signature can sit in that slot; the
:mod:`repro.analysis` analyzers do, live or replaying
:attr:`Tracer.events`.

Every *eligible* event is always counted in :attr:`Tracer.counts`
(exact aggregates survive sampling); category filtering and 1-in-N
sampling only thin the *recorded* event list.  Sampling is a
deterministic counter stride — no RNG, so traced runs reproduce
byte-for-byte (lint rule CS2 and the determinism tests rely on this).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional

from .config import DEFAULT_MAX_EVENTS
from .events import CATEGORIES, TraceEvent


class Tracer:
    """Records typed :class:`TraceEvent` objects during one simulation."""

    __slots__ = (
        "events",
        "counts",
        "dropped",
        "sampled_out",
        "_categories",
        "_sample",
        "_eligible",
        "_max_events",
    )

    def __init__(
        self,
        categories: Iterable[str] = (),
        sample: int = 1,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        #: recorded events, in emission order.
        self.events: List[TraceEvent] = []
        #: exact per-event-type totals, independent of filter/sampling.
        self.counts: Dict[str, int] = {}
        #: events lost to the ``max_events`` cap.
        self.dropped = 0
        #: events skipped by the 1-in-N sampler (still counted).
        self.sampled_out = 0
        self._categories: Optional[FrozenSet[str]] = (
            frozenset(categories) or None
        )
        self._sample = max(1, int(sample))
        self._eligible = 0
        self._max_events = max_events

    def emit(
        self,
        cycle: float,
        event: str,
        core: int = -1,
        line: int = -1,
        extra: Optional[dict] = None,
    ) -> None:
        """Record one event (hook sites sit on cold simulation paths)."""
        counts = self.counts
        counts[event] = counts.get(event, 0) + 1
        if self._categories is not None and CATEGORIES[event] not in self._categories:
            return
        self._eligible += 1
        if self._sample > 1 and (self._eligible - 1) % self._sample:
            self.sampled_out += 1
            return
        if len(self.events) >= self._max_events:
            self.dropped += 1
            return
        self.events.append(TraceEvent(cycle, event, core, line, extra))

    def count(self, event: str) -> int:
        """Exact number of times ``event`` fired (sampling-independent)."""
        return self.counts.get(event, 0)

    def total_events(self) -> int:
        return sum(self.counts.values())

    def summary(self) -> Dict[str, object]:
        """Compact, picklable digest (shipped over orchestrator pipes)."""
        return {
            "counts": dict(self.counts),
            "recorded": len(self.events),
            "dropped": self.dropped,
            "sampled_out": self.sampled_out,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Tracer recorded={len(self.events)} total={self.total_events()}>"
        )
