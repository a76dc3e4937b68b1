"""Exclusive LLC controller.

Follows the paper's model (Section IV.A): "Lines are invalidated in
the LLC upon cache hits.  As for the miss path, new lines are
inserted into the core caches first.  These lines are inserted into
the LLC only after they are evicted from the core caches."  The LLC
thus acts as a victim cache for the L2s, and hierarchy capacity
approaches the sum of all levels.

The paper notes exclusive caches need more LLC bandwidth (clean
victims are written to the LLC too) but does not model that cost, so
its exclusive results are optimistic; we count the
``EXCLUSIVE_FILL`` messages to make the bandwidth cost visible
without charging latency for it, matching the paper.
"""

from __future__ import annotations

from typing import Optional

from ..cache import EvictedLine
from ..coherence import MessageType
from ..telemetry.events import EVENT_LLC_MISS
from .base import HIT_LLC, HIT_MEMORY, BaseHierarchy, CoreAccessStats
from .levels import CoreCaches


class ExclusiveHierarchy(BaseHierarchy):
    """LLC holds only lines evicted from the core caches."""

    mode = "exclusive"

    def _llc_demand(
        self, core_id: int, line_addr: int, stats: Optional[CoreAccessStats]
    ) -> int:
        if self.llc.access(line_addr):
            # Exclusive hit: the line moves to the core caches and
            # leaves the LLC; a dirty LLC copy migrates its dirty bit.
            dropped = self.llc.invalidate(line_addr)
            if dropped is not None and dropped.dirty:
                self._fill_dirty = True
            self.directory.on_llc_eviction(line_addr)
            return HIT_LLC
        if stats is not None:
            stats.llc_misses += 1
        if self.tracer is not None:
            self.tracer.emit(self.clock, EVENT_LLC_MISS, core=core_id, line=line_addr)
        self.traffic.record(MessageType.MEMORY_REQUEST)
        # Miss path: the LLC is NOT filled; the line goes straight to
        # the core caches (BaseHierarchy.access fills L2 then L1).
        return HIT_MEMORY

    def _on_llc_eviction(self, evicted: EvictedLine) -> None:
        if evicted.dirty:
            self._writeback_to_memory(evicted)

    def _handle_l2_victim(self, core: CoreCaches, victim: EvictedLine) -> None:
        """Every L2 victim — clean or dirty — is inserted into the LLC."""
        self.traffic.record(MessageType.EXCLUSIVE_FILL)
        displaced = self.llc.fill(victim.line_addr, dirty=victim.dirty)
        if displaced is not None:
            self._on_llc_eviction(displaced)

    def _spill_to_l2(self, core: CoreCaches, victim: EvictedLine) -> None:
        """Re-exclusify on spill: an L1 victim moving into the L2 must
        displace any LLC copy of the same line (which can exist when
        the L2 evicted the line to the LLC while the L1 still held it).
        The LLC copy's dirty bit is merged into the L2 fill.
        """
        dirty = victim.dirty
        dropped = self.llc.invalidate(victim.line_addr)
        if dropped is not None:
            dirty = dirty or dropped.dirty
        super()._spill_to_l2(core, EvictedLine(victim.line_addr, dirty))
