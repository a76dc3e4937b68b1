"""Non-inclusive LLC controller.

Identical to the inclusive controller except that LLC evictions do
*not* back-invalidate the core caches (paper Section IV.A: "a
non-inclusive cache hierarchy is modeled by not sending
back-invalidates to the core caches").  Inclusion victims therefore
cannot occur; the effective capacity of the hierarchy grows toward
the sum of all levels, at the cost of the snoop-filter property.

Dirty core-cache victims are written back into the LLC, allocating
there if the line has since been evicted (a line can be core-resident
but LLC-absent without inclusion).
"""

from __future__ import annotations

from ..cache import EvictedLine
from ..coherence import MessageType
from .base import BaseHierarchy
from .levels import CoreCaches


class NonInclusiveHierarchy(BaseHierarchy):
    """LLC evictions leave the core caches untouched."""

    mode = "non_inclusive"

    def _on_llc_eviction(self, evicted: EvictedLine) -> None:
        """No back-invalidates; just write back dirty data.

        Directory bits are retained: without inclusion a line may
        outlive its LLC copy inside a core cache, and the (conservative)
        sharer bits are what later QBS queries or coherence probes
        consult.
        """
        if evicted.dirty:
            self._writeback_to_memory(evicted)

    def _handle_l2_victim(self, core: CoreCaches, victim: EvictedLine) -> None:
        """Dirty victims allocate in the LLC if their line has been lost."""
        if not victim.dirty:
            return
        self.traffic.record(MessageType.WRITEBACK)
        if self.llc.set_dirty(victim.line_addr):
            return
        displaced = self.llc.fill(victim.line_addr, dirty=True)
        if displaced is not None:
            self._on_llc_eviction(displaced)
