"""Inclusive LLC controller — the paper's baseline hierarchy.

The core caches must be a subset of the LLC, so every LLC eviction
back-invalidates the core caches.  Lines dropped from a core cache
this way are *inclusion victims* — the phenomenon the whole paper is
about — and are counted per core in
:class:`~repro.hierarchy.base.CoreAccessStats`.
"""

from __future__ import annotations

from ..cache import EvictedLine
from ..coherence import MessageType
from ..errors import InclusionViolationError
from .base import BaseHierarchy
from .levels import CoreCaches


class InclusiveHierarchy(BaseHierarchy):
    """LLC evictions remove the line from every core cache."""

    mode = "inclusive"

    def _on_llc_eviction(self, evicted: EvictedLine) -> None:
        """Enforce inclusion: back-invalidate, then write back dirty data."""
        self._back_invalidate(
            evicted.line_addr,
            MessageType.BACK_INVALIDATE,
            record_inclusion_victim=True,
        )
        self.directory.on_llc_eviction(evicted.line_addr)
        if evicted.dirty:
            self._writeback_to_memory(evicted)

    def _handle_l2_victim(self, core: CoreCaches, victim: EvictedLine) -> None:
        """Dirty L2 victims must find their line in the LLC (inclusion)."""
        if not victim.dirty:
            return
        if not self.llc.set_dirty(victim.line_addr):
            raise InclusionViolationError(
                f"dirty L2 victim {victim.line_addr:#x} absent from inclusive LLC"
            )
        self.traffic.record(MessageType.WRITEBACK)
