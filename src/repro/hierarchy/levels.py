"""Per-core private cache bundle (L1I + L1D + unified L2).

The L2 is non-inclusive with respect to the L1s (paper footnote 3:
"Modern processors use non-inclusive L2 caches"), so L1 fills do not
force L2 residency and L2 evictions do not invalidate the L1s.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..cache import Cache, EvictedLine
from ..config import HierarchyConfig
from ..errors import ConfigurationError


class CoreCaches:
    """The private caches of one core."""

    #: cache-kind tokens used by TLA level selection.
    KINDS = ("il1", "dl1", "l2")

    def __init__(self, core_id: int, config: HierarchyConfig) -> None:
        self.core_id = core_id
        self.l1i = Cache(config.l1i)
        self.l1d = Cache(config.l1d)
        self.l2 = Cache(config.l2)

    def cache_for_kind(self, kind: str) -> Cache:
        """Map a level token ("il1"/"dl1"/"l2") to the cache object."""
        if kind == "il1":
            return self.l1i
        if kind == "dl1":
            return self.l1d
        if kind == "l2":
            return self.l2
        raise ConfigurationError(f"unknown core-cache kind {kind!r}")

    # -- residency ------------------------------------------------------------
    def holds(self, line_addr: int, kinds: Iterable[str] = KINDS) -> bool:
        """True if any of the given caches currently holds the line."""
        return any(self.cache_for_kind(kind).contains(line_addr) for kind in kinds)

    def holding_kinds(self, line_addr: int) -> List[str]:
        """Which of this core's caches hold the line (for diagnostics)."""
        return [k for k in self.KINDS if self.cache_for_kind(k).contains(line_addr)]

    # -- invalidation (back-invalidate / ECI) -----------------------------------
    def invalidate_all(self, line_addr: int) -> Tuple[bool, bool]:
        """Invalidate the line everywhere in this core.

        Returns ``(was_present, was_dirty)``.  Dirty data must be
        written back toward memory by the caller.
        """
        present = False
        dirty = False
        for cache in (self.l1i, self.l1d, self.l2):
            dropped = cache.invalidate(line_addr)
            if dropped is not None:
                present = True
                dirty = dirty or dropped.dirty
        return present, dirty

    # -- fills ------------------------------------------------------------------
    def fill_l2(self, line_addr: int, dirty: bool = False) -> Optional[EvictedLine]:
        """Fill the L2; returns the displaced line (clean or dirty), if any."""
        return self.l2.fill(line_addr, dirty=dirty)

    def occupancy(self) -> int:
        return self.l1i.occupancy() + self.l1d.occupancy() + self.l2.occupancy()

    def resident_lines(self) -> Iterable[int]:
        """All distinct line addresses held by this core's caches."""
        seen = set()
        for cache in (self.l1i, self.l1d, self.l2):
            for line_addr in cache.resident_lines():
                if line_addr not in seen:
                    seen.add(line_addr)
                    yield line_addr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CoreCaches core={self.core_id}>"
