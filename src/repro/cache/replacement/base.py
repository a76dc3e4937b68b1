"""Abstract interface all replacement policies implement.

Packed-state convention: concrete policies keep their per-way metadata
in flat arrays (``array('q')`` stamps, ``bytearray`` bit fields)
indexed ``set_index * associativity + way`` — matching the packed tag
store in :class:`repro.cache.cache.Cache` — rather than one Python
object or list per set.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Collection, List

from ...errors import SimulationError

_EMPTY: Collection[int] = ()


class ReplacementPolicy(ABC):
    """Per-cache replacement state, indexed by (set, way).

    A policy instance belongs to exactly one cache and keeps whatever
    per-set state it needs (recency stacks, reference bits, RRPVs...).
    The cache calls back on every fill, hit, promotion and
    invalidation; ``select_victim`` must return a way index.

    ``select_victim`` must be *stateless with respect to failed
    candidates*: QBS calls it, promotes the returned way, and calls it
    again, so the policy only ever commits state changes through the
    explicit callbacks.
    """

    #: registry name; subclasses override.
    name = "abstract"

    #: True when the most recent ``on_hit`` touched a way that was
    #: already the MRU candidate.  Recency-stack policies maintain
    #: this; policies without a recency notion leave it False.  Used
    #: by the TLH non-MRU filter (paper Section III.A: "the L1 cache
    #: can issue TLHs for non-MRU lines").
    last_hit_was_mru = False

    def __init__(self, num_sets: int, associativity: int) -> None:
        if num_sets <= 0 or associativity <= 0:
            raise SimulationError("num_sets and associativity must be positive")
        self.num_sets = num_sets
        self.associativity = associativity

    # -- state-update callbacks -------------------------------------------
    @abstractmethod
    def on_fill(self, set_index: int, way: int) -> None:
        """A new line was installed in ``way``."""

    @abstractmethod
    def on_hit(self, set_index: int, way: int) -> None:
        """A demand access hit ``way``."""

    def promote(self, set_index: int, way: int) -> None:
        """Refresh ``way`` toward MRU without a demand access.

        Used by TLH hints and by QBS when a victim candidate turns out
        to be resident in a core cache.  Defaults to the hit update.
        """
        self.on_hit(set_index, way)

    def on_invalidate(self, set_index: int, way: int) -> None:
        """``way`` was invalidated; make it maximally eviction-preferred."""

    # -- victim selection ---------------------------------------------------
    @abstractmethod
    def select_victim(self, set_index: int, exclude: Collection[int] = _EMPTY) -> int:
        """Return the way to evict from ``set_index``.

        ``exclude`` lists way indices that must not be chosen (e.g. the
        line just filled, when ECI looks for the *next* victim).  Raises
        :class:`SimulationError` if every way is excluded.
        """

    # -- helpers -------------------------------------------------------------
    def _check_exclusion(self, exclude: Collection[int]) -> None:
        if len(exclude) >= self.associativity:
            raise SimulationError(
                f"{self.name}: all {self.associativity} ways excluded from "
                "victim selection"
            )

    def victim_order(self, set_index: int) -> List[int]:
        """Return all ways in eviction-preference order.

        Default implementation repeatedly excludes previous picks; it
        never mutates policy state.  Subclasses with a natural total
        order override this for speed.
        """
        order: List[int] = []
        excluded: set = set()
        for _ in range(self.associativity):
            way = self.select_victim(set_index, excluded)
            order.append(way)
            excluded.add(way)
        return order

    def validate_set(self, set_index: int) -> None:
        """Raise :class:`SimulationError` if this set's metadata is corrupt.

        Called by the CacheSan :class:`ReplacementMetadataChecker`.
        Policies with per-set structure override this: recency-stack
        policies check the stack is a permutation of the ways, bit-field
        policies check every field is in range.  The default (for
        stateless policies) accepts anything.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} sets={self.num_sets} "
            f"ways={self.associativity}>"
        )
