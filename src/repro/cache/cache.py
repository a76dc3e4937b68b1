"""A single set-associative cache array over a packed tag store.

:class:`Cache` owns the tag store and a replacement-policy instance.
It deliberately knows nothing about the hierarchy: controllers in
:mod:`repro.hierarchy` compose caches and decide what happens on
misses, evictions and back-invalidations.

The tag store is a struct-of-arrays, not objects-per-line:

* ``_addrs`` — ``array('q')``, the line address held by each slot;
* ``_valid`` / ``_dirty`` — flat ``bytearray`` bitmaps;
* ``_map`` — one dict mapping resident line address -> way index
  (a line address determines its set, so one flat map suffices and a
  lookup needs no set-index hash at all).

Slots are flat-indexed: slot of (set, way) is
``set_index * associativity + way``.  Replacement policies pack their
per-way state the same way (see :mod:`repro.cache.replacement`).

Two levels of API are exposed:

* the *simple* path — :meth:`access` / :meth:`fill` / :meth:`invalidate`
  — enough for ordinary levels;
* the *staged* path — :meth:`find_invalid_way`,
  :meth:`select_victim`, :meth:`evict_way`, :meth:`fill_way` — which
  lets TLA controllers interpose on LLC victim selection (QBS walks
  candidates, ECI peeks at the next victim).

Probes into individual slots go through the index-based accessors
:meth:`valid_at` / :meth:`dirty_at` / :meth:`addr_at` (there is no
per-line object to hand out).
"""

from __future__ import annotations

import weakref
from array import array
from typing import Collection, Dict, Iterator, List, Optional, Tuple

from ..config import CacheConfig
from ..errors import SimulationError
from .line import EvictedLine
from .replacement import ReplacementPolicy, make_policy
from .replacement.lru import LRUPolicy
from .replacement.nru import NRUPolicy


class CacheArrayStats:
    """Raw event counters for one cache array.

    A plain ``__slots__`` class (not a dataclass): the hit/miss
    counters sit on the access fast path, and fixed slots keep the
    increments cheap while refusing stray attributes.
    """

    FIELDS = (
        "hits",
        "misses",
        "fills",
        "evictions",
        "dirty_evictions",
        "invalidations",
        "dirty_invalidations",
        "promotions",
    )

    __slots__ = FIELDS

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheArrayStats):
            return NotImplemented
        return self.snapshot() == other.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"CacheArrayStats({fields})"


class Cache:
    """Set-associative cache with pluggable replacement.

    All addresses passed in are *line* addresses (already shifted by
    the line size); the set index is the low bits of the line address.
    """

    def __init__(self, config: CacheConfig, policy: Optional[ReplacementPolicy] = None) -> None:
        self.config = config
        self.name = config.name
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self._set_mask = self.num_sets - 1
        self._set_bits = max(1, self.num_sets.bit_length() - 1)
        self._index_hash = config.index_hash
        self.policy = policy or make_policy(
            config.replacement, self.num_sets, self.associativity
        )
        if (
            self.policy.num_sets != self.num_sets
            or self.policy.associativity != self.associativity
        ):
            raise SimulationError(
                f"{self.name}: policy geometry {self.policy.num_sets}x"
                f"{self.policy.associativity} does not match cache geometry "
                f"{self.num_sets}x{self.associativity}"
            )
        slots = self.num_sets * self.associativity
        # Packed tag store: slot = set_index * associativity + way.
        self._addrs = array("q", bytes(8 * slots))
        self._valid = bytearray(slots)
        self._dirty = bytearray(slots)
        # Resident line address -> way (the address fixes the set).
        self._map: Dict[int, int] = {}
        #: pre-bound probe — the map is only ever mutated in place, so
        #: binding ``dict.get`` once saves a method bind per access.
        self._map_get = self._map.get
        #: recency-stamp hits can be applied inline (no policy call)
        #: when the policy uses the stock LRU-family hit update.
        self._lru_hit_fast = (
            isinstance(self.policy, LRUPolicy)
            and type(self.policy).on_hit is LRUPolicy.on_hit
        )
        self.stats = CacheArrayStats()
        # Shadow ``access`` with a closure specialised for the stock
        # LRU-family / un-hashed-index configuration: every container
        # it touches (residency map, stamp and clock arrays, dirty
        # bitmap, stats object) is only ever mutated in place, so they
        # can be captured once instead of re-resolved per probe.  The
        # generic method remains the behavioural reference.
        #: the installed LRU ``access`` closure, or None.  The core's
        #: bare loop inlines this closure's body, and runs only while
        #: ``access`` is still this closure.
        self._lru_access = None
        if (
            type(self).access is Cache.access
            and self._lru_hit_fast
            and not self._index_hash
        ):
            self.access = self._lru_access = self._make_lru_access()
        # ``fill`` likewise, but only for plain LRU: LIP and MRU change
        # the insertion stamp and the victim choice.
        #: the installed LRU ``fill`` closure and the raw fill it wraps
        #: (victim as a packed int, see ``_make_lru_fill_raw``), or
        #: None.  The hierarchy's miss closure calls the raw fill, and
        #: only while ``fill`` is still this closure.
        self._lru_fill = self._lru_fill_raw = None
        if (
            type(self).fill is Cache.fill
            and type(self.policy) is LRUPolicy
            and not self._index_hash
        ):
            self._lru_fill_raw = self._make_lru_fill_raw()
            self.fill = self._lru_fill = self._make_lru_fill(self._lru_fill_raw)
        # ``promote`` likewise for the NRU LLC, which takes a TLH hint
        # per core-cache hit: setting a reference bit is the whole
        # policy update.
        if (
            type(self).promote is Cache.promote
            and type(self.policy) is NRUPolicy
            and not self._index_hash
        ):
            self.promote = self._make_nru_promote()

    # -- geometry helpers ---------------------------------------------------
    def set_index_of(self, line_addr: int) -> int:
        if self._index_hash:
            # XOR-fold two extra tag slices into the index, the classic
            # way hardware spreads power-of-two strides across sets.
            line_addr ^= (line_addr >> self._set_bits) ^ (
                line_addr >> (2 * self._set_bits)
            )
        return line_addr & self._set_mask

    # -- probes (no state change) --------------------------------------------
    def way_of(self, line_addr: int) -> Optional[int]:
        """Return the way holding ``line_addr`` or ``None`` (pure probe)."""
        return self._map.get(line_addr)

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._map

    def is_dirty(self, line_addr: int) -> bool:
        way = self._map.get(line_addr)
        if way is None:
            return False
        # One set-index computation total (way_of above is hash-free).
        return bool(
            self._dirty[self.set_index_of(line_addr) * self.associativity + way]
        )

    def valid_at(self, set_index: int, way: int) -> bool:
        """Does the slot ``(set_index, way)`` hold a line?"""
        return bool(self._valid[set_index * self.associativity + way])

    def dirty_at(self, set_index: int, way: int) -> bool:
        """Is the line in slot ``(set_index, way)`` dirty?"""
        return bool(self._dirty[set_index * self.associativity + way])

    def addr_at(self, set_index: int, way: int) -> Optional[int]:
        """Line address held by ``(set_index, way)``, or None if invalid."""
        slot = set_index * self.associativity + way
        return self._addrs[slot] if self._valid[slot] else None

    def map_items(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(line_addr, way)`` pairs of the residency map.

        The probe surface CacheSan's tag-store checker audits against
        the valid bitmap; insertion (fill) order.
        """
        return iter(self._map.items())

    # -- the simple path -------------------------------------------------------
    def access(self, line_addr: int, write: bool = False) -> bool:
        """Demand access; returns True on hit and updates replacement state.

        This is the simulator's hottest function (every L1/L2/LLC probe
        lands here).  The residency map is consulted *first* so misses
        — the common case in the lower levels — pay one dict probe and
        no set-index arithmetic at all; the set index is computed
        inline (not via :meth:`set_index_of`) only on hits, and the
        stock LRU-family stamp refresh is applied inline rather than
        through a ``policy.on_hit`` call.
        """
        way = self._map_get(line_addr)
        if way is None:
            self.stats.misses += 1
            return False
        self.stats.hits += 1
        if self._index_hash:
            set_bits = self._set_bits
            set_index = (
                line_addr
                ^ (line_addr >> set_bits)
                ^ (line_addr >> (2 * set_bits))
            ) & self._set_mask
        else:
            set_index = line_addr & self._set_mask
        policy = self.policy
        if self._lru_hit_fast:
            # Mirrors LRUPolicy.on_hit exactly (including the
            # last_hit_was_mru flag TLH's MRU filter reads).
            stamp = policy._stamp
            slot = set_index * self.associativity + way
            top = policy._clock[set_index]
            if stamp[slot] == top:
                policy.last_hit_was_mru = True
            else:
                policy.last_hit_was_mru = False
                top += 1
                policy._clock[set_index] = top
                stamp[slot] = top
        else:
            policy.on_hit(set_index, way)
        if write:
            self._dirty[set_index * self.associativity + way] = 1
        return True

    def _make_lru_access(self):
        """Build the specialised demand-access closure (see __init__).

        Semantically identical to :meth:`access` with the stock LRU hit
        update inlined and the index hash disabled; every captured
        object is mutated in place for the cache's lifetime.
        """
        map_get = self._map.get
        stats = self.stats
        set_mask = self._set_mask
        assoc = self.associativity
        policy = self.policy
        stamp = policy._stamp
        clock = policy._clock
        dirty = self._dirty

        def access(line_addr: int, write: bool = False) -> bool:
            way = map_get(line_addr)
            if way is None:
                stats.misses += 1
                return False
            stats.hits += 1
            set_index = line_addr & set_mask
            slot = set_index * assoc + way
            top = clock[set_index]
            if stamp[slot] == top:
                policy.last_hit_was_mru = True
            else:
                policy.last_hit_was_mru = False
                top += 1
                clock[set_index] = top
                stamp[slot] = top
            if write:
                dirty[slot] = 1
            return True

        return access

    def promote(self, line_addr: int) -> bool:
        """Refresh a line toward MRU without a demand access (TLH/QBS).

        Returns False (and does nothing) if the line is absent.
        """
        way = self._map.get(line_addr)
        if way is None:
            return False
        self.policy.promote(self.set_index_of(line_addr), way)
        self.stats.promotions += 1
        return True

    def _make_nru_promote(self):
        """Build the specialised promote closure (see __init__).

        Semantically identical to :meth:`promote` for an un-hashed
        cache under plain :class:`NRUPolicy`, whose promote is its hit
        update: set the way's reference bit.
        """
        map_get = self._map.get
        stats = self.stats
        set_mask = self._set_mask
        assoc = self.associativity
        ref = self.policy._ref

        def promote(line_addr: int) -> bool:
            way = map_get(line_addr)
            if way is None:
                return False
            ref[(line_addr & set_mask) * assoc + way] = 1
            stats.promotions += 1
            return True

        return promote

    def set_dirty(self, line_addr: int) -> bool:
        """Mark a resident line dirty (e.g. a writeback landing here)."""
        way = self._map.get(line_addr)
        if way is None:
            return False
        self._dirty[self.set_index_of(line_addr) * self.associativity + way] = 1
        return True

    def fill(
        self,
        line_addr: int,
        dirty: bool = False,
        exclude_ways: Collection[int] = (),
    ) -> Optional[EvictedLine]:
        """Install ``line_addr``, evicting if the set is full.

        Returns the evicted line (if a valid line was displaced) so the
        caller can enforce inclusion or write back dirty data.  Filling
        an already-resident line refreshes its replacement state and
        merges the dirty bit instead of duplicating it.
        """
        set_index = self.set_index_of(line_addr)
        existing = self._map.get(line_addr)
        if existing is not None:
            if dirty:
                self._dirty[set_index * self.associativity + existing] = 1
            self.policy.on_hit(set_index, existing)
            return None
        victim: Optional[EvictedLine] = None
        way = self.find_invalid_way(set_index, exclude_ways)
        if way is None:
            way = self.policy.select_victim(set_index, exclude_ways)
            victim = self.evict_way(set_index, way)
        self.fill_way(set_index, way, line_addr, dirty)
        return victim

    def _make_lru_fill(self, raw_fill):
        """Build the specialised fill closure (see __init__) over
        ``raw_fill``, which does the work: this closure only unpacks its
        victim into an :class:`EvictedLine`.  A non-empty
        ``exclude_ways`` takes the generic path (through a weak
        reference, so the closure adds no cache -> closure -> cache
        reference cycle).
        """
        cache_ref = weakref.ref(self)

        def fill(
            line_addr: int,
            dirty: bool = False,
            exclude_ways: Collection[int] = (),
        ) -> Optional[EvictedLine]:
            if exclude_ways:
                return Cache.fill(cache_ref(), line_addr, dirty, exclude_ways)
            victim = raw_fill(line_addr, dirty)
            if victim is None:
                return None
            return EvictedLine(victim >> 1, bool(victim & 1))

        return fill

    def _make_lru_fill_raw(self):
        """Build the raw LRU fill: :meth:`fill` without ``exclude_ways``,
        returning the victim packed as ``line_addr << 1 | dirty`` (None
        when no valid line was displaced).

        One body doing what :meth:`fill` does through
        :meth:`find_invalid_way`, ``select_victim``, :meth:`evict_way`
        and :meth:`fill_way` for an un-hashed cache under plain
        :class:`LRUPolicy`.  The victim is the lowest stamp: stamps are
        pairwise distinct, so it is the way ``select_victim`` picks.
        Plain LRU keeps the set clock at the set's largest stamp, and
        with two or more ways the evicted (smallest) stamp is not it,
        so ``on_invalidate``'s clock resync is a no-op there; a 1-way
        set resyncs to the evicted way's cold stamp.
        """
        res_map = self._map
        map_get = res_map.get
        stats = self.stats
        set_mask = self._set_mask
        assoc = self.associativity
        policy = self.policy
        stamp = policy._stamp
        clock = policy._clock
        cold = policy._cold
        addrs = self._addrs
        valid_find = self._valid.find
        valid = self._valid
        dirty_bits = self._dirty
        one_way = assoc == 1

        def raw_fill(line_addr: int, dirty: bool) -> Optional[int]:
            set_index = line_addr & set_mask
            base = set_index * assoc
            way = map_get(line_addr)
            if way is not None:
                # Already resident: merge the dirty bit, LRU hit update.
                slot = base + way
                if dirty:
                    dirty_bits[slot] = 1
                top = clock[set_index]
                if stamp[slot] == top:
                    policy.last_hit_was_mru = True
                else:
                    policy.last_hit_was_mru = False
                    top += 1
                    clock[set_index] = top
                    stamp[slot] = top
                return None
            end = base + assoc
            slot = valid_find(0, base, end)
            if slot < 0:
                ways = stamp[base:end]
                way = ways.index(min(ways))
                slot = base + way
                victim_addr = addrs[slot]
                victim_dirty = dirty_bits[slot]
                victim = victim_addr << 1 | victim_dirty
                del res_map[victim_addr]
                stats.evictions += 1
                if victim_dirty:
                    stats.dirty_evictions += 1
                # LRUPolicy.on_invalidate: cold stamp, clock resync (the
                # fill below overwrites the cold stamp itself).
                cold_stamp = cold[set_index] - 1
                cold[set_index] = cold_stamp
                top = (cold_stamp if one_way else clock[set_index]) + 1
            else:
                way = slot - base
                victim = None
                valid[slot] = 1
                top = clock[set_index] + 1
            # fill_way + LRUPolicy.on_fill.
            addrs[slot] = line_addr
            dirty_bits[slot] = 1 if dirty else 0
            res_map[line_addr] = way
            clock[set_index] = top
            stamp[slot] = top
            stats.fills += 1
            return victim

        return raw_fill

    def invalidate(self, line_addr: int) -> Optional[EvictedLine]:
        """Remove ``line_addr`` if present; returns what was dropped.

        Used for back-invalidations (inclusion), early core
        invalidations (ECI) and exclusive-hierarchy hit-invalidates.
        """
        way = self._map.pop(line_addr, None)
        if way is None:
            return None
        set_index = self.set_index_of(line_addr)
        slot = set_index * self.associativity + way
        dropped = EvictedLine(line_addr, bool(self._dirty[slot]))
        self._valid[slot] = 0
        self._dirty[slot] = 0
        self.policy.on_invalidate(set_index, way)
        self.stats.invalidations += 1
        if dropped.dirty:
            self.stats.dirty_invalidations += 1
        return dropped

    # -- the staged path (TLA controllers) ------------------------------------
    def find_invalid_way(
        self, set_index: int, exclude_ways: Collection[int] = ()
    ) -> Optional[int]:
        """Return an invalid way in the set, or None if all are valid."""
        base = set_index * self.associativity
        if not exclude_ways:
            # The valid bitmap is a bytearray, so the C-level scan for
            # a zero byte replaces the Python per-way loop.
            slot = self._valid.find(0, base, base + self.associativity)
            return None if slot < 0 else slot - base
        valid = self._valid
        for way in range(self.associativity):
            if way in exclude_ways:
                continue
            if not valid[base + way]:
                return way
        return None

    def select_victim(
        self, set_index: int, exclude_ways: Collection[int] = ()
    ) -> Tuple[int, Optional[int]]:
        """Ask the policy for a victim way; prefers invalid ways.

        Returns ``(way, line_addr)`` without evicting — ``line_addr``
        is None when the way is invalid (no victim to displace).  QBS
        inspects the candidate (and may promote it) before deciding.
        """
        way = self.find_invalid_way(set_index, exclude_ways)
        if way is None:
            way = self.policy.select_victim(set_index, exclude_ways)
        slot = set_index * self.associativity + way
        return way, (self._addrs[slot] if self._valid[slot] else None)

    def promote_way(self, set_index: int, way: int) -> None:
        """Promote a specific way (QBS sparing a resident victim)."""
        self.policy.promote(set_index, way)
        self.stats.promotions += 1

    def evict_way(self, set_index: int, way: int) -> EvictedLine:
        """Evict the (valid) line in ``way``; returns what was evicted."""
        slot = set_index * self.associativity + way
        if not self._valid[slot]:
            raise SimulationError(
                f"{self.name}: evicting invalid way {way} of set {set_index}"
            )
        line_addr = self._addrs[slot]
        evicted = EvictedLine(line_addr, bool(self._dirty[slot]))
        del self._map[line_addr]
        self._valid[slot] = 0
        self._dirty[slot] = 0
        self.policy.on_invalidate(set_index, way)
        self.stats.evictions += 1
        if evicted.dirty:
            self.stats.dirty_evictions += 1
        return evicted

    def fill_way(
        self, set_index: int, way: int, line_addr: int, dirty: bool = False
    ) -> None:
        """Install ``line_addr`` into a specific (invalid) way."""
        slot = set_index * self.associativity + way
        if self._valid[slot]:
            raise SimulationError(
                f"{self.name}: filling over valid line in way {way} of set "
                f"{set_index}; evict first"
            )
        if self.set_index_of(line_addr) != set_index:
            raise SimulationError(
                f"{self.name}: line {line_addr:#x} does not map to set {set_index}"
            )
        self._addrs[slot] = line_addr
        self._valid[slot] = 1
        self._dirty[slot] = 1 if dirty else 0
        self._map[line_addr] = way
        self.policy.on_fill(set_index, way)
        self.stats.fills += 1

    # -- introspection ----------------------------------------------------------
    def resident_lines(self) -> Iterator[int]:
        """Yield every resident line address (order unspecified)."""
        return iter(self._map)

    def occupancy(self) -> int:
        """Number of valid lines currently held."""
        return len(self._map)

    def set_occupancy(self, set_index: int) -> int:
        base = set_index * self.associativity
        return self._valid.count(1, base, base + self.associativity)

    def flush(self) -> List[EvictedLine]:
        """Invalidate everything; returns dirty lines for writeback."""
        dirty: List[EvictedLine] = []
        for line_addr in list(self._map):
            dropped = self.invalidate(line_addr)
            if dropped is not None and dropped.dirty:
                dirty.append(dropped)
        return dirty

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, line_addr: int) -> bool:
        return line_addr in self._map

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Cache {self.name} {self.config.size_bytes}B "
            f"{self.num_sets}x{self.associativity} {self.policy.name}>"
        )
