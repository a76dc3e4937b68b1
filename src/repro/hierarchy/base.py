"""Shared controller logic for all three hierarchy modes.

:class:`BaseHierarchy` implements the probe order (L1 -> L2 -> LLC ->
memory), core-cache fills and writebacks, directory maintenance,
message accounting, and the TLA hook points.  Mode subclasses override
only the LLC hit path, the LLC miss/fill path, and the
eviction-side-effect path.

Hit levels are returned as small ints (not objects) because the access
loop is the simulator's hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..access import AccessType
from ..cache import Cache, EvictedLine
from ..coherence import Directory, MessageType, TrafficMeter
from ..config import HierarchyConfig
from ..errors import SimulationError
from ..sanitize.base import HierarchySanitizer, sanitizer_from_config
from ..telemetry.events import (
    EVENT_INCLUSION_VICTIM,
    EVENT_LLC_EVICT,
    EVENT_LLC_MISS,
    EVENT_QBS_QUERY,
)
from .levels import CoreCaches

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.tla import TLAPolicy
    from ..telemetry import IntervalCollector, Tracer

#: access() return codes, in increasing latency order.
HIT_L1 = 0
HIT_L2 = 1
HIT_LLC = 2
HIT_MEMORY = 3

LEVEL_NAMES = {HIT_L1: "l1", HIT_L2: "l2", HIT_LLC: "llc", HIT_MEMORY: "memory"}

# Hot-path locals: enum member lookups cost a metaclass dict probe each,
# so the demand path compares against module-level bindings instead.
_IFETCH = AccessType.IFETCH
_STORE = AccessType.STORE


@dataclass
class CoreAccessStats:
    """Demand-access counters attributed to one core.

    Only accesses issued while the core is inside its instruction
    quota are counted (paper Section IV.B: statistics are collected
    for the first N instructions of each application even though the
    faster thread keeps running).
    """

    l1i_accesses: int = 0
    l1i_misses: int = 0
    l1d_accesses: int = 0
    l1d_misses: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0
    llc_accesses: int = 0
    llc_misses: int = 0
    inclusion_victims: int = 0
    eci_invalidations: int = 0

    @property
    def l1_misses(self) -> int:
        return self.l1i_misses + self.l1d_misses

    @property
    def l1_accesses(self) -> int:
        return self.l1i_accesses + self.l1d_accesses

    def mpki(self, level: str, instructions: int) -> float:
        """Misses per kilo-instruction at ``level`` ("l1"/"l2"/"llc")."""
        if instructions <= 0:
            return 0.0
        misses = {
            "l1": self.l1_misses,
            "l1i": self.l1i_misses,
            "l1d": self.l1d_misses,
            "l2": self.l2_misses,
            "llc": self.llc_misses,
        }[level]
        return 1000.0 * misses / instructions


class BaseHierarchy:
    """Common machinery for inclusive / non-inclusive / exclusive LLCs."""

    mode = "abstract"

    def __init__(self, config: HierarchyConfig) -> None:
        self.config = config
        self.num_cores = config.num_cores
        self.line_shift = config.line_shift
        self.cores: List[CoreCaches] = [
            CoreCaches(core_id, config) for core_id in range(config.num_cores)
        ]
        self.llc = Cache(config.llc)
        self.directory = Directory(config.num_cores)
        self.traffic = TrafficMeter()
        self.core_stats: List[CoreAccessStats] = [
            CoreAccessStats() for _ in range(config.num_cores)
        ]
        #: total inclusion victims (lines invalidated in core caches by
        #: LLC evictions), including ones past the stats quota.
        self.total_inclusion_victims = 0
        #: set by the exclusive mode when an invalidated-on-hit LLC copy
        #: was dirty, so the dirty bit migrates into the L2 fill.
        self._fill_dirty = False
        #: CacheSan sanitizer, or None.  Resolved here (not in the
        #: builder) so directly-constructed hierarchies also honour
        #: ``config.sanitize`` and the ``REPRO_SANITIZE`` env var.
        self.sanitizer: Optional[HierarchySanitizer] = None
        auto_sanitizer = sanitizer_from_config(config.sanitize)
        if auto_sanitizer is not None:
            self.attach_sanitizer(auto_sanitizer)
        # Observation probes: one slot per kind, all here and all None
        # when off, so an unobserved hook site pays one ``is None``
        # test.  None of them may influence simulated statistics.
        #: event sink with ``Tracer.emit``'s signature: the telemetry
        #: tracer, or a :mod:`repro.analysis` analyzer.
        self.tracer: Optional["Tracer"] = None
        #: interval collector the core's probed loop ticks with
        #: :attr:`clock`.
        self.collector: Optional["IntervalCollector"] = None
        #: approximate global cycle clock for event timestamps, advanced
        #: by the core's probed loop only while a collector is attached.
        self.clock = 0.0
        self.attach_tla(_make_none_policy())

    # -- TLA policy management -------------------------------------------------
    def attach_tla(self, policy: "TLAPolicy") -> None:
        """Install a TLA policy; it hooks victim selection and hit events.

        Core-cache hits are the simulator's hottest event by far, so
        the policy's :meth:`~repro.core.TLAPolicy.hit_hook` is cached
        here: policies that ignore hits (none/ECI/QBS) cost the hit
        path one ``is None`` test, and plain TLH one call per hit.
        """
        self.tla = policy
        policy.attach(self)
        self._tla_hit_hook = policy.hit_hook()

    # -- CacheSan sanitizer management ------------------------------------------
    def attach_sanitizer(self, sanitizer: HierarchySanitizer) -> None:
        """Install a CacheSan sanitizer; it audits state on a sampling clock."""
        self.sanitizer = sanitizer
        sanitizer.attach(self)

    # -- main demand path --------------------------------------------------------
    def access(
        self,
        core_id: int,
        address: int,
        kind: AccessType = AccessType.LOAD,
        record_stats: bool = True,
    ) -> int:
        """Issue one demand access; returns the hit level (HIT_*)."""
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.on_access()
        line_addr = address >> self.line_shift
        core = self.cores[core_id]
        stats = self.core_stats[core_id] if record_stats else None
        is_ifetch = kind is _IFETCH
        is_write = kind is _STORE

        # L1
        l1 = core.l1i if is_ifetch else core.l1d
        if stats is not None:
            if is_ifetch:
                stats.l1i_accesses += 1
            else:
                stats.l1d_accesses += 1
        if l1.access(line_addr, write=is_write):
            hit_hook = self._tla_hit_hook
            if hit_hook is not None:
                hit_hook(core_id, "il1" if is_ifetch else "dl1", line_addr)
            return HIT_L1
        if stats is not None:
            if is_ifetch:
                stats.l1i_misses += 1
            else:
                stats.l1d_misses += 1
        return self._beyond_l1(core_id, core, stats, line_addr, is_ifetch, is_write)

    def _beyond_l1(
        self,
        core_id: int,
        core: CoreCaches,
        stats: Optional[CoreAccessStats],
        line_addr: int,
        is_ifetch: bool,
        is_write: bool,
    ) -> int:
        """Continue a demand access after an L1 miss (L2 -> LLC -> fills).

        Split out of :meth:`access` so the CPU's bare loop can probe
        the L1 inline (the hot common case) and only pay a hierarchy
        call on L1 misses.  The caller has already counted the L1
        access and miss.
        """
        # L2
        if stats is not None:
            stats.l2_accesses += 1
        if core.l2.access(line_addr):
            self._fill_core_l1(core, line_addr, is_ifetch, is_write)
            hit_hook = self._tla_hit_hook
            if hit_hook is not None:
                hit_hook(core_id, "l2", line_addr)
            return HIT_L2
        if stats is not None:
            stats.l2_misses += 1

        # LLC
        self.traffic.record(MessageType.LLC_REQUEST)
        if stats is not None:
            stats.llc_accesses += 1
        level = self._llc_demand(core_id, line_addr, stats)

        # Fill the L1 on the way back; the victim L2 is filled by L1
        # spills, not by demand fills (see _spill_to_l2).  An
        # exclusive LLC hands any dirty state from its invalidated
        # copy to the incoming L1 line.
        fill_dirty = self._fill_dirty
        self._fill_dirty = False
        self._fill_core_l1(core, line_addr, is_ifetch, is_write or fill_dirty)
        self.directory.on_fill_to_core(line_addr, core_id)
        return level

    def _make_miss_path(self, core_id: int):
        """Build core ``core_id``'s L1-miss closure for the bare loop.

        The closure has :meth:`_beyond_l1`'s signature and results and
        does the same work over the captured arrays: the L2 probe
        through the L2's LRU ``access`` closure, past an L2 miss one
        call to :meth:`_make_llc_demand`'s closure, the traffic counts
        and the directory bit inline, and the L1 fill and its L2 spill
        through the caches' raw LRU fills, victims held as packed ints.
        Only a dirty L2 victim calls out, to :meth:`_handle_l2_victim`
        (clean ones vanish in every mode that can take this path).
        With a tracer attached it defers to :meth:`_beyond_l1`, so
        event streams are the method's.

        Exact only for the inclusive and non-inclusive flow on plain
        un-hashed LRU core caches and a plain un-hashed NRU LLC;
        ``SimulatedCore.burst_driver`` checks that before asking for
        it.  The method stays the reference.
        """
        beyond_l1 = self._beyond_l1
        llc_demand = self._make_llc_demand()
        hit_hook = self._tla_hit_hook
        handle_l2_victim = self._handle_l2_victim
        counts = self.traffic.counts
        llc_request = MessageType.LLC_REQUEST
        sharers = self.directory._sharers
        sharers_get = sharers.get
        core_bit = 1 << core_id
        core = self.cores[core_id]
        i_fill = core.l1i._lru_fill_raw
        d_fill = core.l1d._lru_fill_raw
        l2_access = core.l2._lru_access
        l2_fill = core.l2._lru_fill_raw

        def miss_path(
            core_id: int,
            core: CoreCaches,
            stats: Optional[CoreAccessStats],
            line_addr: int,
            is_ifetch: bool,
            is_write: bool,
        ) -> int:
            if self.tracer is not None:
                return beyond_l1(core_id, core, stats, line_addr, is_ifetch, is_write)
            if stats is not None:
                stats.l2_accesses += 1
            if l2_access(line_addr):
                level = HIT_L2
            else:
                if stats is not None:
                    stats.l2_misses += 1
                    stats.llc_accesses += 1
                counts[llc_request] += 1
                level = llc_demand(core_id, line_addr, stats)
            # _fill_core_l1: the L1 victim spills into the L2.
            victim = (i_fill if is_ifetch else d_fill)(line_addr, is_write)
            if victim is not None:
                displaced = l2_fill(victim >> 1, victim & 1)
                if displaced is not None and displaced & 1:
                    handle_l2_victim(core, EvictedLine(displaced >> 1, True))
            if level == HIT_L2:
                if hit_hook is not None:
                    hit_hook(core_id, "l2", line_addr)
            else:
                sharers[line_addr] = sharers_get(line_addr, 0) | core_bit
            return level

        return miss_path

    def _make_llc_demand(self):
        """Build the miss closure's LLC leg, :meth:`_llc_demand` for the
        inclusive and non-inclusive modes: the NRU probe, the staged
        :meth:`_fill_llc` (checks included) and the victim choice inline
        over the LLC arrays, calling the TLA policy's
        ``select_llc_victim`` and ``after_llc_miss_fill`` only where it
        overrides them, and :meth:`_on_llc_eviction` on an eviction.
        Its own closure, so a stack sample tells LLC from core-cache work.
        """
        from ..core.tla import TLAPolicy

        tla = self.tla
        policy_cls = type(tla)
        select_victim = (
            None
            if policy_cls.select_llc_victim is TLAPolicy.select_llc_victim
            else tla.select_llc_victim
        )
        after_fill = (
            None
            if policy_cls.after_llc_miss_fill is TLAPolicy.after_llc_miss_fill
            else tla.after_llc_miss_fill
        )
        on_llc_eviction = self._on_llc_eviction
        counts = self.traffic.counts
        memory_request = MessageType.MEMORY_REQUEST
        llc = self.llc
        llc_name = llc.name
        llc_map = llc._map
        llc_get = llc._map_get
        llc_stats = llc.stats
        llc_mask = llc._set_mask
        llc_assoc = llc.associativity
        llc_addrs = llc._addrs
        llc_valid = llc._valid
        llc_valid_find = llc_valid.find
        llc_dirty = llc._dirty
        llc_ref = llc.policy._ref
        llc_ref_find = llc_ref.find
        llc_clear = llc.policy._clear

        def llc_demand(
            core_id: int, line_addr: int, stats: Optional[CoreAccessStats]
        ) -> int:
            way = llc_get(line_addr)
            if way is not None:
                # Cache.access under NRU: the hit sets the reference bit.
                llc_stats.hits += 1
                llc_ref[(line_addr & llc_mask) * llc_assoc + way] = 1
                return HIT_LLC
            llc_stats.misses += 1
            if stats is not None:
                stats.llc_misses += 1
            counts[memory_request] += 1
            # _fill_llc, staged: invalid way, else the victim.
            if line_addr in llc_map:
                raise SimulationError("LLC fill for already-resident line")
            set_index = line_addr & llc_mask
            base = set_index * llc_assoc
            slot = llc_valid_find(0, base, base + llc_assoc)
            if slot >= 0:
                way = slot - base
                victim_addr = None
            else:
                if select_victim is None:
                    # NRUPolicy.select_victim with no exclusions.
                    slot = llc_ref_find(0, base, base + llc_assoc)
                    if slot < 0:
                        llc_ref[base:base + llc_assoc] = llc_clear
                        slot = base
                    way = slot - base
                else:
                    way = select_victim(core_id, set_index)
                    slot = base + way
                    if not llc_valid[slot]:
                        raise SimulationError(
                            f"{llc_name}: evicting invalid way {way} "
                            f"of set {set_index}"
                        )
                # evict_way (the fill below rewrites the slot's dirty
                # and reference bits).
                victim_addr = llc_addrs[slot]
                victim_dirty = llc_dirty[slot]
                del llc_map[victim_addr]
                llc_valid[slot] = 0
                llc_stats.evictions += 1
                if victim_dirty:
                    llc_stats.dirty_evictions += 1
            # fill_way + NRUPolicy.on_fill.
            if llc_valid[slot]:
                raise SimulationError(
                    f"{llc_name}: filling over valid line in way {way} "
                    f"of set {set_index}; evict first"
                )
            llc_addrs[slot] = line_addr
            llc_valid[slot] = 1
            llc_dirty[slot] = 0
            llc_map[line_addr] = way
            llc_ref[slot] = 1
            llc_stats.fills += 1
            if victim_addr is not None:
                on_llc_eviction(EvictedLine(victim_addr, bool(victim_dirty)))
            if after_fill is not None:
                after_fill(core_id, set_index, way, line_addr)
            return HIT_MEMORY

        return llc_demand

    def prefetch(self, core_id: int, address: int) -> bool:
        """Prefetch a line into ``core_id``'s L2 (trained on L2 misses).

        Returns True if a fill actually happened (the line was not
        already L2-resident).  Prefetches follow the demand fill path
        through the LLC so inclusion is never violated, but are not
        attributed to demand statistics.
        """
        line_addr = address >> self.line_shift
        core = self.cores[core_id]
        if core.l2.contains(line_addr):
            return False
        self.traffic.record(MessageType.PREFETCH)
        self._llc_demand(core_id, line_addr, None)
        self._fill_core_l2(core, line_addr)
        self.directory.on_fill_to_core(line_addr, core_id)
        return True

    # -- mode-specific pieces ------------------------------------------------------
    def _llc_demand(
        self, core_id: int, line_addr: int, stats: Optional[CoreAccessStats]
    ) -> int:
        """Handle the access once it reaches the LLC.

        Returns HIT_LLC or HIT_MEMORY; must leave the hierarchy in a
        state where filling the core caches with ``line_addr`` is
        legal for the mode.  This body serves the inclusive and
        non-inclusive modes: a hit stays put, a miss fills the LLC
        (whose eviction side effects are :meth:`_on_llc_eviction`'s).
        """
        if self.llc.access(line_addr):
            return HIT_LLC
        if stats is not None:
            stats.llc_misses += 1
        if self.tracer is not None:
            self.tracer.emit(self.clock, EVENT_LLC_MISS, core=core_id, line=line_addr)
        self.traffic.record(MessageType.MEMORY_REQUEST)
        self._fill_llc(core_id, line_addr)
        return HIT_MEMORY

    def _on_llc_eviction(self, evicted: EvictedLine) -> None:
        """Apply mode-specific side effects of an LLC eviction."""
        raise NotImplementedError

    # -- core-cache fills with writeback plumbing -------------------------------------
    def _fill_core_l1(
        self, core: CoreCaches, line_addr: int, is_ifetch: bool, is_write: bool
    ) -> None:
        """Fill the demanding L1; its victim, if any, spills to the L2."""
        l1 = core.l1i if is_ifetch else core.l1d
        l1_victim = l1.fill(line_addr, dirty=is_write)
        if l1_victim is not None:
            self._spill_to_l2(core, l1_victim)

    def _spill_to_l2(self, core: CoreCaches, victim: EvictedLine) -> None:
        """Victim-allocate an L1 eviction into the core's (non-inclusive) L2.

        The L2 is allocated on L1 *evictions*, not on demand fills, so
        at steady state it holds exactly what the L1s have spilled —
        medium-reuse working sets — while constantly-hit lines live
        only in the L1s.  (This matches the paper's observed
        structure: QBS-L2 protects almost nothing beyond QBS-L1
        because hot lines are not L2-resident.)  This is the override
        point for each hierarchy mode's spill policy.
        """
        displaced = core.l2.fill(victim.line_addr, dirty=victim.dirty)
        if displaced is not None:
            self._handle_l2_victim(core, displaced)

    def _fill_core_l2(self, core: CoreCaches, line_addr: int) -> None:
        dirty = self._fill_dirty
        self._fill_dirty = False
        displaced = core.fill_l2(line_addr, dirty=dirty)
        if displaced is not None:
            self._handle_l2_victim(core, displaced)

    def _handle_l2_victim(self, core: CoreCaches, victim: EvictedLine) -> None:
        """Default (inclusive / non-inclusive) L2 victim handling.

        Dirty victims write back into the LLC; clean victims vanish.
        If the LLC no longer holds a dirty victim (possible without
        inclusion), the data goes to memory.
        """
        if not victim.dirty:
            return
        if self.llc.set_dirty(victim.line_addr):
            self.traffic.record(MessageType.WRITEBACK)
        else:
            self._writeback_to_memory(victim)

    def _writeback_to_memory(self, victim: EvictedLine) -> None:
        self.traffic.record(MessageType.WRITEBACK)

    # -- LLC fill with TLA victim selection ----------------------------------------
    def _fill_llc(self, core_id: int, line_addr: int) -> None:
        """Insert ``line_addr`` into the LLC using the TLA victim flow."""
        set_index = self.llc.set_index_of(line_addr)
        if self.llc.contains(line_addr):
            raise SimulationError("LLC fill for already-resident line")
        way = self.llc.find_invalid_way(set_index)
        victim: Optional[EvictedLine] = None
        if way is None:
            way = self.tla.select_llc_victim(core_id, set_index)
            victim = self.llc.evict_way(set_index, way)
        self.llc.fill_way(set_index, way, line_addr)
        if self.tracer is not None and victim is not None:
            self.tracer.emit(
                self.clock,
                EVENT_LLC_EVICT,
                core=core_id,
                line=victim.line_addr,
                extra={"dirty": victim.dirty},
            )
        if victim is not None:
            self._on_llc_eviction(victim)
        self.tla.after_llc_miss_fill(core_id, set_index, way, line_addr)

    # -- shared back-invalidate machinery (inclusive mode + ECI) ---------------------
    def _back_invalidate(
        self,
        line_addr: int,
        message: MessageType,
        record_inclusion_victim: bool,
        dirty_to_llc: bool = False,
    ) -> bool:
        """Invalidate core copies of ``line_addr`` via the directory.

        Sends one message per possible sharer and (optionally) counts
        inclusion victims against the cores that actually held the
        line.  Dirty core data normally goes to memory (the LLC copy
        is leaving too); with ``dirty_to_llc`` — the ECI case, where
        the line stays LLC-resident — it is merged into the LLC copy
        instead.  Returns True if any core actually held a copy.
        """
        any_present = False
        tracer = self.tracer
        for sharer in self.directory.sharers(line_addr):
            self.traffic.record(message)
            if tracer is not None:
                # BACK_INVALIDATE / ECI_INVALIDATE message values double
                # as the event names (same taxonomy by construction).
                tracer.emit(self.clock, message.value, core=sharer, line=line_addr)
            present, dirty = self.cores[sharer].invalidate_all(line_addr)
            self.directory.on_core_invalidated(line_addr, sharer)
            if not present:
                continue
            any_present = True
            if dirty:
                if dirty_to_llc and self.llc.set_dirty(line_addr):
                    self.traffic.record(MessageType.WRITEBACK)
                else:
                    self._writeback_to_memory(EvictedLine(line_addr, True))
            if record_inclusion_victim:
                self.total_inclusion_victims += 1
                self.core_stats[sharer].inclusion_victims += 1
                if tracer is not None:
                    tracer.emit(
                        self.clock,
                        EVENT_INCLUSION_VICTIM,
                        core=sharer,
                        line=line_addr,
                    )
            else:
                self.core_stats[sharer].eci_invalidations += 1
        return any_present

    # -- residency queries (QBS) -------------------------------------------------------
    def line_in_core_caches(
        self, line_addr: int, kinds: Sequence[str], count_queries: bool = True
    ) -> bool:
        """Is the line resident in any of the given core-cache kinds?

        Queries only cores the directory marks as possible sharers and
        charges one QBS_QUERY message per probed core.
        """
        tracer = self.tracer
        for sharer in self.directory.sharers(line_addr):
            if count_queries:
                self.traffic.record(MessageType.QBS_QUERY)
                if tracer is not None:
                    tracer.emit(
                        self.clock, EVENT_QBS_QUERY, core=sharer, line=line_addr
                    )
            if self.cores[sharer].holds(line_addr, kinds):
                return True
        return False

    # -- one-shot invariant audit -------------------------------------------------------
    def check_invariants(self) -> None:
        """Run every CacheSan checker that applies to this mode, once.

        A fresh fail-fast sanitizer is bound to the hierarchy but not
        installed in :attr:`sanitizer`, so an attached one keeps its
        sampling clock.  Raises :class:`~repro.errors.SanitizerError`
        naming each violation's checker and coordinates.
        """
        audit = HierarchySanitizer()
        audit.attach(self)
        audit.run()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} cores={self.num_cores} llc={self.llc!r}>"


def _make_none_policy() -> "TLAPolicy":
    """Late import to avoid the hierarchy<->core package cycle."""
    from ..core.tla import TLAPolicy

    return TLAPolicy()
