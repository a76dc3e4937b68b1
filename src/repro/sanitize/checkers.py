"""Concrete CacheSan invariant checkers.

Each checker pins one structural property the paper's results depend
on.  All checkers are read-only: they walk tag stores, replacement
metadata, the sharer directory and the stats counters, and report
:class:`~repro.sanitize.base.Violation` records with exact
set/way/line-address coordinates.

:func:`every_checker` builds one of each, the set a
:class:`~repro.sanitize.base.HierarchySanitizer` runs by default.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Tuple

from ..cache import Cache
from ..cache.replacement.base import ReplacementPolicy
from ..coherence import MessageType
from ..errors import SimulationError
from ..metrics.stats import counter_conservation
from .base import InvariantChecker, Violation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..hierarchy.base import BaseHierarchy


def _core_arrays(hierarchy: "BaseHierarchy") -> Iterable[Tuple[str, Cache]]:
    """Yield ``(label, cache)`` for every core-cache array."""
    for core in hierarchy.cores:
        for kind in core.KINDS:
            yield f"core{core.core_id}.{kind}", core.cache_for_kind(kind)


def _all_arrays(hierarchy: "BaseHierarchy") -> Iterable[Tuple[str, Cache]]:
    yield from _core_arrays(hierarchy)
    yield "llc", hierarchy.llc


class InclusionChecker(InvariantChecker):
    """Core caches must be a subset of an inclusive LLC (strictly: ECI
    and modified QBS invalidate core copies synchronously, so no line
    is ever exempt)."""

    name = "inclusion"

    def applies_to(self, hierarchy: "BaseHierarchy") -> bool:
        return hierarchy.mode == "inclusive"

    def check(self, hierarchy: "BaseHierarchy") -> List[Violation]:
        violations: List[Violation] = []
        for label, cache in _core_arrays(hierarchy):
            for line_addr in cache.resident_lines():
                if hierarchy.llc.contains(line_addr):
                    continue
                set_index = cache.set_index_of(line_addr)
                violations.append(
                    self.violation(
                        f"{label} holds a line absent from the inclusive "
                        f"LLC (LLC set {hierarchy.llc.set_index_of(line_addr)})"
                        " — missing back-invalidate?",
                        line_addr=line_addr,
                        set_index=set_index,
                        way=cache.way_of(line_addr),
                    )
                )
        return violations


class ExclusionChecker(InvariantChecker):
    """No line may live in both an L2 and an exclusive LLC.

    L1/LLC overlap is tolerated: an L2 can evict a line to the LLC
    while an L1 still holds it, and real exclusive designs accept the
    same transient.
    """

    name = "exclusion"

    def applies_to(self, hierarchy: "BaseHierarchy") -> bool:
        return hierarchy.mode == "exclusive"

    def check(self, hierarchy: "BaseHierarchy") -> List[Violation]:
        violations: List[Violation] = []
        for core in hierarchy.cores:
            for line_addr in core.l2.resident_lines():
                if hierarchy.llc.contains(line_addr):
                    violations.append(
                        self.violation(
                            f"core{core.core_id}.l2 and the exclusive LLC "
                            "both hold the line",
                            line_addr=line_addr,
                            set_index=hierarchy.llc.set_index_of(line_addr),
                            way=hierarchy.llc.way_of(line_addr),
                        )
                    )
        return violations


class DuplicateLineChecker(InvariantChecker):
    """Tag stores must be internally consistent.

    For every array: each map entry must point at a valid way holding
    the mapped address, no two addresses may map to one way, and no
    valid way may be missing from the map (an orphan line is
    unevictable and silently shrinks the set).  For the victim-cache
    hierarchy, victim-buffer entries must not be LLC- or core-resident
    (they were back-invalidated on eviction).
    """

    name = "duplicate-line"

    def check(self, hierarchy: "BaseHierarchy") -> List[Violation]:
        violations: List[Violation] = []
        for label, cache in _all_arrays(hierarchy):
            violations.extend(self._check_array(label, cache))
        victim_cache = getattr(hierarchy, "victim_cache", None)
        if victim_cache is not None:
            violations.extend(self._check_victim_buffer(hierarchy, victim_cache))
        return violations

    def _check_array(self, label: str, cache: Cache) -> List[Violation]:
        violations: List[Violation] = []
        seen_slots = set()
        mapped_per_set = [0] * cache.num_sets
        for line_addr, way in cache.map_items():
            set_index = cache.set_index_of(line_addr)
            mapped_per_set[set_index] += 1
            slot = (set_index, way)
            if slot in seen_slots:
                violations.append(
                    self.violation(
                        f"{label}: two map entries share one way",
                        line_addr=line_addr,
                        set_index=set_index,
                        way=way,
                    )
                )
            seen_slots.add(slot)
            held_addr = cache.addr_at(set_index, way)
            if held_addr != line_addr:
                held = f"{held_addr:#x}" if held_addr is not None else "invalid"
                violations.append(
                    self.violation(
                        f"{label}: map entry points at a way holding "
                        f"{held}",
                        line_addr=line_addr,
                        set_index=set_index,
                        way=way,
                    )
                )
        for set_index in range(cache.num_sets):
            valid_ways = cache.set_occupancy(set_index)
            if valid_ways != mapped_per_set[set_index]:
                violations.append(
                    self.violation(
                        f"{label}: {valid_ways} valid ways but "
                        f"{mapped_per_set[set_index]} map entries "
                        "(orphan line)",
                        set_index=set_index,
                    )
                )
        return violations

    def _check_victim_buffer(
        self, hierarchy: "BaseHierarchy", victim_cache
    ) -> List[Violation]:
        violations: List[Violation] = []
        if len(victim_cache) > victim_cache.num_entries:
            violations.append(
                self.violation(
                    f"victim cache holds {len(victim_cache)} entries, "
                    f"capacity {victim_cache.num_entries}"
                )
            )
        for line_addr in victim_cache.resident_lines():
            if hierarchy.llc.contains(line_addr):
                violations.append(
                    self.violation(
                        "victim-cache entry duplicated in the LLC",
                        line_addr=line_addr,
                        set_index=hierarchy.llc.set_index_of(line_addr),
                        way=hierarchy.llc.way_of(line_addr),
                    )
                )
            for core in hierarchy.cores:
                if core.holds(line_addr):
                    violations.append(
                        self.violation(
                            f"victim-cache entry still resident in "
                            f"core{core.core_id} "
                            f"({'/'.join(core.holding_kinds(line_addr))})",
                            line_addr=line_addr,
                        )
                    )
        return violations


class ReplacementMetadataChecker(InvariantChecker):
    """Replacement metadata must stay well-formed.

    Delegates to :meth:`ReplacementPolicy.validate_set`: recency
    stacks must be permutations of the ways, NRU/PLRU bits and RRPVs
    must be in range.  A policy without per-set structure validates
    vacuously.
    """

    name = "replacement-metadata"

    def check(self, hierarchy: "BaseHierarchy") -> List[Violation]:
        violations: List[Violation] = []
        for label, cache in _all_arrays(hierarchy):
            violations.extend(self._check_policy(label, cache.policy))
        return violations

    def _check_policy(
        self, label: str, policy: ReplacementPolicy
    ) -> List[Violation]:
        violations: List[Violation] = []
        for set_index in range(policy.num_sets):
            try:
                policy.validate_set(set_index)
            except SimulationError as exc:
                violations.append(
                    self.violation(f"{label}: {exc}", set_index=set_index)
                )
        return violations


class MSHRLeakChecker(InvariantChecker):
    """MSHR files must never leak or over-allocate entries.

    Checks every MSHR file the CPU layer registered with the
    sanitizer: outstanding entries bounded by capacity (an unbounded
    heap means completions are never drained — a leak), peak occupancy
    within capacity, and stall counters consistent with allocations.
    """

    name = "mshr-leak"

    def check(self, hierarchy: "BaseHierarchy") -> List[Violation]:
        violations: List[Violation] = []
        if self.sanitizer is None:
            return violations
        for index, mshr in enumerate(self.sanitizer.mshrs):
            inflight = mshr.inflight()
            if inflight > mshr.num_entries:
                violations.append(
                    self.violation(
                        f"mshr[{index}]: {inflight} outstanding entries "
                        f"exceed the {mshr.num_entries}-entry file (leak)"
                    )
                )
            if mshr.stats.peak_occupancy > mshr.num_entries:
                violations.append(
                    self.violation(
                        f"mshr[{index}]: peak occupancy "
                        f"{mshr.stats.peak_occupancy} exceeds capacity "
                        f"{mshr.num_entries}"
                    )
                )
            if mshr.stats.stalls > mshr.stats.allocations:
                violations.append(
                    self.violation(
                        f"mshr[{index}]: {mshr.stats.stalls} stalls but "
                        f"only {mshr.stats.allocations} allocations"
                    )
                )
        return violations


class DirectoryConsistencyChecker(InvariantChecker):
    """The sharer directory must never under-approximate residency.

    A clear bit means "definitely absent" (that is what makes
    back-invalidates and QBS queries sound), so every core-resident
    line must have its sharer bit set.  In inclusive hierarchies the
    directory must also track only LLC-resident lines (state is
    dropped on eviction).  Exclusive hierarchies are skipped: an LLC
    hit-invalidate legitimately drops other cores' stale bits.
    """

    name = "directory"

    def applies_to(self, hierarchy: "BaseHierarchy") -> bool:
        return hierarchy.mode in ("inclusive", "non_inclusive")

    def check(self, hierarchy: "BaseHierarchy") -> List[Violation]:
        violations: List[Violation] = []
        directory = hierarchy.directory
        for core in hierarchy.cores:
            for line_addr in core.resident_lines():
                if not directory.is_sharer(line_addr, core.core_id):
                    violations.append(
                        self.violation(
                            f"core{core.core_id} holds the line "
                            f"({'/'.join(core.holding_kinds(line_addr))}) "
                            "but its directory sharer bit is clear",
                            line_addr=line_addr,
                        )
                    )
        if hierarchy.mode == "inclusive":
            for line_addr in directory.tracked_lines():
                if not hierarchy.llc.contains(line_addr):
                    violations.append(
                        self.violation(
                            "directory tracks a line the inclusive LLC "
                            "no longer holds",
                            line_addr=line_addr,
                            set_index=hierarchy.llc.set_index_of(line_addr),
                        )
                    )
        return violations


class StatsConservationChecker(InvariantChecker):
    """Event counters must obey their conservation laws.

    Per array: ``fills - evictions - invalidations == occupancy`` and
    no negative or inconsistent dirty counters (via
    :func:`repro.metrics.stats.counter_conservation`).  Per hierarchy:
    the global inclusion-victim total must equal the per-core sum, and
    recorded victims must reconcile with observed back-invalidate /
    ECI-invalidate message traffic.
    """

    name = "stats-conservation"

    def check(self, hierarchy: "BaseHierarchy") -> List[Violation]:
        violations: List[Violation] = []
        for label, cache in _all_arrays(hierarchy):
            for problem in counter_conservation(
                cache.stats.snapshot(), cache.occupancy()
            ):
                violations.append(self.violation(f"{label}: {problem}"))
        per_core_victims = sum(
            stats.inclusion_victims for stats in hierarchy.core_stats
        )
        if per_core_victims != hierarchy.total_inclusion_victims:
            violations.append(
                self.violation(
                    f"total_inclusion_victims "
                    f"({hierarchy.total_inclusion_victims}) != per-core sum "
                    f"({per_core_victims})"
                )
            )
        traffic = hierarchy.traffic.counts
        if hierarchy.total_inclusion_victims > traffic[MessageType.BACK_INVALIDATE]:
            violations.append(
                self.violation(
                    f"{hierarchy.total_inclusion_victims} inclusion victims "
                    f"recorded but only "
                    f"{traffic[MessageType.BACK_INVALIDATE]} back-invalidate "
                    "messages sent"
                )
            )
        eci_invalidations = sum(
            stats.eci_invalidations for stats in hierarchy.core_stats
        )
        if eci_invalidations > traffic[MessageType.ECI_INVALIDATE]:
            violations.append(
                self.violation(
                    f"{eci_invalidations} early invalidations recorded but "
                    f"only {traffic[MessageType.ECI_INVALIDATE]} "
                    "ECI-invalidate messages sent"
                )
            )
        return violations


def every_checker() -> List[InvariantChecker]:
    """One fresh instance of every checker.

    Mode filtering happens later, at
    :meth:`HierarchySanitizer.attach`, via each checker's
    :meth:`~InvariantChecker.applies_to`.
    """
    return [
        InclusionChecker(),
        ExclusionChecker(),
        DuplicateLineChecker(),
        ReplacementMetadataChecker(),
        MSHRLeakChecker(),
        DirectoryConsistencyChecker(),
        StatsConservationChecker(),
    ]
