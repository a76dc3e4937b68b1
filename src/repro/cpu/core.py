"""One simulated core: consumes a trace, drives the hierarchy, keeps time.

Statistics (both cycle counts for IPC and the hierarchy's per-core
demand counters) freeze once the core passes its instruction quota,
but the core keeps executing so it continues to compete for the
shared LLC — the methodology of paper Section IV.B.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterator, Optional, Tuple

from ..access import AccessType
from ..cache import Cache
from ..cache.replacement.nru import NRUPolicy
from ..config import SimConfig
from ..errors import SimulationError
from ..hierarchy import HIT_LLC, BaseHierarchy
from ..hierarchy.levels import CoreCaches
from ..hierarchy.mshr import MSHRFile
from ..prefetch import make_prefetcher
from ..workloads.trace import TraceRecord
from .timing import CoreTimingModel

# Hoisted enum members for the bare loop (attribute access on
# an Enum class costs a metaclass dict probe per record otherwise).
_IFETCH = AccessType.IFETCH
_STORE = AccessType.STORE

#: the BaseHierarchy methods whose flow the miss closure inlines.
_MISS_PATH_METHODS = (
    "_beyond_l1", "_llc_demand", "_fill_core_l1", "_spill_to_l2", "_fill_llc",
)


def _miss_closure_applies(hierarchy: BaseHierarchy, core: CoreCaches) -> bool:
    """May the bare loop take ``hierarchy._make_miss_path``'s closure?

    Yes when the hierarchy class overrides none of the methods the
    closure inlines (so the inclusive and non-inclusive modes, not the
    exclusive or victim-cache ones), the core's L1s and L2 are exact
    :class:`Cache` objects still carrying their plain-LRU ``fill``
    closure (and the L2 its ``access`` closure), and the LLC is an exact
    :class:`Cache` under plain un-hashed :class:`NRUPolicy` with its
    class ``access``.  Called only by :meth:`SimulatedCore.burst_driver`.
    """
    cls = type(hierarchy)
    if any(
        getattr(cls, name) is not getattr(BaseHierarchy, name)
        for name in _MISS_PATH_METHODS
    ):
        return False
    for cache in (core.l1i, core.l1d, core.l2):
        if type(cache) is not Cache or cache.fill is not cache._lru_fill:
            return False
    llc = hierarchy.llc
    return (
        core.l2.access is core.l2._lru_access
        and type(llc) is Cache
        and type(llc.policy) is NRUPolicy
        and not llc._index_hash
        and getattr(llc.access, "__func__", None) is Cache.access
    )


class SimulatedCore:
    """Trace-driven core front-end for one hardware context."""

    def __init__(
        self,
        core_id: int,
        trace: Iterator[TraceRecord],
        hierarchy: BaseHierarchy,
        config: SimConfig,
        mshr: Optional[MSHRFile] = None,
    ) -> None:
        self.core_id = core_id
        self.trace = trace
        self.hierarchy = hierarchy
        self.quota = config.instruction_quota
        self.warmup = config.warmup_instructions
        self.timing = CoreTimingModel(config.timing, mshr)
        self.prefetcher = None
        if config.prefetch.enabled:
            self.prefetcher = make_prefetcher(
                config.prefetch, hierarchy.line_shift
            )
        #: cycle counts captured at the measurement-window boundaries.
        self.cycles_at_warmup: float = 0.0 if self.warmup == 0 else -1.0
        self.cycles_at_quota: Optional[float] = None
        self._exhausted = False
        self._quota_end = self.warmup + self.quota

    @property
    def instructions(self) -> int:
        return self.timing.instructions

    @property
    def cycles(self) -> float:
        return self.timing.cycles

    @property
    def quota_end(self) -> int:
        """Instruction count at which the measurement window closes."""
        return self._quota_end

    @property
    def done(self) -> bool:
        """Has this core retired its instruction quota (or run dry)?"""
        return self._exhausted or self.timing.instructions >= self._quota_end

    @property
    def recording(self) -> bool:
        """Is this core inside its measurement window?"""
        instructions = self.timing.instructions
        return self.warmup <= instructions < self._quota_end

    def step(self) -> bool:
        """Process one trace record; returns False if the trace ended.

        A one-record burst of :meth:`burst_driver`.  Finite traces
        simply stop advancing the core (infinite generators are the
        normal case for experiments).
        """
        driver = self.burst_driver(1)
        try:
            return not driver.send(False)[2]
        finally:
            driver.close()

    def burst_driver(
        self, count: int
    ) -> Generator[Tuple[int, bool, bool], bool, None]:
        """The core's resumable loop: bare, or probed if a probe is attached.

        Probes are the hierarchy's sanitizer and interval collector,
        this core's prefetcher, or a subclassed hierarchy ``access``
        method.  The core runs :meth:`_bare_loop` when none of them is
        present and both L1s still carry the LRU ``access`` closure
        whose body that loop inlines (stock LRU family, un-hashed
        index); otherwise it runs :meth:`_probed_loop`.  The
        bare loop sends its L1 misses to the hierarchy's miss closure
        (``BaseHierarchy._make_miss_path``) where
        :func:`_miss_closure_applies`, else to the bound ``_beyond_l1``.
        This is the only place either choice is made.  Returns a primed
        generator: each ``send(stop_when_done)`` runs one burst of up
        to ``count`` records and yields ``(steps_executed,
        transitioned, exhausted)``, where ``transitioned`` reports
        whether the burst crossed the core's quota boundary (``done``
        flipped False -> True) and ``exhausted`` whether the trace
        ended; after an exhausted burst the generator is finished.
        With ``stop_when_done=True`` a burst stops right after a quota
        transition — the CMP loop passes that when this core is the
        last one still measuring, so no extra steps (which would keep
        mutating the always-recorded traffic counters) run after the
        simulation's logical end.  While the generator is live,
        advance the core only through it (the bare loop keeps the
        instruction and cycle counts in locals between bursts).  The
        caller owns the generator and should ``close()`` it when done;
        the core keeps no reference to it.
        """
        hierarchy = self.hierarchy
        core = hierarchy.cores[self.core_id]
        l1i = core.l1i
        l1d = core.l1d
        if (
            hierarchy.sanitizer is None
            and hierarchy.collector is None
            and self.prefetcher is None
            and type(hierarchy).access is BaseHierarchy.access
            and l1i.access is l1i._lru_access
            and l1d.access is l1d._lru_access
        ):
            if _miss_closure_applies(hierarchy, core):
                miss_path = hierarchy._make_miss_path(self.core_id)
            else:
                miss_path = hierarchy._beyond_l1
            driver = self._bare_loop(core, miss_path, count)
        else:
            driver = self._probed_loop(count)
        next(driver)
        return driver

    def _bare_loop(
        self, core: CoreCaches, miss_path: Callable[..., int], count: int
    ) -> Generator[Tuple[int, bool, bool], bool, None]:
        """Generator body of :meth:`burst_driver` (hot path).

        The L1 probe happens right here: what ``Cache._make_lru_access``'s
        closure does for L1I and L1D (residency-map get, recency-stamp
        refresh with ``last_hit_was_mru``, dirty bit, hit/miss
        counters) is inlined, as are the demand counters and the TLA hit
        hook where ``BaseHierarchy.access`` calls it; only L1 misses
        call into the hierarchy, through ``miss_path`` (the miss closure
        or ``_beyond_l1``, which share a signature and results).
        Instruction and cycle counts live in locals, flushed to the
        timing model around every out-of-frame call and at every yield,
        so observable state is always consistent between bursts — and
        the float operations (two adds when a gap is present, one
        otherwise) are performed in exactly the order
        ``CoreTimingModel.step_account`` performs them.  Only
        this core's own steps move its timing model, so the locals stay
        valid while the generator is suspended.
        """
        hierarchy = self.hierarchy
        timing = self.timing
        trace_next = self.trace.__next__
        hit_hook = hierarchy._tla_hit_hook
        step_account = timing.step_account
        core_id = self.core_id
        stats = hierarchy.core_stats[core_id]
        # The L1 arrays the inlined probe touches; like the closure's
        # captures, each is only ever mutated in place.
        l1i = core.l1i
        i_get = l1i._map_get
        i_stats = l1i.stats
        i_mask = l1i._set_mask
        i_assoc = l1i.associativity
        i_policy = l1i.policy
        i_stamp = i_policy._stamp
        i_clock = i_policy._clock
        l1d = core.l1d
        d_get = l1d._map_get
        d_stats = l1d.stats
        d_mask = l1d._set_mask
        d_assoc = l1d.associativity
        d_policy = l1d.policy
        d_stamp = d_policy._stamp
        d_clock = d_policy._clock
        d_dirty = l1d._dirty
        line_shift = hierarchy.line_shift
        base_cpi = timing.timing.base_cpi
        warmup = self.warmup
        quota_end = self._quota_end
        instructions = timing.instructions
        cycles = timing.cycles
        is_done = self._exhausted or instructions >= quota_end
        before_warmup = self.cycles_at_warmup < 0
        stop_when_done = yield
        while True:
            executed = count
            transitioned = False
            for step_index in range(count):
                try:
                    gap, kind, address = trace_next()
                except StopIteration:
                    timing.instructions = instructions
                    timing.cycles = cycles
                    self._exhausted = True
                    self._finish()
                    yield step_index + 1, transitioned or not is_done, True
                    return
                recording = warmup <= instructions < quota_end
                line_addr = address >> line_shift
                if kind is _IFETCH:
                    if recording:
                        stats.l1i_accesses += 1
                    way = i_get(line_addr)
                    if way is None:
                        i_stats.misses += 1
                        if recording:
                            stats.l1i_misses += 1
                    else:
                        i_stats.hits += 1
                        set_index = line_addr & i_mask
                        slot = set_index * i_assoc + way
                        top = i_clock[set_index]
                        if i_stamp[slot] == top:
                            i_policy.last_hit_was_mru = True
                        else:
                            i_policy.last_hit_was_mru = False
                            top += 1
                            i_clock[set_index] = top
                            i_stamp[slot] = top
                        if hit_hook is not None:
                            hit_hook(core_id, "il1", line_addr)
                else:
                    if recording:
                        stats.l1d_accesses += 1
                    way = d_get(line_addr)
                    if way is None:
                        d_stats.misses += 1
                        if recording:
                            stats.l1d_misses += 1
                    else:
                        d_stats.hits += 1
                        set_index = line_addr & d_mask
                        slot = set_index * d_assoc + way
                        top = d_clock[set_index]
                        if d_stamp[slot] == top:
                            d_policy.last_hit_was_mru = True
                        else:
                            d_policy.last_hit_was_mru = False
                            top += 1
                            d_clock[set_index] = top
                            d_stamp[slot] = top
                        if kind is _STORE:
                            d_dirty[slot] = 1
                        if hit_hook is not None:
                            hit_hook(core_id, "dl1", line_addr)
                if way is not None:
                    if gap > 0:
                        instructions += gap
                        cycles += gap * base_cpi
                    instructions += 1
                    cycles += base_cpi
                else:
                    timing.instructions = instructions
                    timing.cycles = cycles
                    level = miss_path(
                        core_id,
                        core,
                        stats if recording else None,
                        line_addr,
                        kind is _IFETCH,
                        kind is _STORE,
                    )
                    step_account(gap, level, kind)
                    instructions = timing.instructions
                    cycles = timing.cycles
                if before_warmup and instructions >= warmup:
                    self.cycles_at_warmup = cycles
                    before_warmup = False
                if not is_done and instructions >= quota_end:
                    is_done = True
                    transitioned = True
                    if recording:
                        timing.instructions = instructions
                        timing.cycles = cycles
                        self._finish()  # drain may advance the clock
                        instructions = timing.instructions
                        cycles = timing.cycles
                    if stop_when_done:
                        executed = step_index + 1
                        break
            timing.instructions = instructions
            timing.cycles = cycles
            stop_when_done = yield executed, transitioned, False

    def _probed_loop(
        self, count: int
    ) -> Generator[Tuple[int, bool, bool], bool, None]:
        """Generator body of :meth:`burst_driver` when a probe is attached.

        Every record goes through ``BaseHierarchy.access``, which runs
        the sanitizer and the TLA hit hook; this loop adds the
        hierarchy collector's tick and the prefetcher.  Counts live on
        the timing model, so the loop needs no flushing between bursts.
        """
        hierarchy = self.hierarchy
        timing = self.timing
        trace_next = self.trace.__next__
        access = hierarchy.access
        advance = timing.advance
        step_account = timing.step_account
        collector = hierarchy.collector
        prefetcher = self.prefetcher
        core_id = self.core_id
        warmup = self.warmup
        quota_end = self._quota_end
        is_done = self._exhausted or timing.instructions >= quota_end
        stop_when_done = yield
        while True:
            executed = count
            transitioned = False
            for step_index in range(count):
                try:
                    gap, kind, address = trace_next()
                except StopIteration:
                    self._exhausted = True
                    self._finish()
                    yield step_index + 1, transitioned or not is_done, True
                    return
                recording = warmup <= timing.instructions < quota_end
                if collector is not None:
                    # Telemetry clock: events fired by this access are
                    # stamped with the issuing core's cycle count, and
                    # the interval collector folds counter deltas at
                    # window boundaries.  advance(gap) + step_account(0)
                    # is bit-identical to step_account(gap).
                    advance(gap)
                    gap = 0
                    cycles = timing.cycles
                    hierarchy.clock = cycles
                    collector.tick(cycles)
                level = access(core_id, address, kind, record_stats=recording)
                step_account(gap, level, kind)
                if prefetcher is not None and level >= HIT_LLC:
                    for prefetch_addr in prefetcher.train(address):
                        hierarchy.prefetch(core_id, prefetch_addr)
                instructions = timing.instructions
                if self.cycles_at_warmup < 0 and instructions >= warmup:
                    self.cycles_at_warmup = timing.cycles
                if not is_done and instructions >= quota_end:
                    is_done = True
                    transitioned = True
                    if recording:
                        self._finish()
                    if stop_when_done:
                        executed = step_index + 1
                        break
            stop_when_done = yield executed, transitioned, False

    def _finish(self) -> None:
        if self.cycles_at_quota is None:
            self.timing.drain()
            self.cycles_at_quota = self.timing.cycles
            if self.cycles_at_warmup < 0:
                # Trace ended during warm-up: no measurement window.
                self.cycles_at_warmup = self.timing.cycles

    def measured_instructions(self) -> int:
        """Instructions retired inside the measurement window."""
        end = min(self.timing.instructions, self.quota_end)
        return max(0, end - self.warmup)

    def ipc(self) -> float:
        """Committed IPC over the measured quota window."""
        if self.cycles_at_quota is None:
            raise SimulationError(
                f"core {self.core_id} has not reached its quota yet"
            )
        window = self.cycles_at_quota - self.cycles_at_warmup
        if window <= 0:
            return 0.0
        return self.measured_instructions() / window

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimulatedCore {self.core_id} instr={self.instructions} "
            f"cycles={self.cycles:.0f}>"
        )
