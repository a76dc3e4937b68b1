"""One simulated core: consumes a trace, drives the hierarchy, keeps time.

Statistics (both cycle counts for IPC and the hierarchy's per-core
demand counters) freeze once the core passes its instruction quota,
but the core keeps executing so it continues to compete for the
shared LLC — the methodology of paper Section IV.B.
"""

from __future__ import annotations

from typing import Generator, Iterator, Optional, Tuple

from ..access import AccessType
from ..cache import Cache
from ..config import SimConfig
from ..errors import SimulationError
from ..hierarchy import HIT_LLC, BaseHierarchy
from ..hierarchy.levels import CoreCaches
from ..hierarchy.mshr import MSHRFile
from ..perf.phase import PHASE_L1_ACCESS, PHASE_TRACE_GEN
from ..prefetch import make_prefetcher
from ..workloads.trace import TraceRecord
from .timing import CoreTimingModel

# Hoisted enum members for the inline burst loop (attribute access on
# an Enum class costs a metaclass dict probe per record otherwise).
_IFETCH = AccessType.IFETCH
_STORE = AccessType.STORE


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
        #: interval collector hook; None (the default) keeps the step
        #: loop free of telemetry work.
        self._collector = None
        #: host phase-timer hook; None (the default) keeps the trace
        #: draw free of timing work.
        self._phase_timer = None

    def attach_collector(self, collector) -> None:
        """Install the telemetry hook (advances the hierarchy clock)."""
        self._collector = collector

    def attach_phase_timer(self, timer) -> None:
        """Install the host phase timer (wraps the trace draw)."""
        self._phase_timer = timer

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

        Finite traces simply stop advancing the core (infinite
        generators are the normal case for experiments).
        """
        timing = self.timing
        timer = self._phase_timer
        try:
            if timer is not None:
                timer.enter(PHASE_TRACE_GEN)
                try:
                    gap, kind, address = next(self.trace)
                finally:
                    timer.exit()
            else:
                gap, kind, address = next(self.trace)
        except StopIteration:
            self._exhausted = True
            self._finish()
            return False
        instructions = timing.instructions
        recording = self.warmup <= instructions < self._quota_end
        timing.advance(gap)
        collector = self._collector
        if collector is not None:
            # Telemetry clock: events fired by this access are stamped
            # with the issuing core's cycle count, and the interval
            # collector folds counter deltas at window boundaries.
            self.hierarchy.clock = timing.cycles
            collector.tick(timing.cycles)
        level = self.hierarchy.access(
            self.core_id, address, kind, record_stats=recording
        )
        timing.record_access(level, kind)
        if self.prefetcher is not None and level >= HIT_LLC:
            for prefetch_addr in self.prefetcher.train(address):
                self.hierarchy.prefetch(self.core_id, prefetch_addr)
        instructions = timing.instructions
        if self.cycles_at_warmup < 0 and instructions >= self.warmup:
            self.cycles_at_warmup = timing.cycles
        if recording and instructions >= self._quota_end:
            self._finish()
        return True

    def step_burst(self, count: int, stop_when_done: bool) -> Tuple[int, bool, bool]:
        """Process up to ``count`` trace records in one call.

        Returns ``(steps_executed, transitioned, exhausted)`` where
        ``transitioned`` reports whether this burst crossed the core's
        quota boundary (``done`` flipped False -> True) and
        ``exhausted`` whether the trace ended.  With
        ``stop_when_done=True`` the burst stops right after a quota
        transition — the CMP loop passes that when this core is the
        last one still measuring, so no extra steps (which would keep
        mutating the always-recorded traffic counters) run after the
        simulation's logical end.

        Observable behaviour is identical to ``count`` calls of
        :meth:`step`.  With no probe attached this runs one burst of
        the bare loop (:meth:`burst_driver`, which a whole run resumes
        instead of paying its set-up per burst); telemetry or
        prefetcher hooks fall back to plain :meth:`step` calls, a phase
        timer gets its own burst loop, and a sanitizer or subclassed
        hierarchy/cache access the hoisted-bindings loop.
        """
        driver = self.burst_driver(count)
        if driver is not None:
            try:
                return driver.send(stop_when_done)
            finally:
                driver.close()
        if self._collector is not None or self.prefetcher is not None:
            return self._step_burst_slow(count, stop_when_done)
        if self._phase_timer is not None:
            return self._step_burst_timer(count, stop_when_done)
        return self._step_burst_plain(count, stop_when_done)

    def burst_driver(
        self, count: int
    ) -> Optional[Generator[Tuple[int, bool, bool], bool, None]]:
        """The resumable bare loop, or None when a probe is attached.

        Probes are a sanitizer, an interval collector, a prefetcher, a
        phase timer (on this core or the hierarchy), or subclassed
        hierarchy/L1 ``access`` methods; with any of them the caller
        uses :meth:`step_burst`.  Otherwise this returns a primed
        generator: each ``send(stop_when_done)`` runs one burst of up to
        ``count`` records with :meth:`step_burst`'s semantics and yields
        its ``(steps_executed, transitioned, exhausted)``.  After a
        burst that reports ``exhausted`` the generator is finished.
        While it is live, advance the core only through it (it keeps
        the instruction and cycle counts in locals between bursts).
        The caller owns the generator and should ``close()`` it when
        done; the core keeps no reference to it.
        """
        hierarchy = self.hierarchy
        if (
            self._collector is not None
            or self.prefetcher is not None
            or self._phase_timer is not None
            or hierarchy.sanitizer is not None
            or hierarchy.phase_timer is not None
            or type(hierarchy).access is not BaseHierarchy.access
        ):
            return None
        core = hierarchy.cores[self.core_id]
        if (
            type(core.l1i).access is not Cache.access
            or type(core.l1d).access is not Cache.access
        ):
            return None
        driver = self._bare_loop(core, count)
        next(driver)
        return driver

    def _bare_loop(
        self, core: CoreCaches, count: int
    ) -> Generator[Tuple[int, bool, bool], bool, None]:
        """Generator body of :meth:`burst_driver` (hot path).

        The L1 probe and hit accounting happen right here, including
        the TLA hit hook where ``BaseHierarchy.access`` calls it; only
        L1 misses call into the hierarchy.  Instruction and cycle
        counts live in locals, flushed to the timing model around every
        out-of-frame call and at every yield, so observable state is
        always consistent between bursts — and the float operations
        (two adds when a gap is present, one otherwise) are performed in
        exactly the order ``CoreTimingModel.step_account`` performs
        them.  Only this core's own steps move its timing model, so the
        locals stay valid while the generator is suspended.
        """
        hierarchy = self.hierarchy
        timing = self.timing
        trace_next = self.trace.__next__
        beyond_l1 = hierarchy._beyond_l1
        hit_hook = hierarchy._tla_hit_hook
        step_account = timing.step_account
        core_id = self.core_id
        stats = hierarchy.core_stats[core_id]
        l1i_access = core.l1i.access
        l1d_access = core.l1d.access
        line_shift = hierarchy.line_shift
        base_cpi = timing.timing.base_cpi
        warmup = self.warmup
        quota_end = self._quota_end
        instructions = timing.instructions
        cycles = timing.cycles
        is_done = self._exhausted or instructions >= quota_end
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
                    is_ifetch = True
                    is_write = False
                    if recording:
                        stats.l1i_accesses += 1
                    hit = l1i_access(line_addr)
                    if hit:
                        if hit_hook is not None:
                            hit_hook(core_id, "il1", line_addr)
                    elif recording:
                        stats.l1i_misses += 1
                else:
                    is_ifetch = False
                    is_write = kind is _STORE
                    if recording:
                        stats.l1d_accesses += 1
                    hit = l1d_access(line_addr, write=is_write)
                    if hit:
                        if hit_hook is not None:
                            hit_hook(core_id, "dl1", line_addr)
                    elif recording:
                        stats.l1d_misses += 1
                if hit:
                    if gap > 0:
                        instructions += gap
                        cycles += gap * base_cpi
                    instructions += 1
                    cycles += base_cpi
                else:
                    timing.instructions = instructions
                    timing.cycles = cycles
                    level = beyond_l1(
                        core_id,
                        core,
                        stats if recording else None,
                        line_addr,
                        is_ifetch,
                        is_write,
                    )
                    step_account(gap, level, kind)
                    instructions = timing.instructions
                    cycles = timing.cycles
                if self.cycles_at_warmup < 0 and instructions >= warmup:
                    self.cycles_at_warmup = cycles
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

    def _step_burst_plain(
        self, count: int, stop_when_done: bool
    ) -> Tuple[int, bool, bool]:
        """Hoisted-bindings burst used when the bare loop is unsafe
        (sanitizer attached, a phase timer on the hierarchy only, or
        subclassed hierarchy/cache access methods)."""
        timing = self.timing
        trace_next = self.trace.__next__
        access = self.hierarchy.access
        step_account = timing.step_account
        core_id = self.core_id
        warmup = self.warmup
        quota_end = self._quota_end
        transitioned = False
        is_done = self._exhausted or timing.instructions >= quota_end
        for step_index in range(count):
            try:
                gap, kind, address = trace_next()
            except StopIteration:
                self._exhausted = True
                self._finish()
                return step_index + 1, transitioned or not is_done, True
            instructions = timing.instructions
            recording = warmup <= instructions < quota_end
            level = access(core_id, address, kind, record_stats=recording)
            step_account(gap, level, kind)
            instructions = timing.instructions
            if self.cycles_at_warmup < 0 and instructions >= warmup:
                self.cycles_at_warmup = timing.cycles
            if not is_done and instructions >= quota_end:
                is_done = True
                transitioned = True
                if recording:
                    self._finish()
                if stop_when_done:
                    return step_index + 1, True, False
        return count, transitioned, False

    def _step_burst_timer(
        self, count: int, stop_when_done: bool
    ) -> Tuple[int, bool, bool]:
        """Burst loop for phase-timed runs: identical semantics to the
        plain loop plus the ``trace_gen`` phase bracket around each
        trace draw (the hierarchy brackets its own phases inside
        ``access``).

        When the hierarchy is hook-free and shares this core's timer,
        the L1 probe runs inline here with the same ``l1_access``
        bracket ``BaseHierarchy.access`` would have opened, so the
        phase stream (and every counter) is bit-identical to the
        fallback loop below while the common L1-hit record never
        leaves this frame.
        """
        hierarchy = self.hierarchy
        timer = self._phase_timer
        if (
            hierarchy.sanitizer is None
            and hierarchy._tla_hit_hook is None
            and hierarchy.phase_timer is timer
            and type(hierarchy).access is BaseHierarchy.access
        ):
            core = hierarchy.cores[self.core_id]
            if (
                type(core.l1i).access is Cache.access
                and type(core.l1d).access is Cache.access
            ):
                return self._step_burst_timer_inline(
                    count, stop_when_done, core, timer
                )
        return self._step_burst_timer_plain(count, stop_when_done)

    def _step_burst_timer_inline(
        self, count: int, stop_when_done: bool, core, timer
    ) -> Tuple[int, bool, bool]:
        """Inline-L1 burst with phase brackets (see _step_burst_timer)."""
        timing = self.timing
        timer_enter = timer.enter
        timer_exit = timer.exit
        timer_switch = timer.switch
        trace_next = self.trace.__next__
        hierarchy = self.hierarchy
        beyond_l1 = hierarchy._beyond_l1
        step_account = timing.step_account
        core_id = self.core_id
        stats = hierarchy.core_stats[core_id]
        l1i_access = core.l1i.access
        l1d_access = core.l1d.access
        line_shift = hierarchy.line_shift
        base_cpi = timing.timing.base_cpi
        warmup = self.warmup
        quota_end = self._quota_end
        transitioned = False
        instructions = timing.instructions
        cycles = timing.cycles
        is_done = self._exhausted or instructions >= quota_end
        for step_index in range(count):
            timer_enter(PHASE_TRACE_GEN)
            try:
                gap, kind, address = trace_next()
            except StopIteration:
                timer_exit()
                timing.instructions = instructions
                timing.cycles = cycles
                self._exhausted = True
                self._finish()
                return step_index + 1, transitioned or not is_done, True
            recording = warmup <= instructions < quota_end
            line_addr = address >> line_shift
            # One fused transition (trace_gen -> l1_access) instead of
            # exit + enter: half the clock reads per record.
            timer_switch(PHASE_L1_ACCESS)
            if kind is _IFETCH:
                is_ifetch = True
                is_write = False
                if recording:
                    stats.l1i_accesses += 1
                hit = l1i_access(line_addr)
                if not hit and recording:
                    stats.l1i_misses += 1
            else:
                is_ifetch = False
                is_write = kind is _STORE
                if recording:
                    stats.l1d_accesses += 1
                hit = l1d_access(line_addr, write=is_write)
                if not hit and recording:
                    stats.l1d_misses += 1
            if hit:
                timer_exit()
                if gap > 0:
                    instructions += gap
                    cycles += gap * base_cpi
                instructions += 1
                cycles += base_cpi
            else:
                # _beyond_l1 exits the still-open l1_access phase
                # itself (and brackets llc_access), exactly as it does
                # when called from BaseHierarchy.access.
                timing.instructions = instructions
                timing.cycles = cycles
                level = beyond_l1(
                    core_id,
                    core,
                    stats if recording else None,
                    line_addr,
                    is_ifetch,
                    is_write,
                )
                step_account(gap, level, kind)
                instructions = timing.instructions
                cycles = timing.cycles
            if self.cycles_at_warmup < 0 and instructions >= warmup:
                self.cycles_at_warmup = cycles
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
                    timing.instructions = instructions
                    timing.cycles = cycles
                    return step_index + 1, True, False
        timing.instructions = instructions
        timing.cycles = cycles
        return count, transitioned, False

    def _step_burst_timer_plain(
        self, count: int, stop_when_done: bool
    ) -> Tuple[int, bool, bool]:
        """Hook-compatible phase-timed burst (hoisted bindings only)."""
        timing = self.timing
        timer = self._phase_timer
        timer_enter = timer.enter
        timer_exit = timer.exit
        trace_next = self.trace.__next__
        access = self.hierarchy.access
        step_account = timing.step_account
        core_id = self.core_id
        warmup = self.warmup
        quota_end = self._quota_end
        transitioned = False
        is_done = self._exhausted or timing.instructions >= quota_end
        for step_index in range(count):
            timer_enter(PHASE_TRACE_GEN)
            try:
                gap, kind, address = trace_next()
            except StopIteration:
                timer_exit()
                self._exhausted = True
                self._finish()
                return step_index + 1, transitioned or not is_done, True
            timer_exit()
            instructions = timing.instructions
            recording = warmup <= instructions < quota_end
            level = access(core_id, address, kind, record_stats=recording)
            step_account(gap, level, kind)
            instructions = timing.instructions
            if self.cycles_at_warmup < 0 and instructions >= warmup:
                self.cycles_at_warmup = timing.cycles
            if not is_done and instructions >= quota_end:
                is_done = True
                transitioned = True
                if recording:
                    self._finish()
                if stop_when_done:
                    return step_index + 1, True, False
        return count, transitioned, False

    def _step_burst_slow(
        self, count: int, stop_when_done: bool
    ) -> Tuple[int, bool, bool]:
        """Hook-compatible burst: plain :meth:`step` calls."""
        transitioned = False
        for step_index in range(count):
            was_done = self.done
            progressed = self.step()
            if not was_done and self.done:
                transitioned = True
            if not progressed:
                return step_index + 1, transitioned, True
            if transitioned and stop_when_done:
                return step_index + 1, True, False
        return count, transitioned, False

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
