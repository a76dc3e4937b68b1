"""Fused ``CoreTimingModel.step_account`` vs the unfused reference.

``step_account`` folds the gap advance, the per-access accounting and
the miss path (retire returned misses, stall on a full ROB, charge the
exposed latency) into one body working on locals.  The reference
below is the unfused code it replaced — ``advance`` + ``record_access``
+ three helpers — kept here verbatim.  Both must produce bit-identical
floats (compared with ``==``), the same pending-miss window and the
same MSHR state, with two cores sharing a small MSHR file so that MSHR
stalls occur.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.access import AccessType
from repro.config import TimingConfig
from repro.cpu import CoreTimingModel
from repro.hierarchy import HIT_L1, HIT_L2, HIT_LLC, HIT_MEMORY
from repro.hierarchy.mshr import MSHRFile


class ReferenceTiming:
    """The unfused timing model: advance + record_access + helpers."""

    def __init__(self, timing, mshr=None):
        self.timing = timing
        self.mshr = mshr
        self.cycles = 0.0
        self.instructions = 0
        self._pending = deque()
        self._latency = {
            HIT_L1: timing.l1_latency,
            HIT_L2: timing.l2_latency,
            HIT_LLC: timing.llc_latency,
            HIT_MEMORY: timing.llc_latency + timing.memory_latency,
        }

    def advance(self, instruction_count):
        if instruction_count > 0:
            self.instructions += instruction_count
            self.cycles += instruction_count * self.timing.base_cpi

    def record_access(self, level, kind):
        self.instructions += 1
        self.cycles += self.timing.base_cpi
        if level == HIT_L1:
            return
        self._account_miss(level, kind)

    def _account_miss(self, level, kind):
        self._retire_returned()
        self._stall_on_full_rob()

        latency = float(self._latency[level])
        if self.mshr is not None and level >= HIT_LLC:
            issue = self.mshr.allocate(int(self.cycles), int(latency))
            return_cycle = issue + latency
        else:
            return_cycle = self.cycles + latency
        if kind is AccessType.IFETCH:
            exposure = self.timing.ifetch_exposure
        else:
            exposure = self.timing.load_exposure / (1 + len(self._pending))
            if kind is AccessType.STORE:
                exposure *= self.timing.store_stall_fraction
        self.cycles += (return_cycle - self.cycles) * exposure
        self._pending.append((self.instructions, return_cycle))

    def _retire_returned(self):
        pending = self._pending
        now = self.cycles
        while pending and pending[0][1] <= now:
            pending.popleft()

    def _stall_on_full_rob(self):
        window = self.timing.rob_window
        pending = self._pending
        while pending and self.instructions - pending[0][0] >= window:
            issued_at, return_cycle = pending.popleft()
            if return_cycle > self.cycles:
                self.cycles = return_cycle


LEVELS = st.sampled_from([HIT_L1, HIT_L2, HIT_LLC, HIT_MEMORY])
KINDS = st.sampled_from(list(AccessType))
EVENTS = st.lists(
    st.tuples(
        st.integers(0, 1),  # which core
        st.sampled_from(["step", "record", "advance"]),
        st.integers(0, 40),  # gap
        LEVELS,
        KINDS,
    ),
    max_size=300,
)

#: a window small enough that ROB stalls happen within a few misses.
SMALL_ROB = TimingConfig(rob_window=16)


def twin_machines(config, mshr_entries):
    fast_mshr = MSHRFile(mshr_entries)
    ref_mshr = MSHRFile(mshr_entries)
    fast = [CoreTimingModel(config, fast_mshr) for _ in range(2)]
    reference = [ReferenceTiming(config, ref_mshr) for _ in range(2)]
    return fast, reference, fast_mshr, ref_mshr


def state(model):
    return model.instructions, model.cycles, list(model._pending)


def mshr_state(mshr):
    return sorted(mshr._completions), vars(mshr.stats)


def replay(events, config, mshr_entries):
    fast, reference, fast_mshr, ref_mshr = twin_machines(config, mshr_entries)
    for core, how, gap, level, kind in events:
        new, old = fast[core], reference[core]
        if how == "step":
            new.step_account(gap, level, kind)
            old.advance(gap)
            old.record_access(level, kind)
        elif how == "record":
            new.record_access(level, kind)
            old.record_access(level, kind)
        else:
            new.advance(gap)
            old.advance(gap)
        assert state(new) == state(old)
        assert mshr_state(fast_mshr) == mshr_state(ref_mshr)
    return fast_mshr


class TestStepAccountMatchesReference:
    @given(
        events=EVENTS,
        config=st.sampled_from([TimingConfig(), SMALL_ROB]),
        mshr_entries=st.integers(1, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_floats_and_state(self, events, config, mshr_entries):
        replay(events, config, mshr_entries)

    def test_mshr_stalls_are_exercised(self):
        """Back-to-back memory misses from two cores overflow a
        two-entry MSHR file, so the stall branch is compared too."""
        events = [
            (step % 2, "step", 1, HIT_MEMORY, AccessType.LOAD)
            for step in range(40)
        ]
        mshr = replay(events, SMALL_ROB, 2)
        assert mshr.stats.stalls > 0

    def test_rob_stalls_are_exercised(self):
        """Misses spaced past the ROB window force the full-ROB stall."""
        events = [
            (0, "step", 20, HIT_LLC, AccessType.STORE) for _ in range(30)
        ]
        fast, reference, _, _ = twin_machines(SMALL_ROB, 3)
        for core, _how, gap, level, kind in events:
            fast[core].step_account(gap, level, kind)
            reference[core].advance(gap)
            reference[core].record_access(level, kind)
        assert state(fast[0]) == state(reference[0])
        # Each miss retired the previous one through the ROB window.
        assert len(fast[0]._pending) == 1
