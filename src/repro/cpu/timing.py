"""Analytic out-of-order core timing model.

The paper's cores are 4-way out-of-order with a 128-entry ROB.  For a
trace-driven cache study the timing model only has to convert hit
levels into cycles *monotonically* — the paper itself verified its
conclusions hold "for different latencies including pure functional
cache simulation" (Section IV.A).  The model here:

* issues ``base_cpi`` cycles per instruction (4-wide = 0.25);
* charges an immediate, partial stall for loads and instruction
  fetches that miss the L1 (``load_exposure`` x latency) — the
  dependent-instruction exposure an OoO window cannot always hide;
* tracks outstanding off-core misses and stalls fully when the oldest
  one is still unresolved ``rob_window`` instructions later (the ROB
  fills) — this is what gives clustered misses their
  memory-level-parallelism discount relative to isolated ones;
* funnels LLC-and-beyond requests through the shared
  :class:`~repro.hierarchy.mshr.MSHRFile`, so bandwidth contention
  between cores lengthens miss latency as in Section IV.A.

Stores retire through a store buffer and charge only
``store_stall_fraction`` of their exposed latency.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from ..access import AccessType
from ..config import TimingConfig
from ..hierarchy import HIT_L1, HIT_L2, HIT_LLC, HIT_MEMORY
from ..hierarchy.mshr import MSHRFile

# Hoisted enum members for the per-miss path (see repro.cpu.core).
_IFETCH = AccessType.IFETCH
_STORE = AccessType.STORE


class CoreTimingModel:
    """Cycle accounting for one core."""

    def __init__(self, timing: TimingConfig, mshr: Optional[MSHRFile] = None) -> None:
        self.timing = timing
        self.mshr = mshr
        self.cycles = 0.0
        self.instructions = 0
        # Outstanding off-core misses: (instruction index at issue,
        # data-return cycle), oldest first.
        self._pending: Deque[Tuple[int, float]] = deque()
        self._latency = {
            HIT_L1: float(timing.l1_latency),
            HIT_L2: float(timing.l2_latency),
            HIT_LLC: float(timing.llc_latency),
            HIT_MEMORY: float(timing.llc_latency + timing.memory_latency),
        }

    def advance(self, instruction_count: int) -> None:
        """Execute ``instruction_count`` non-memory instructions."""
        if instruction_count > 0:
            self.instructions += instruction_count
            self.cycles += instruction_count * self.timing.base_cpi

    def step_account(self, gap: int, level: int, kind: AccessType) -> None:
        """Fused ``advance(gap)`` + the accounting of one memory access.

        The probed loop calls this once per trace record (the bare
        loop only for records that left the L1).  The whole miss path
        runs on locals in one body: retire returned misses, stall while
        the ROB is full behind the oldest unresolved one, then charge
        this access's exposed latency.  It performs the same floating-point operations in the
        same order as separate ``advance`` and ``record_access`` calls,
        so cycle counts stay bit-identical either way.
        """
        timing = self.timing
        base_cpi = timing.base_cpi
        instructions = self.instructions
        cycles = self.cycles
        if gap > 0:
            instructions += gap
            cycles += gap * base_cpi
        instructions += 1
        cycles += base_cpi
        if level == HIT_L1:
            # Pipelined; no visible stall.
            self.instructions = instructions
            self.cycles = cycles
            return
        pending = self._pending
        # Misses whose data has returned leave the window.
        while pending and pending[0][1] <= cycles:
            pending.popleft()
        # The ROB cannot retire past an unresolved oldest miss.
        window = timing.rob_window
        while pending and instructions - pending[0][0] >= window:
            return_cycle = pending.popleft()[1]
            if return_cycle > cycles:
                cycles = return_cycle
        latency = self._latency[level]
        mshr = self.mshr
        if mshr is not None and level >= HIT_LLC:
            issue = mshr.allocate(int(cycles), int(latency))
            return_cycle = issue + latency
        else:
            return_cycle = cycles + latency
        if kind is _IFETCH:
            # Front-end stall: fetch misses serialise and overlap with
            # nothing downstream.
            exposure = timing.ifetch_exposure
        else:
            # Memory-level parallelism: the more misses already in
            # flight, the more of this one's latency overlaps with
            # them.  Isolated (dependent) misses pay nearly full price.
            exposure = timing.load_exposure / (1 + len(pending))
            if kind is _STORE:
                exposure *= timing.store_stall_fraction
        cycles += (return_cycle - cycles) * exposure
        pending.append((instructions, return_cycle))
        self.instructions = instructions
        self.cycles = cycles

    def record_access(self, level: int, kind: AccessType) -> None:
        """Account for one memory instruction that hit at ``level``."""
        self.step_account(0, level, kind)

    def drain(self) -> None:
        """Wait for all outstanding misses (end of simulation)."""
        if self._pending:
            last_return = max(ret for _, ret in self._pending)
            if last_return > self.cycles:
                self.cycles = last_return
            self._pending.clear()

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0
