"""The phase timer: wall-time attribution for host phases.

Where :class:`repro.telemetry.Tracer` observes the *simulated machine*
(misses, back-invalidates, QBS queries), :class:`PhaseTimer` observes
the host work around the simulator: which phase — job execution,
orchestration bookkeeping, waiting on the worker pool — the
wall-clock seconds went to.  The simulator's own split (trace
generation, L1, LLC, replacement, back-invalidation) is sampled, not
bracketed: see :mod:`repro.perf.sampler`, which reports in this
module's shape and phase names.

Attribution is **exclusive** (self-time): a stack tracks the phase
nesting, and every moment between the first :meth:`~PhaseTimer.enter`
and the matching final :meth:`~PhaseTimer.exit` is charged to exactly
one phase — the innermost one active at the time.  Consequently the
per-phase totals sum to the measured span *exactly*.

Only ``time.perf_counter`` is read (pure elapsed time, lint rule CS3);
an injectable clock keeps the unit tests deterministic.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Mapping, Optional

from ..errors import SimulationError

#: canonical phase names: the simulator's (sampled) and the
#: orchestrator's (timed).
PHASE_SIM_LOOP = "sim_loop"
PHASE_TRACE_GEN = "trace_gen"
PHASE_L1_ACCESS = "l1_access"
PHASE_LLC_ACCESS = "llc_access"
PHASE_REPLACEMENT = "replacement"
PHASE_BACK_INVALIDATE = "back_invalidate"
PHASE_EXECUTE_JOB = "execute_job"
PHASE_ORCHESTRATE = "orchestrate_overhead"
PHASE_POOL_WAIT = "pool_wait"

SIMULATOR_PHASES = (
    PHASE_SIM_LOOP,
    PHASE_TRACE_GEN,
    PHASE_L1_ACCESS,
    PHASE_LLC_ACCESS,
    PHASE_REPLACEMENT,
    PHASE_BACK_INVALIDATE,
)

ORCHESTRATOR_PHASES = (
    PHASE_EXECUTE_JOB,
    PHASE_ORCHESTRATE,
    PHASE_POOL_WAIT,
)


class _PhaseContext:
    """Context-manager shim for cold call sites (``with timer.phase(..)``)."""

    __slots__ = ("_timer", "_name")

    def __init__(self, timer: "PhaseTimer", name: str) -> None:
        self._timer = timer
        self._name = name

    def __enter__(self) -> "PhaseTimer":
        self._timer.enter(self._name)
        return self._timer

    def __exit__(self, *exc_info) -> None:
        self._timer.exit()


class PhaseTimer:
    """Hierarchical exclusive-time profiler for named host phases."""

    __slots__ = ("totals", "counts", "_stack", "_mark", "_clock")

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        #: exclusive seconds attributed to each phase name.  Defaulting
        #: dicts keep the hot enter/exit transitions to plain indexed
        #: ``+=`` updates (no ``.get`` call per transition).
        self.totals: Dict[str, float] = defaultdict(float)
        #: times each phase was entered.
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[str] = []
        self._mark = 0.0
        self._clock = clock if clock is not None else time.perf_counter

    # -- the hot interface ---------------------------------------------------
    def enter(self, phase: str) -> None:
        """Push ``phase``; elapsed time since the last transition is
        charged to the phase that was innermost until now."""
        now = self._clock()
        stack = self._stack
        if stack:
            self.totals[stack[-1]] += now - self._mark
        stack.append(phase)
        self.counts[phase] += 1
        self._mark = now

    def exit(self) -> None:
        """Pop the innermost phase, charging it the time since the last
        transition; the enclosing phase resumes accumulating."""
        now = self._clock()
        stack = self._stack
        if not stack:
            raise SimulationError("PhaseTimer.exit() with no phase entered")
        self.totals[stack.pop()] += now - self._mark
        self._mark = now

    # -- cold conveniences ---------------------------------------------------
    def phase(self, name: str) -> _PhaseContext:
        """``with timer.phase("orchestrate_overhead"): ...`` for call
        sites that are not performance-critical themselves."""
        return _PhaseContext(self, name)

    @property
    def depth(self) -> int:
        """Current nesting depth (0 = no phase active)."""
        return len(self._stack)

    def report(self) -> Dict[str, Dict[str, float]]:
        """Compact picklable digest: ``{phase: {"s": .., "count": ..}}``.

        The shape survives JSON round-trips (worker pipes, the result
        cache's in-memory half, ``run-manifest.json``).
        """
        return {
            name: {"s": self.totals[name], "count": self.counts.get(name, 0)}
            for name in sorted(self.totals)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PhaseTimer phases={len(self.totals)} "
            f"total={sum(self.totals.values()):.3f}s>"
        )


def merge_phase_reports(
    reports: Iterable[Optional[Mapping[str, Mapping[str, float]]]],
) -> Dict[str, Dict[str, float]]:
    """Sum per-phase digests from many jobs/workers into one report.

    ``None`` entries (jobs that ran without a split) are skipped, so the
    caller can feed raw ``summary.host.get("phases")`` values straight in.
    """
    merged: Dict[str, Dict[str, float]] = {}
    for report in reports:
        if not report:
            continue
        for name, row in report.items():
            into = merged.setdefault(name, {"s": 0.0, "count": 0})
            into["s"] += float(row.get("s", 0.0))
            into["count"] += int(row.get("count", 0))
    return dict(sorted(merged.items()))
