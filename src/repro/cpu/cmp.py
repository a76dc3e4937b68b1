"""Multi-core CMP simulator: interleaving, termination, results.

Cores are advanced one memory instruction at a time, always picking
the core that is earliest in simulated time, so contention at the
shared LLC unfolds in (approximate) global cycle order.  Per the
paper's methodology (Section IV.B), a core that finishes its
instruction quota keeps executing — and keeps competing for cache
space — until every core has finished; its statistics are frozen at
the quota boundary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from ..config import SimConfig
from ..errors import SimulationError
from ..hierarchy import BaseHierarchy, CoreAccessStats, build_hierarchy
from ..hierarchy.mshr import MSHRFile
from ..telemetry import (
    IntervalCollector,
    IntervalSeries,
    TelemetryConfig,
    Tracer,
)
from ..workloads.trace import TraceRecord
from .core import SimulatedCore


@dataclass(frozen=True)
class CoreResult:
    """Measured quantities for one core over its quota window."""

    core_id: int
    instructions: int
    cycles: float
    ipc: float
    stats: CoreAccessStats

    def mpki(self, level: str) -> float:
        return self.stats.mpki(level, self.instructions)


@dataclass
class SimResult:
    """Everything a finished CMP run produced."""

    config: SimConfig
    cores: List[CoreResult]
    traffic: Dict[str, int]
    total_inclusion_victims: int
    llc_stats: Dict[str, int]
    tla_name: str
    #: wall-clock of the slowest core's quota window, used for
    #: messages-per-kilo-cycle traffic rates.
    max_cycles: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)
    #: fixed-window telemetry time series (None unless the run had
    #: telemetry configured; see :mod:`repro.telemetry.intervals`).
    intervals: Optional[IntervalSeries] = None
    #: host-side performance digest (wall seconds, executed records
    #: and instructions, simulated-work rates).  Pure provenance about
    #: *this execution of the simulator* — never part of the simulated
    #: output, never written to the result cache.
    host: Optional[Dict[str, object]] = None

    @property
    def ipcs(self) -> List[float]:
        return [core.ipc for core in self.cores]

    @property
    def throughput(self) -> float:
        """Sum-of-IPCs throughput metric (paper footnote 5)."""
        return sum(self.ipcs)

    @property
    def total_llc_misses(self) -> int:
        return sum(core.stats.llc_misses for core in self.cores)

    @property
    def total_llc_accesses(self) -> int:
        return sum(core.stats.llc_accesses for core in self.cores)

    @property
    def total_instructions(self) -> int:
        return sum(core.instructions for core in self.cores)


class CMPSimulator:
    """Drive N trace streams through one shared hierarchy."""

    def __init__(
        self,
        config: SimConfig,
        traces: Sequence[Iterator[TraceRecord]],
        hierarchy: Optional[BaseHierarchy] = None,
        telemetry: Optional[TelemetryConfig] = None,
    ) -> None:
        if len(traces) != config.hierarchy.num_cores:
            raise SimulationError(
                f"{config.hierarchy.num_cores} cores need "
                f"{config.hierarchy.num_cores} traces, got {len(traces)}"
            )
        self.config = config
        self.hierarchy = hierarchy or build_hierarchy(config.hierarchy)
        self.mshr = MSHRFile(config.timing.mshr_entries)
        if self.hierarchy.sanitizer is not None:
            self.hierarchy.sanitizer.register_mshr(self.mshr)
        self.cores = [
            SimulatedCore(core_id, trace, self.hierarchy, config, self.mshr)
            for core_id, trace in enumerate(traces)
        ]
        # Probes attach to the hierarchy, one slot per kind: a tracer
        # on the hierarchy/MSHR hook sites (event tracing) and an
        # interval collector the cores tick (time series).  Inactive
        # telemetry installs nothing, so the cores stay on their bare
        # loops; attaching never changes simulated statistics.
        self.tracer: Optional[Tracer] = None
        if telemetry is not None and telemetry.active:
            if telemetry.enabled:
                self.tracer = Tracer(
                    categories=telemetry.categories,
                    sample=telemetry.sample,
                    max_events=telemetry.max_events,
                )
                self.hierarchy.tracer = self.tracer
                self.mshr.tracer = self.tracer
            self.hierarchy.collector = IntervalCollector(
                self.hierarchy, telemetry.effective_interval
            )

    def run(self) -> SimResult:
        """Run until every core completes its quota; returns results.

        Each core is advanced through one burst driver for the whole
        run (``SimulatedCore.burst_driver``: the bare loop, or the
        probed loop when a sanitizer, telemetry or a prefetcher is
        attached), resumed once per burst.  An attached sanitizer scans
        once more after the last access.
        """
        # ``active`` cores still have trace left to execute; ``remaining``
        # counts cores that have not yet finished their quota.  Cores
        # past their quota stay active so they keep competing for the
        # shared LLC until everyone is done (Section IV.B).
        #
        # The earliest-in-time core is advanced a small burst of
        # records before re-electing, which amortises the selection
        # cost; a burst spans a few tens of cycles, far below any
        # contention timescale that matters.
        active = list(self.cores)
        remaining = sum(1 for core in self.cores if not core.done)
        burst = 8
        steps = 0
        wall_start = time.perf_counter()
        # One burst driver per core for the whole run (its bare or its
        # probed loop; see ``SimulatedCore.burst_driver``).  Held only
        # here, so no core <-> generator cycle outlives it.
        drivers = {core: core.burst_driver(burst) for core in self.cores}
        try:
            while remaining:
                # Earliest-in-time election; the unrolled one- and
                # two-core forms pick the same core ``min`` would (first
                # on ties) without the key-function call or the
                # ``cycles`` property.
                n_active = len(active)
                if n_active == 1:
                    core = active[0]
                elif n_active == 2:
                    core, other = active
                    if other.timing.cycles < core.timing.cycles:
                        core = other
                else:
                    core = min(active, key=_core_clock)
                executed, transitioned, exhausted = drivers[core].send(
                    remaining == 1
                )
                steps += executed
                if transitioned:
                    remaining -= 1
                if exhausted:
                    active.remove(core)
                    if not active and remaining:
                        raise SimulationError(
                            "all traces exhausted before every quota was met"
                        )
        finally:
            for driver in drivers.values():
                driver.close()
        if self.hierarchy.sanitizer is not None:
            self.hierarchy.sanitizer.run()
        result = self._collect()
        result.host = self._host_digest(
            time.perf_counter() - wall_start, steps
        )
        return result

    def _host_digest(self, wall_s: float, steps: int) -> Dict[str, object]:
        """Build the host-performance digest for this execution."""
        instructions = sum(core.instructions for core in self.cores)
        return {
            "wall_s": wall_s,
            "accesses": steps,
            "instructions": instructions,
            "instructions_per_s": instructions / wall_s if wall_s > 0 else 0.0,
            "accesses_per_s": steps / wall_s if wall_s > 0 else 0.0,
        }

    def _collect(self) -> SimResult:
        core_results: List[CoreResult] = []
        for core in self.cores:
            core_results.append(
                CoreResult(
                    core_id=core.core_id,
                    instructions=core.measured_instructions(),
                    cycles=core.cycles_at_quota or core.cycles,
                    ipc=core.ipc(),
                    stats=self.hierarchy.core_stats[core.core_id],
                )
            )
        max_cycles = max(result.cycles for result in core_results)
        intervals: Optional[IntervalSeries] = None
        if self.hierarchy.collector is not None:
            intervals = self.hierarchy.collector.finalize(max_cycles)
        return SimResult(
            config=self.config,
            cores=core_results,
            traffic=self.hierarchy.traffic.snapshot(),
            total_inclusion_victims=self.hierarchy.total_inclusion_victims,
            llc_stats=self.hierarchy.llc.stats.snapshot(),
            tla_name=self.hierarchy.tla.name,
            max_cycles=max_cycles,
            intervals=intervals,
        )


def _core_clock(core: SimulatedCore) -> float:
    return core.timing.cycles


def run_simulation(
    config: SimConfig,
    traces: Sequence[Iterator[TraceRecord]],
    telemetry: Optional[TelemetryConfig] = None,
) -> SimResult:
    """One-shot convenience wrapper around :class:`CMPSimulator`."""
    return CMPSimulator(config, traces, telemetry=telemetry).run()
