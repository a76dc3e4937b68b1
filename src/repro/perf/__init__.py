"""Host-side performance observability: phase split, bench trajectory.

Where :mod:`repro.telemetry` observes the *simulated machine*, this
package observes the *simulator* — the Python process doing the work:

* :class:`PhaseSampler` — a CPU-time stack sampler: the simulator's
  phase split (trace generation, core loop, L1, LLC miss path,
  replacement, back-invalidation) and the ``profile`` CLI's stacks;
* :class:`PhaseTimer` — exclusive wall-time attribution of the host
  phases around the simulator (job execution, orchestration overhead,
  pool wait);
* the pinned benchmark suite (:mod:`repro.perf.scenarios`) and runner
  (:mod:`repro.perf.bench`) producing schema-validated
  ``BENCH_<n>.json`` trajectory points, plus the noise-tolerant
  regression gate (:mod:`repro.perf.compare`) CI runs against the
  checked-in seed baseline.

Run ``python -m repro.perf bench | compare | profile | validate``.

This ``__init__`` deliberately imports only the dependency-light
modules; :mod:`.bench` pulls in the simulator and is imported lazily
by the CLI, and the sampler imports the simulator only when it first
builds its phase table.
"""

from .compare import Comparison, ScenarioDelta, compare_benches
from .phase import (
    ORCHESTRATOR_PHASES,
    PHASE_BACK_INVALIDATE,
    PHASE_EXECUTE_JOB,
    PHASE_L1_ACCESS,
    PHASE_LLC_ACCESS,
    PHASE_ORCHESTRATE,
    PHASE_POOL_WAIT,
    PHASE_REPLACEMENT,
    PHASE_SIM_LOOP,
    PHASE_TRACE_GEN,
    SIMULATOR_PHASES,
    PhaseTimer,
    merge_phase_reports,
)
from .report import format_host_report, format_phase_report, format_rate
from .sampler import PhaseSampler
from .schema import BENCH_SCHEMA, BENCH_SCHEMA_VERSION, validate_bench

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_SCHEMA_VERSION",
    "Comparison",
    "ORCHESTRATOR_PHASES",
    "PHASE_BACK_INVALIDATE",
    "PHASE_EXECUTE_JOB",
    "PHASE_L1_ACCESS",
    "PHASE_LLC_ACCESS",
    "PHASE_ORCHESTRATE",
    "PHASE_POOL_WAIT",
    "PHASE_REPLACEMENT",
    "PHASE_SIM_LOOP",
    "PHASE_TRACE_GEN",
    "PhaseSampler",
    "PhaseTimer",
    "ScenarioDelta",
    "SIMULATOR_PHASES",
    "compare_benches",
    "format_host_report",
    "format_phase_report",
    "format_rate",
    "merge_phase_reports",
    "validate_bench",
]
