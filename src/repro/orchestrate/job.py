"""Simulation jobs: the unit of work the orchestrator schedules.

A :class:`SimJob` is a fully-resolved, picklable description of one
(mix x hierarchy-variant) simulation — every default already applied,
so executing it needs no settings object, no environment and no shared
state.  :func:`job_key` derives the job's identity as a content hash;
it is *the* disk-memo key of :class:`repro.experiments.Runner`, which
is what lets the orchestrator deduplicate a sweep against the existing
``.repro-cache`` and lets a killed sweep resume from whatever jobs
already finished.

:func:`execute_job` is a module-level function (picklable under every
``multiprocessing`` start method) that runs the simulation and returns
a :class:`RunSummary`; the same function serves the serial fallback
and the worker processes, so parallel runs are byte-for-byte identical
to serial ones.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..config import TLAConfig, baseline_hierarchy, variant_sim_config
from ..cpu import CMPSimulator
from ..perf.sampler import PhaseSampler
from ..telemetry import TelemetryConfig, write_events_jsonl
from ..version import __version__
from ..workloads import WorkloadMix, mix_category

#: Bump when simulator behaviour changes to invalidate stale caches.
CACHE_SCHEMA = 6


@dataclass
class RunSummary:
    """The slice of a :class:`repro.cpu.SimResult` experiments consume."""

    mix: str
    apps: List[str]
    mode: str
    tla: str
    ipcs: List[float]
    llc_misses: int
    llc_accesses: int
    inclusion_victims: int
    traffic: Dict[str, int]
    max_cycles: float
    instructions: List[int]
    mpki: List[Dict[str, float]]
    #: serialised :class:`~repro.telemetry.IntervalSeries` (telemetry
    #: runs only; ``None`` keeps untraced cache entries byte-identical).
    intervals: Optional[Dict] = None
    #: compact tracer digest and per-core phase cycles (telemetry runs
    #: only); simulated output, so identical for every run of a job.
    telemetry: Optional[Dict] = None
    #: host-performance digest for the execution that produced this
    #: summary (wall and CPU seconds, simulated instructions/s, the
    #: traced event log's ``events_path``, optional phase report).
    #: Per-execution provenance, NOT simulated output: the
    #: result cache strips it before writing, so cache replays carry
    #: ``host=None`` and serial/parallel entries stay byte-identical.
    host: Optional[Dict] = None

    @property
    def throughput(self) -> float:
        return sum(self.ipcs)

    def interval_series(self):
        """Materialise the interval time series, or None."""
        if self.intervals is None:
            return None
        from ..telemetry import IntervalSeries

        return IntervalSeries.from_dict(self.intervals)


@dataclass(frozen=True)
class SimJob:
    """One schedulable simulation, with every knob resolved.

    ``quota``/``warmup``/``scale`` carry concrete values (no
    settings-dependent defaults) and ``tla_config`` is the resolved
    :class:`~repro.config.TLAConfig`, so two jobs are interchangeable
    exactly when their :func:`job_key` matches.
    """

    mix_name: str
    apps: Tuple[str, ...]
    mode: str = "inclusive"
    tla: str = "none"
    tla_config: TLAConfig = TLAConfig()
    llc_bytes: Optional[int] = None
    scale: float = 1.0
    quota: int = 100_000
    warmup: int = 0
    victim_cache_entries: int = 0
    #: telemetry knobs.  ``intervals`` is the collector window in
    #: cycles (0 = off); ``trace`` turns on event recording.  All
    #: default off so pre-telemetry job keys are unchanged.
    intervals: int = 0
    trace: bool = False
    trace_out: Optional[str] = None
    trace_sample: int = 1
    trace_categories: Tuple[str, ...] = ()
    #: sample the job with a :class:`~repro.perf.PhaseSampler` (phase
    #: report lands in ``RunSummary.host``).  Pure host-side
    #: observability — like ``trace_out`` it never joins the job key,
    #: because it cannot change simulated output.
    host_phases: bool = False

    @property
    def num_cores(self) -> int:
        return len(self.apps)

    def label(self) -> str:
        """Short human-readable identity for progress lines and logs."""
        return f"{self.mix_name}/{self.mode}/{self.tla}"

    @property
    def category(self) -> str:
        """Workload-category tag (``"CCF+LLCT"``-style, core-order
        free); journalled next to the job by the sweep manifest so
        :mod:`repro.eval` slices need no workload-name parsing."""
        return mix_category(self.apps)


def job_key(job: SimJob) -> str:
    """Content hash identifying a job == the runner's disk-memo key.

    The payload is serialised with ``sort_keys=True`` and contains only
    JSON scalars/containers, so the key is independent of dict insertion
    order, ``PYTHONHASHSEED`` and the computing process — a hard
    requirement for cross-process deduplication (asserted by
    ``tests/experiments/test_cache_key.py``).
    """
    fields = {
        "schema": CACHE_SCHEMA,
        "version": __version__,
        # keyed by app composition, not mix name, so a Table II
        # mix and the identical PAIR_* mix share one simulation
        "apps": job.apps,
        "mode": job.mode,
        "tla": job.tla,
        "tla_cfg": asdict(job.tla_config),
        "llc_bytes": job.llc_bytes,
        "scale": job.scale,
        "quota": job.quota,
        "warmup": job.warmup,
        "vc": job.victim_cache_entries,
    }
    # Telemetry knobs join the identity only when set, so untraced jobs
    # hash exactly as they did before telemetry existed (cache entries
    # and resumability survive).  ``trace_out`` is an output location,
    # not an identity: it never affects the key.
    if job.intervals:
        fields["intervals"] = job.intervals
    if job.trace:
        fields["trace"] = {
            "sample": job.trace_sample,
            "categories": sorted(job.trace_categories),
        }
    payload = json.dumps(fields, sort_keys=True, default=list)
    return hashlib.sha1(payload.encode()).hexdigest()


def execute_job(job: SimJob) -> RunSummary:
    """Run one job's simulation from scratch and summarise it.

    Deterministic: traces are seeded from the app/core identity, the
    machine is rebuilt from the job description, and nothing is read
    from the environment — the contract that makes worker-pool results
    interchangeable with serial ones.  ``host_phases`` runs the job
    under a sampler; off the main thread it cannot arm, and ``host``
    then carries no ``phases`` key.
    """
    # The sampler samples this block and splits job_wall_s, its span.
    with (PhaseSampler() if job.host_phases else nullcontext()) as sampler:
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        telemetry: Optional[TelemetryConfig] = None
        if job.trace or job.intervals:
            telemetry = TelemetryConfig(
                enabled=job.trace,
                out_dir=job.trace_out or "traces",
                sample=job.trace_sample,
                interval=job.intervals,
                categories=job.trace_categories,
            )
        mix = WorkloadMix(job.mix_name, job.apps)
        # Workload generators always size against the scaled 2-core
        # baseline, regardless of the simulated variant (Table I's
        # categories are baseline-relative).
        reference = baseline_hierarchy(2, scale=job.scale)
        config = variant_sim_config(
            num_cores=mix.num_cores,
            mode=job.mode,
            tla=job.tla_config,
            llc_bytes=job.llc_bytes,
            scale=job.scale,
            quota=job.quota,
            warmup=job.warmup,
            victim_cache_entries=job.victim_cache_entries,
        )
        simulator = CMPSimulator(config, mix.feeds(reference), telemetry=telemetry)
        result = simulator.run()
        # Host-side provenance (timings, where this execution wrote its
        # event log) goes in ``host``, which the result cache strips, so
        # two traced runs of one job store identical bytes.
        host: Dict = dict(result.host or {})
        summary = RunSummary(
            mix=mix.name,
            apps=list(mix.apps),
            mode=job.mode,
            tla=job.tla,
            ipcs=result.ipcs,
            llc_misses=result.total_llc_misses,
            llc_accesses=result.total_llc_accesses,
            inclusion_victims=result.total_inclusion_victims,
            traffic=dict(result.traffic),
            max_cycles=result.max_cycles,
            instructions=[core.instructions for core in result.cores],
            mpki=[
                {
                    "l1": core.mpki("l1"),
                    "l1i": core.mpki("l1i"),
                    "l1d": core.mpki("l1d"),
                    "l2": core.mpki("l2"),
                    "llc": core.mpki("llc"),
                }
                for core in result.cores
            ],
        )
        if result.intervals is not None:
            summary.intervals = result.intervals.to_dict()
        if telemetry is not None:
            digest: Dict = {
                "max_cycles": result.max_cycles,
                "core_phases": [
                    {
                        "core": core.core_id,
                        "warmup_cycles": core.cycles_at_warmup,
                        "quota_cycles": core.cycles_at_quota or core.cycles,
                    }
                    for core in simulator.cores
                ],
            }
            tracer = simulator.tracer
            if tracer is not None:
                digest.update(tracer.summary())
                if job.trace_out:
                    # Each worker writes its own job-key-named file, so
                    # parallel sweeps never contend on one event log.
                    path = write_events_jsonl(
                        Path(job.trace_out) / f"events-{job_key(job)}.jsonl",
                        tracer.events,
                    )
                    host["events_path"] = str(path)
            summary.telemetry = digest
        host["job_wall_s"] = time.perf_counter() - wall_start
        host["cpu_s"] = time.process_time() - cpu_start
    if sampler is not None:
        phases = sampler.report(result, host["job_wall_s"])
        if phases is not None:
            host["phases"] = phases
    summary.host = host
    return summary
