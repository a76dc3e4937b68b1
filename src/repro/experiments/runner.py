"""Shared run machinery for the experiment drivers.

A :class:`Runner` executes (mix, hierarchy-variant) simulations and
memoises results both in memory and on disk, so a figure driver that
shares its baseline runs with another driver — or a re-invoked
benchmark — pays for each simulation exactly once.  Batch submissions
(:meth:`Runner.run_many`) go through :class:`repro.orchestrate.
Orchestrator`, which deduplicates against the same cache and fans the
remaining jobs out over ``settings.jobs`` worker processes.

Scaling: the paper simulates 250 M instructions per benchmark on a
2 MB-LLC machine.  Python cannot afford that per (mix x policy x
figure), so experiments default to a machine scaled by
``ExperimentSettings.scale`` with working sets scaled identically
(see :func:`repro.config.scale_hierarchy`), preserving every capacity
ratio the paper's effects depend on, and to a few hundred thousand
instructions per core with an explicit warm-up window replacing the
paper's cold-start amortisation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional

from ..config import TLAConfig, baseline_hierarchy, env_flag, tla_preset
from ..errors import ExperimentError
from ..orchestrate import (
    Orchestrator,
    ResultCache,
    RunSummary,
    SimJob,
    SweepManifest,
    execute_job,
    job_key,
)
from ..perf import PhaseTimer
from ..sanitize import env_override
from ..telemetry import TelemetryConfig
from ..workloads import WorkloadMix, all_two_core_mixes

__all__ = [
    "ExperimentSettings",
    "Runner",
    "RunSummary",
    "build_job",
    "cache_key",
]


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs controlling experiment fidelity vs runtime.

    Environment overrides: ``REPRO_SCALE``, ``REPRO_QUOTA``,
    ``REPRO_WARMUP``, ``REPRO_SAMPLE``, ``REPRO_CACHE_DIR``,
    ``REPRO_FULL=1`` (every 105-mix aggregate instead of a sample),
    ``REPRO_JOBS`` (worker processes for batch submissions; 1 =
    serial), ``REPRO_JOB_TIMEOUT`` (seconds per job before a
    worker is killed and the job retried) and ``REPRO_HOST_PHASES=1``
    (host phase timers on every job; see :mod:`repro.perf`).
    """

    scale: float = 0.0625
    quota: int = 300_000
    warmup: int = 150_000
    #: how many of the 105 two-core mixes the "All" aggregates use.
    sample: int = 24
    full: bool = False
    cache_dir: Optional[str] = ".repro-cache"
    #: worker processes for ``Runner.run_many``; 1 runs in-process
    #: on the serial executor, more on the local worker pool.
    jobs: int = 1
    #: per-job timeout in seconds (parallel runs only); None = none.
    job_timeout: Optional[float] = None
    #: telemetry knobs (event tracing / interval series); default off
    #: so settings-driven runs take the exact pre-telemetry path.
    telemetry: TelemetryConfig = TelemetryConfig()
    #: sample every job's host-phase split (``REPRO_HOST_PHASES=1`` or
    #: ``--host-phases``) and time the sweep's phases; pure host
    #: observability, never part of job identity, default off.
    host_phases: bool = False

    @classmethod
    def from_env(cls) -> "ExperimentSettings":
        env = os.environ
        full = env_flag("REPRO_FULL", False)
        # REPRO_SANITIZE is read again as each job builds its hierarchy;
        # parsing it here makes a malformed value fail before any job.
        env_override(False)
        timeout = env.get("REPRO_JOB_TIMEOUT", "")
        return cls(
            scale=float(env.get("REPRO_SCALE", 0.0625)),
            quota=int(env.get("REPRO_QUOTA", 600_000 if full else 300_000)),
            warmup=int(env.get("REPRO_WARMUP", 300_000 if full else 150_000)),
            sample=int(env.get("REPRO_SAMPLE", 105 if full else 24)),
            full=full,
            cache_dir=env.get("REPRO_CACHE_DIR", ".repro-cache"),
            jobs=int(env.get("REPRO_JOBS", 1)),
            job_timeout=float(timeout) if timeout else None,
            telemetry=TelemetryConfig.from_env(),
            host_phases=env_flag("REPRO_HOST_PHASES", False),
        )


def cache_key(
    settings: ExperimentSettings,
    mix: WorkloadMix,
    mode: str = "inclusive",
    tla: str = "none",
    llc_bytes: Optional[int] = None,
    tla_config: Optional[TLAConfig] = None,
    quota: Optional[int] = None,
    warmup: Optional[int] = None,
    victim_cache_entries: int = 0,
    intervals: Optional[int] = None,
) -> str:
    """The disk-memo key of one run, computable in any process.

    Thin wrapper over :func:`repro.orchestrate.job_key` — job keys and
    runner cache keys are the same hash by construction, which is what
    lets the orchestrator dedup a sweep against ``.repro-cache``.  The
    key must not depend on dict ordering, hash randomisation or the
    environment (see ``tests/experiments/test_cache_key.py``).
    """
    return job_key(
        build_job(
            settings, mix, mode, tla, llc_bytes, tla_config, quota, warmup,
            victim_cache_entries, intervals,
        )
    )


def build_job(
    settings: ExperimentSettings,
    mix: WorkloadMix,
    mode: str = "inclusive",
    tla: str = "none",
    llc_bytes: Optional[int] = None,
    tla_config: Optional[TLAConfig] = None,
    quota: Optional[int] = None,
    warmup: Optional[int] = None,
    victim_cache_entries: int = 0,
    intervals: Optional[int] = None,
) -> SimJob:
    """Resolve a run request against ``settings`` into a ``SimJob``.

    ``intervals`` (a collector window in cycles) can be requested per
    run — drivers that consume interval series, like the traffic
    study, ask for it explicitly — and otherwise follows the settings'
    telemetry config.
    """
    telemetry = settings.telemetry
    return SimJob(
        mix_name=mix.name,
        apps=tuple(mix.apps),
        mode=mode,
        tla=tla,
        tla_config=tla_config if tla_config is not None else tla_preset(tla),
        llc_bytes=llc_bytes,
        scale=settings.scale,
        quota=quota if quota is not None else settings.quota,
        warmup=warmup if warmup is not None else settings.warmup,
        victim_cache_entries=victim_cache_entries,
        intervals=intervals if intervals is not None else telemetry.interval,
        trace=telemetry.enabled,
        trace_out=telemetry.out_dir if telemetry.enabled else None,
        trace_sample=telemetry.sample,
        trace_categories=telemetry.categories,
        host_phases=settings.host_phases,
    )


class Runner:
    """Executes and caches (mix x machine-variant) simulations."""

    #: manifest filename inside the cache directory (resume journal).
    MANIFEST_NAME = "sweep-manifest.jsonl"

    def __init__(
        self,
        settings: Optional[ExperimentSettings] = None,
        reporter=None,
        telemetry=None,
    ) -> None:
        self.settings = settings or ExperimentSettings.from_env()
        #: reference machine the workload generators size against —
        #: always the scaled 2-core baseline, regardless of the
        #: simulated variant (Table I's categories are baseline-relative).
        self.reference = baseline_hierarchy(2, scale=self.settings.scale)
        self.cache = ResultCache(self.settings.cache_dir)
        #: progress sink handed to the orchestrator on batch runs
        #: (anything with start/update/finish, e.g.
        #: :class:`repro.metrics.ProgressReporter`).
        self.reporter = reporter
        #: optional :class:`repro.telemetry.RunTelemetry` receiving
        #: per-run provenance from both the serial and batch paths.
        self.telemetry = telemetry
        #: sweep-level host phase timer (orchestrate_overhead /
        #: execute_job / pool_wait); constructed only when the
        #: settings opt in, so default runs keep every hook dormant.
        self.phase_timer: Optional[PhaseTimer] = (
            PhaseTimer() if self.settings.host_phases else None
        )
        #: host digests from every job this runner executed (serial
        #: and batch paths); cache hits contribute nothing.
        self.host_digests: List[dict] = []

    # -- the workhorse ---------------------------------------------------------
    def run(
        self,
        mix: WorkloadMix,
        mode: str = "inclusive",
        tla: str = "none",
        llc_bytes: Optional[int] = None,
        tla_config: Optional[TLAConfig] = None,
        quota: Optional[int] = None,
        warmup: Optional[int] = None,
        victim_cache_entries: int = 0,
        intervals: Optional[int] = None,
    ) -> RunSummary:
        """Simulate ``mix`` on one machine variant (cached).

        ``tla`` names a preset from :data:`repro.config.TLA_PRESETS`;
        pass ``tla_config`` instead for non-preset variants (query
        limits, hint sampling) together with a unique ``tla`` label.
        ``intervals`` requests a fixed-window telemetry time series on
        the summary (the window in cycles); interval runs cache under
        their own key, so they never shadow plain runs.
        """
        job = build_job(
            self.settings, mix, mode, tla, llc_bytes, tla_config, quota,
            warmup, victim_cache_entries, intervals,
        )
        key = job_key(job)
        cached = self.cache.load(key)
        if cached is not None:
            if self.telemetry is not None:
                self.telemetry.note_cached(key, job.label())
            return cached
        start = self.telemetry.now() if self.telemetry is not None else 0.0
        summary = execute_job(job)
        self.cache.store(key, summary)
        if summary.host:
            self.host_digests.append(summary.host)
        if self.telemetry is not None:
            self.telemetry.note_executed(
                key,
                job.label(),
                "done",
                attempts=1,
                start=start,
                end=self.telemetry.now(),
                telemetry=summary.telemetry,
                host=summary.host,
            )
        return summary

    def run_many(
        self,
        requests: Iterable[Mapping],
        jobs: Optional[int] = None,
    ) -> List[RunSummary]:
        """Execute a batch of run requests, in parallel when configured.

        Each request is a mapping with a ``mix`` entry plus any of
        :meth:`run`'s keyword arguments.  Duplicate requests (and
        requests already satisfied by the cache) cost nothing; the
        rest are fanned out over ``jobs`` worker processes (default
        ``settings.jobs``; 1 executes in-process).  Results come back
        aligned with the request order and are stored in the same
        cache :meth:`run` uses, so drivers can batch first and then
        read individual runs for free.
        """
        sim_jobs = []
        for request in requests:
            request = dict(request)
            try:
                mix = request.pop("mix")
            except KeyError:
                raise ExperimentError(
                    "run_many request needs a 'mix' entry"
                ) from None
            sim_jobs.append(build_job(self.settings, mix, **request))
        orchestrator = Orchestrator(
            jobs=jobs if jobs is not None else self.settings.jobs,
            cache=self.cache,
            manifest=self._manifest(),
            timeout=self.settings.job_timeout,
            reporter=self.reporter,
            telemetry=self.telemetry,
            phase_timer=self.phase_timer,
        )
        results = orchestrator.run(sim_jobs)
        self.host_digests.extend(orchestrator.host_digests)
        return [results[job_key(job)] for job in sim_jobs]

    def _manifest(self) -> Optional[SweepManifest]:
        if self.cache.directory is None:
            return None
        return SweepManifest(self.cache.directory / self.MANIFEST_NAME)

    # -- derived measurements -----------------------------------------------------
    def normalized_throughput(
        self,
        mix: WorkloadMix,
        mode: str = "inclusive",
        tla: str = "none",
        base_mode: str = "inclusive",
        base_tla: str = "none",
        llc_bytes: Optional[int] = None,
        tla_config: Optional[TLAConfig] = None,
    ) -> float:
        """Throughput of a variant relative to a baseline on the same mix."""
        variant = self.run(mix, mode, tla, llc_bytes, tla_config)
        baseline = self.run(mix, base_mode, base_tla, llc_bytes)
        if baseline.throughput <= 0:
            raise ExperimentError(f"degenerate baseline for {mix.name}")
        return variant.throughput / baseline.throughput

    def miss_reduction(
        self,
        mix: WorkloadMix,
        mode: str = "inclusive",
        tla: str = "none",
        llc_bytes: Optional[int] = None,
        tla_config: Optional[TLAConfig] = None,
    ) -> float:
        """Fractional LLC-miss reduction vs the inclusive baseline."""
        variant = self.run(mix, mode, tla, llc_bytes, tla_config)
        baseline = self.run(mix, "inclusive", "none", llc_bytes)
        if baseline.llc_misses == 0:
            return 0.0
        return (baseline.llc_misses - variant.llc_misses) / baseline.llc_misses

    def sample_mixes(self, count: Optional[int] = None) -> List[WorkloadMix]:
        """A deterministic, category-stratified sample of the 105 pairs.

        Used for the "All(105)" aggregates when a full sweep is too
        slow; ``REPRO_FULL=1`` returns all 105.
        """
        mixes = all_two_core_mixes()
        count = count if count is not None else self.settings.sample
        if count >= len(mixes):
            return mixes
        # Stride through the (category-ordered) list for coverage.
        stride = len(mixes) / count
        return [mixes[int(i * stride)] for i in range(count)]
