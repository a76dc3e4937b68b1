"""The job broker: one shared execution engine behind all HTTP clients.

The broker is the service's only owner of compute: a single
:class:`~repro.orchestrate.Executor` backend — serial (inline on the
broker thread) or the local worker pool, selected by
``config.executor`` — and a single process-wide
:class:`~repro.orchestrate.ResultCache`.  Every sweep
any client
submits is decomposed into :class:`~repro.orchestrate.SimJob` entries
keyed by :func:`~repro.orchestrate.job_key`, and the key is the whole
dedup contract, applied in three tiers:

1. **memoization** — a key already in the result cache is served
   instantly (this is also cross-restart and CLI-shared: the service
   reads the same ``.repro-cache`` the CLI writes);
2. **in-flight coalescing** — a key currently queued or running gains
   an extra subscriber instead of a second execution, so two clients
   submitting the same sweep concurrently cost one execution;
3. **in-sweep dedup** — duplicate jobs within one submission collapse
   before admission.

Admission control is all-or-nothing per sweep: a bounded global queue
(429 backpressure) plus per-tenant budgets on queued jobs and queued
simulated instructions.  Coalesced and cached jobs are free — they
occupy no queue slot and charge no quota.

The broker does not schedule: its thread steps the orchestrator's
:class:`~repro.orchestrate.scheduler.Dispatcher` (dispatch, poll,
retry with backoff, degrade to serial), the loop ``Orchestrator.run``
steps for a CLI batch, for the life of the service.  The broker keeps
only its own concerns, as the dispatcher's callbacks: admission,
quotas, coalescing, cancellation, sweep events, spans and metrics.

Threading model: HTTP handler threads only touch broker state under
``self._lock`` (submit / snapshot / cancel / event waits); new entries
reach the dispatcher through its any-thread ``submit``.  The broker
thread alone steps the dispatcher and so owns the executor: worker
pipes never see concurrent access from this process.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional

from ..errors import (
    QueueFullError,
    QuotaExceededError,
    SweepSpecError,
)
from ..metrics.throughput import HOST_ZERO, fold_host, host_summary
from ..obs import MetricsRegistry, SpanBook, new_trace_id
from ..obs.tracing import Span
from ..orchestrate import (
    ResultCache,
    RunSummary,
    SimJob,
    SweepManifest,
    compact_host,
    execute_job,
    job_key,
)
from ..orchestrate.executor import (
    Executor,
    SerialExecutor,
    resolve_executor,
)
from ..orchestrate.scheduler import Dispatcher
from ..perf import PHASE_ORCHESTRATE, PhaseTimer
from ..telemetry import get_logger
from .config import ServiceConfig

log = get_logger("repro.service")

#: per-job states a sweep reports.  ``cached`` and ``coalesced`` are
#: admission outcomes (no execution charged to this sweep); the rest
#: mirror the orchestrator's lifecycle.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"
JOB_CACHED = "cached"

#: sweep-level states derived from the per-job ones.
SWEEP_RUNNING = "running"
SWEEP_DONE = "done"
SWEEP_FAILED = "failed"
SWEEP_CANCELLED = "cancelled"

_TERMINAL = frozenset({JOB_DONE, JOB_FAILED, JOB_CANCELLED, JOB_CACHED})

#: bump when the /v1/metrics payload shape changes.  v2 adds the
#: ``limits`` section and the labeled ``metrics`` registry dump; v3
#: adds the ``executor`` liveness section; v4 narrows it to backend,
#: workers, busy and respawns.
METRICS_SCHEMA = 4


class _Entry:
    """One unique admitted job plus everyone waiting on it."""

    __slots__ = (
        "key", "job", "tenant", "attempts", "state", "sweeps", "trace_id",
        "parent_span", "enqueued", "dispatched", "exec_span",
    )

    def __init__(self, key: str, job: SimJob, tenant: str) -> None:
        self.key = key
        self.job = job
        self.tenant = tenant  # the tenant whose quota holds the slot
        self.attempts = 0  # mirrors the dispatcher's count
        self.state = JOB_QUEUED
        self.sweeps: List["Sweep"] = []
        #: trace context (repro.obs): the submitting sweep's trace —
        #: first submitter wins for coalesced entries — plus the
        #: admission span the queue/execute spans nest under.
        self.trace_id: Optional[str] = None
        self.parent_span: Optional[str] = None
        self.enqueued = 0.0  # span-book time the entry (re)entered the queue
        self.dispatched = 0.0  # perf_counter at dispatch (exec latency)
        self.exec_span: Optional[Span] = None

    @property
    def instructions(self) -> int:
        """Simulated instructions this job will cost (quota budget unit)."""
        return self.job.quota * len(self.job.apps)


class Sweep:
    """One client submission: job statuses plus an NDJSON event feed."""

    def __init__(
        self,
        sweep_id: str,
        tenant: str,
        keys: List[str],
        trace_id: Optional[str] = None,
    ) -> None:
        self.id = sweep_id
        self.tenant = tenant
        self.keys = keys  # unique, submission order
        self.trace_id = trace_id
        self.labels: Dict[str, str] = {}
        self.statuses: Dict[str, str] = {}
        self.errors: Dict[str, str] = {}
        self.events: List[Dict[str, Any]] = []
        self.created = time.perf_counter()
        self.cancel_requested = False
        #: span export state (repro.obs): the sweep's span tree hangs
        #: off ``root_span`` (the HTTP ingress span, else admission) and
        #: is exported once the sweep is terminal and ``request_open``
        #: is off, i.e. the submitting request has ended its span.
        self.root_span: Optional[str] = None
        self.request_open = False
        self.spans_exported = False

    @property
    def state(self) -> str:
        if any(s not in _TERMINAL for s in self.statuses.values()):
            return SWEEP_RUNNING
        if any(s == JOB_FAILED for s in self.statuses.values()):
            return SWEEP_FAILED
        if any(s == JOB_CANCELLED for s in self.statuses.values()):
            return SWEEP_CANCELLED
        return SWEEP_DONE

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for status in self.statuses.values():
            counts[status] = counts.get(status, 0) + 1
        return counts

    def snapshot(self) -> Dict[str, Any]:
        """The GET /v1/sweeps/{id} body."""
        return {
            "id": self.id,
            "tenant": self.tenant,
            "state": self.state,
            **({"trace_id": self.trace_id} if self.trace_id else {}),
            "total": len(self.keys),
            "counts": self.counts(),
            "age_s": time.perf_counter() - self.created,
            "jobs": [
                {
                    "key": key,
                    "label": self.labels.get(key, ""),
                    "status": self.statuses[key],
                    **(
                        {"error": self.errors[key]}
                        if key in self.errors
                        else {}
                    ),
                }
                for key in self.keys
            ],
        }


class JobBroker:
    """Shared executor/cache behind the HTTP API."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        cache: Optional[ResultCache] = None,
        execute: Callable[[SimJob], RunSummary] = execute_job,
        key_fn: Callable[[SimJob], str] = job_key,
    ) -> None:
        self.config = config or ServiceConfig.from_env()
        self.cache = (
            cache if cache is not None else ResultCache(self.config.cache_dir)
        )
        self.execute = execute
        self.key_fn = key_fn
        self.manifest: Optional[SweepManifest] = None
        if self.cache.directory is not None:
            self.manifest = SweepManifest(
                self.cache.directory / "sweep-manifest.jsonl"
            )
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._inflight: Dict[str, _Entry] = {}  # queued + running
        self._sweeps: Dict[str, Sweep] = {}
        self._tenant_jobs: Dict[str, int] = {}
        self._tenant_instr: Dict[str, int] = {}
        #: executed jobs' host digests, folded in completion order.
        self._host_totals = HOST_ZERO
        #: broker-thread time attribution (pool_wait vs execute_job vs
        #: orchestrate bookkeeping), surfaced on /v1/metrics.
        self.phase_timer = PhaseTimer()
        #: the labeled registry (repro.obs): the only place a service
        #: count lives.  Both /v1/metrics views render it, and the JSON
        #: ``jobs`` and ``requests`` sections are sums over its series.
        self.registry = MetricsRegistry()
        self._build_instruments()
        #: span recorder; a disabled book (``tracing=False``) makes
        #: every tracing hook below a no-op.
        self.spans = SpanBook(
            enabled=self.config.tracing, max_spans=self.config.max_spans
        )
        self._spans_dir = (
            self.cache.directory / "obs"
            if self.cache.directory is not None
            else None
        )
        #: serialises a sweep's export against ``/trace`` reads, so a
        #: reader never sees it between the book and its file.
        self._export_lock = threading.Lock()
        #: the scheduling loop, stepped by the broker thread.  Its
        #: backend is built in :meth:`start` from ``config.executor``
        #: (serial / pool), degraded to :class:`SerialExecutor`
        #: when it cannot be built or loses too many workers.
        self._dispatcher = Dispatcher(
            None,
            execute,
            on_dispatch=self._on_dispatch,
            on_done=self._complete,
            on_retry=self._on_retry,
            on_fail=self._fail,
            on_requeue=self._on_requeue,
            retries=self.config.retries,
            backoff=self.config.backoff,
            phase_timer=self.phase_timer,
            sleep=self._idle,
        )
        #: last-synced respawn count per backend, so the registry's
        #: monotonic counter only receives deltas.
        self._respawns_seen: Dict[str, int] = {}
        self._queued_count = 0
        self._running_count = 0
        self._sweep_seq = 0
        self._started_at = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _build_instruments(self) -> None:
        """Declare every broker metric once, up front — the exposition
        then always lists the full families, idle tenants aside."""
        reg = self.registry
        self.m_http = reg.counter(
            "repro_http_requests_total",
            "HTTP requests served, by route, status and tenant.",
            ["route", "status", "tenant"],
        )
        self.m_http_latency = reg.histogram(
            "repro_http_request_seconds",
            "HTTP request service time, by route.",
            ["route"],
        )
        self.m_admitted = reg.counter(
            "repro_jobs_admitted_total",
            "Per-job admission outcomes (queued/cached/coalesced/deduped).",
            ["tenant", "outcome"],
        )
        self.m_rejects = reg.counter(
            "repro_admission_rejects_total",
            "Whole-sweep admission refusals, by reason.",
            ["tenant", "reason"],
        )
        self.m_completed = reg.counter(
            "repro_jobs_completed_total",
            "Terminal job outcomes, by tenant.",
            ["tenant", "status"],
        )
        self.m_retries = reg.counter(
            "repro_job_retries_total",
            "Job attempts that failed and were re-queued.",
            ["tenant"],
        )
        self.m_queue_wait = reg.histogram(
            "repro_queue_wait_seconds",
            "Time from admission to dispatch, by tenant.",
            ["tenant"],
        )
        self.m_exec = reg.histogram(
            "repro_job_exec_seconds",
            "Job execution wall time, by tenant.",
            ["tenant"],
        )
        self.g_queue_depth = reg.gauge(
            "repro_queue_depth", "Jobs admitted but not yet dispatched."
        )
        self.g_running = reg.gauge(
            "repro_jobs_running", "Jobs currently executing."
        )
        self.g_workers = reg.gauge(
            "repro_workers", "Worker processes in the pool."
        )
        self.g_workers_busy = reg.gauge(
            "repro_workers_busy", "Worker processes currently executing."
        )
        self.g_executor_workers = reg.gauge(
            "repro_executor_workers",
            "Live workers, labeled by execution backend.",
            ["backend"],
        )
        self.m_worker_respawns = reg.counter(
            "repro_worker_respawns_total",
            "Unplanned worker deaths that forced a respawn.",
            ["backend"],
        )

    # -- lifecycle -------------------------------------------------------------
    def _make_executor(self) -> Executor:
        """Build the configured backend, degrading to serial on any
        construction failure (no subprocesses available) — a service
        must boot and serve even when its preferred backend cannot."""
        cfg = self.config
        kind = cfg.executor
        if kind == "auto":
            kind = "serial" if cfg.workers == 0 else "pool"
        try:
            return resolve_executor(
                kind,
                max(1, cfg.workers),
                self.execute,
                timeout=cfg.job_timeout,
            )
        except Exception as exc:  # noqa: BLE001 — degrade, don't die
            log.warning("executor_unavailable", backend=kind, error=str(exc))
            return SerialExecutor(self.execute)

    def start(self) -> "JobBroker":
        """Build the executor (best effort) and spawn the broker thread."""
        self._started_at = time.perf_counter()
        executor = self._dispatcher.executor = self._make_executor()
        self.phase_timer.enter(PHASE_ORCHESTRATE)
        self._thread = threading.Thread(
            target=self._loop, name="repro-service-broker", daemon=True
        )
        self._thread.start()
        log.info(
            "broker_started",
            backend=executor.name,
            workers=executor.size,
            cache_dir=str(self.cache.directory),
        )
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        with self._cond:
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        if self._dispatcher.executor is not None:
            self._dispatcher.executor.close()
            self._dispatcher.executor = None

    # -- client-facing API (handler threads) -----------------------------------
    def submit(
        self,
        jobs: List[SimJob],
        tenant: str = "public",
        trace_id: Optional[str] = None,
        parent_span: Optional[str] = None,
    ) -> Sweep:
        """Admit a sweep (all-or-nothing) and return its tracking state.

        ``trace_id``/``parent_span`` carry the caller's request trace
        (HTTP ingress); with tracing on and no caller trace, the sweep
        mints its own, so direct broker use traces too.

        Raises :class:`SweepSpecError` for an oversized/empty sweep,
        :class:`QueueFullError` / :class:`QuotaExceededError` when
        admission control refuses the *new* (non-cached, non-coalesced)
        portion of the sweep.
        """
        if not jobs:
            raise SweepSpecError("sweep has no jobs")
        if len(jobs) > self.config.max_sweep_jobs:
            raise SweepSpecError(
                f"sweep expands to {len(jobs)} jobs; the service accepts "
                f"at most {self.config.max_sweep_jobs} per submission"
            )
        if trace_id is None and self.spans.enabled:
            trace_id = new_trace_id()
        admission = self.spans.begin(
            "admission",
            trace_id or "",
            parent_id=parent_span,
            tenant=tenant,
            jobs=len(jobs),
        )
        ordered: Dict[str, SimJob] = {}
        for job in jobs:
            ordered.setdefault(self.key_fn(job), job)
        # a refused sweep's admission span is not recorded: no sweep
        # exists to export (and so free) it.
        with self._cond:
            cached: Dict[str, RunSummary] = {}
            coalesced: List[str] = []
            fresh: List[str] = []
            for key, job in ordered.items():
                if key in self._inflight:
                    coalesced.append(key)
                    continue
                hit = self.cache.load(key)
                if hit is not None:
                    cached[key] = hit
                else:
                    fresh.append(key)
            self._admit(tenant, [ordered[key] for key in fresh])
            sweep = self._new_sweep(tenant, list(ordered), trace_id)
            sweep.root_span = parent_span or admission.span_id
            sweep.request_open = parent_span is not None
            for key, job in ordered.items():
                sweep.labels[key] = job.label()
            for key in cached:
                sweep.statuses[key] = JOB_CACHED
            for key in coalesced:
                entry = self._inflight[key]
                entry.sweeps.append(sweep)
                sweep.statuses[key] = (
                    JOB_RUNNING if entry.state == JOB_RUNNING else JOB_QUEUED
                )
            enqueued_at = self.spans.now()
            for key in fresh:
                entry = _Entry(key, ordered[key], tenant)
                entry.sweeps.append(sweep)
                entry.trace_id = trace_id
                entry.parent_span = (
                    admission.span_id if self.spans.enabled else None
                )
                entry.enqueued = enqueued_at
                self._inflight[key] = entry
                self._dispatcher.submit(key, entry)
                self._queued_count += 1
                sweep.statuses[key] = JOB_QUEUED
            # the registry lock takes no other lock, so counting under
            # the broker's keeps lock order acyclic.
            admitted = self.m_admitted
            admitted.inc(len(fresh), tenant=tenant, outcome="queued")
            admitted.inc(len(cached), tenant=tenant, outcome="cached")
            admitted.inc(len(coalesced), tenant=tenant, outcome="coalesced")
            admitted.inc(
                len(jobs) - len(ordered), tenant=tenant, outcome="deduped"
            )
            self._event(
                sweep,
                "sweep_submitted",
                total=len(ordered),
                cached=len(cached),
                coalesced=len(coalesced),
                queued=len(fresh),
                trace_id=trace_id,
            )
            for key in cached:
                self._event(sweep, "job_cached", key=key)
            self._cond.notify_all()
        self.spans.end(
            admission,
            sweep_id=sweep.id,
            queued=len(fresh),
            cached=len(cached),
            coalesced=len(coalesced),
        )
        log.info(
            "sweep_submitted",
            sweep=sweep.id,
            tenant=tenant,
            total=len(ordered),
            cached=len(cached),
            coalesced=len(coalesced),
            queued=len(fresh),
            trace_id=trace_id,
        )
        self._export_spans_if_done(sweep)
        return sweep

    def request_returned(self, sweep: Sweep) -> None:
        """The HTTP request that submitted ``sweep`` has ended its
        ingress span: export the sweep's spans if it is already done."""
        sweep.request_open = False
        self._export_spans_if_done(sweep)

    def _admit(self, tenant: str, fresh_jobs: List[SimJob]) -> None:
        """Capacity checks for the genuinely new jobs (lock held)."""
        if not fresh_jobs:
            return
        if self._queued_count + len(fresh_jobs) > self.config.queue_limit:
            self.m_rejects.inc(tenant=tenant, reason="queue_full")
            raise QueueFullError(
                f"admission queue full ({self._queued_count}/"
                f"{self.config.queue_limit} queued); retry later",
                retry_after=max(self.config.backoff, 1.0),
            )
        jobs_after = self._tenant_jobs.get(tenant, 0) + len(fresh_jobs)
        if jobs_after > self.config.tenant_jobs:
            self.m_rejects.inc(tenant=tenant, reason="quota")
            raise QuotaExceededError(
                f"tenant {tenant!r} would hold {jobs_after} queued jobs "
                f"(limit {self.config.tenant_jobs})",
                retry_after=max(self.config.backoff, 1.0),
            )
        instr = sum(job.quota * len(job.apps) for job in fresh_jobs)
        instr_after = self._tenant_instr.get(tenant, 0) + instr
        if instr_after > self.config.tenant_instructions:
            self.m_rejects.inc(tenant=tenant, reason="quota")
            raise QuotaExceededError(
                f"tenant {tenant!r} would hold {instr_after} queued "
                f"simulated instructions "
                f"(limit {self.config.tenant_instructions})",
                retry_after=max(self.config.backoff, 1.0),
            )
        self._tenant_jobs[tenant] = jobs_after
        self._tenant_instr[tenant] = instr_after

    def _release_quota(self, entry: _Entry) -> None:
        """Return a no-longer-queued entry's slot to its tenant (lock held)."""
        tenant = entry.tenant
        self._tenant_jobs[tenant] = max(
            0, self._tenant_jobs.get(tenant, 0) - 1
        )
        self._tenant_instr[tenant] = max(
            0, self._tenant_instr.get(tenant, 0) - entry.instructions
        )

    def _new_sweep(
        self, tenant: str, keys: List[str], trace_id: Optional[str] = None
    ) -> Sweep:
        self._sweep_seq += 1
        digest = hashlib.sha1("|".join(keys).encode()).hexdigest()[:8]
        sweep = Sweep(
            f"swp-{self._sweep_seq:05d}-{digest}", tenant, keys, trace_id
        )
        self._sweeps[sweep.id] = sweep
        return sweep

    def sweep(self, sweep_id: str) -> Optional[Sweep]:
        with self._lock:
            return self._sweeps.get(sweep_id)

    def result(self, key: str) -> Optional[RunSummary]:
        """The shared memoization tier, straight from the cache."""
        with self._lock:
            return self.cache.load(key)

    def cancel(self, sweep_id: str) -> Optional[int]:
        """Drain the sweep's queued jobs; in-flight ones run on.

        A queued job shared with another live sweep is *not* drained —
        cancellation only removes work nobody else is waiting for.
        Returns how many jobs were cancelled, or ``None`` for an
        unknown sweep id.
        """
        with self._cond:
            sweep = self._sweeps.get(sweep_id)
            if sweep is None:
                return None
            sweep.cancel_requested = True
            cancelled: List[_Entry] = []
            for key in sweep.keys:
                entry = self._inflight.get(key)
                if entry is None or entry.state != JOB_QUEUED:
                    continue
                others = [
                    s
                    for s in entry.sweeps
                    if s is not sweep and not s.cancel_requested
                ]
                if others:
                    continue
                entry.state = JOB_CANCELLED
                self._queued_count -= 1
                self._release_quota(entry)
                del self._inflight[key]
                cancelled.append(entry)
                self.m_completed.inc(tenant=entry.tenant, status="cancelled")
                for subscriber in entry.sweeps:
                    subscriber.statuses[key] = JOB_CANCELLED
                    self._event(subscriber, "job_cancelled", key=key)
            self._cond.notify_all()
        for entry in cancelled:
            self._journal(entry, JOB_CANCELLED)
        log.info(
            "sweep_cancelled",
            sweep=sweep_id,
            drained=len(cancelled),
            trace_id=sweep.trace_id,
        )
        # a drained entry may also finish an earlier-cancelled sweep
        touched = [sweep, *(s for entry in cancelled for s in entry.sweeps)]
        for finished in dict.fromkeys(touched):
            self._export_spans_if_done(finished)
        return len(cancelled)

    def wait_events(
        self, sweep_id: str, since: int, timeout: float = 10.0
    ) -> Optional[List[Dict[str, Any]]]:
        """Events after index ``since``; blocks briefly when none yet.

        Returns ``None`` for an unknown sweep.  An empty list means the
        wait timed out with no news — the streaming handler loops while
        the sweep is live, producing newline-delimited JSON.
        """
        deadline = time.perf_counter() + timeout
        with self._cond:
            sweep = self._sweeps.get(sweep_id)
            if sweep is None:
                return None
            while (
                len(sweep.events) <= since
                and sweep.state == SWEEP_RUNNING
                and not self._stop.is_set()
            ):
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            return list(sweep.events[since:])

    @property
    def counters(self) -> Dict[str, int]:
        """The ``jobs`` section of /v1/metrics: sums over the registry
        counters that count each event, plus two counts from the sweep
        table.  Nothing here is tallied on its own."""
        with self._lock:
            sweeps = len(self._sweeps)
            cancelled = sum(
                1 for s in self._sweeps.values() if s.cancel_requested
            )
        admitted = self.m_admitted.sum_by("outcome")
        completed = self.m_completed.sum_by("status")
        rejects = self.m_rejects.sum_by("reason")
        counts = {
            "sweeps_submitted": sweeps,
            "sweeps_cancelled": cancelled,
            "jobs_submitted": sum(admitted.values()),
            "jobs_deduped": admitted.get("deduped", 0),
            "jobs_cached": admitted.get("cached", 0),
            "jobs_coalesced": admitted.get("coalesced", 0),
            "jobs_executed": completed.get("done", 0),
            "jobs_failed": completed.get("failed", 0),
            "jobs_cancelled": completed.get("cancelled", 0),
            "jobs_retried": self.m_retries.total(),
            "rejected_queue_full": rejects.get("queue_full", 0),
            "rejected_quota": rejects.get("quota", 0),
        }
        return {name: int(value) for name, value in counts.items()}

    def refresh_gauges(self) -> Dict[str, Any]:
        """Bring the registry's point-in-time state up to now: the queue
        and worker gauges, and the executor's respawn count.  Both
        /v1/metrics views call this before rendering, so a scrape reads
        the same present a JSON call does.  Returns the executor's
        liveness section."""
        executor = self._dispatcher.executor
        if executor is not None:
            liveness = executor.liveness()
            self._sync_executor_metrics(executor)
        else:
            liveness = {"backend": "none", "workers": 0, "busy": 0, "respawns": 0}
        # ``repro_workers`` means worker *processes*: the inline serial
        # backend has none, even though its liveness section reports
        # one execution lane.
        inline = executor is None or executor.inline
        self.g_workers.set(0 if inline else liveness["workers"])
        self.g_workers_busy.set(0 if inline else liveness["busy"])
        with self._lock:
            self.g_queue_depth.set(self._queued_count)
            self.g_running.set(self._running_count)
        return liveness

    @property
    def uptime_s(self) -> float:
        """Seconds since :meth:`start`."""
        return time.perf_counter() - self._started_at

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The /v1/metrics body (validated by the telemetry schema)."""
        liveness = self.refresh_gauges()
        counters = self.counters
        with self._lock:
            tenants = {
                tenant: {
                    "queued_jobs": jobs,
                    "queued_instructions": self._tenant_instr.get(tenant, 0),
                }
                for tenant, jobs in self._tenant_jobs.items()
            }
            sweeps_active = sum(
                1 for s in self._sweeps.values() if s.state == SWEEP_RUNNING
            )
            host_totals = self._host_totals
        uptime = self.uptime_s
        workers = int(self.g_workers.value())
        return {
            "schema": METRICS_SCHEMA,
            "uptime_s": uptime,
            "workers": workers,
            "executor": liveness,
            "queue": {
                "depth": int(self.g_queue_depth.value()),
                "running": int(self.g_running.value()),
                "limit": self.config.queue_limit,
            },
            "jobs": counters,
            "sweeps": {
                "total": counters["sweeps_submitted"], "active": sweeps_active
            },
            "tenants": tenants,
            "limits": {
                "tenant_jobs": self.config.tenant_jobs,
                "tenant_instructions": self.config.tenant_instructions,
            },
            "metrics": self.registry.to_dict(),
            "host": host_summary(
                host_totals, workers=max(1, workers), wall_s=uptime or None
            ),
            "phases": self.phase_timer.report(),
            "requests": {
                group: int(count)
                for group, count in self.m_http.sum_by(
                    "route", "status"
                ).items()
            },
        }

    # -- the broker thread -----------------------------------------------------
    def _loop(self) -> None:
        """Step the dispatcher until :meth:`stop`."""
        dispatcher = self._dispatcher
        while not self._stop.is_set():
            if dispatcher.step():
                self._sync_executor_metrics(dispatcher.executor)
        # exit() pairs the enter(PHASE_ORCHESTRATE) from start(), so the
        # phase report stays internally consistent after a stop().
        if self.phase_timer.depth:
            self.phase_timer.exit()

    def _idle(self, seconds: float) -> None:
        """The dispatcher's idle wait: sleep on the condition, so a
        submit or :meth:`stop` wakes the broker thread early."""
        with self._cond:
            if not self._stop.is_set() and not self._dispatcher.has_submissions:
                self._cond.wait(seconds)

    def _sync_executor_metrics(self, executor: Executor) -> None:
        """Mirror the backend's cumulative respawn count into the
        labeled registry.  Registry counters only go up, so each sync
        feeds the delta since the last one (per backend — a degraded
        swap to serial starts its own series)."""
        backend = executor.name
        self.g_executor_workers.set(executor.size, backend=backend)
        # the broker thread and every refresh both sync: the lock keeps
        # two of them from feeding the same delta twice.
        with self._lock:
            value = executor.respawns
            seen = self._respawns_seen.get(backend, 0)
            if value > seen:
                self.m_worker_respawns.inc(value - seen, backend=backend)
                self._respawns_seen[backend] = value

    def _begin_execution(self, entry: _Entry) -> None:
        """Dispatch-time observability (lock held): close the queue
        span, open the execute span, observe queue wait — and, when
        tracing, switch on host-phase timing so the simulated phases
        come back as child spans.  ``host_phases`` never joins the job
        key and the result cache strips ``host`` before storing, so
        traced and untraced cache entries stay byte-identical.
        """
        entry.dispatched = time.perf_counter()
        self.m_queue_wait.observe(
            max(0.0, self.spans.now() - entry.enqueued), tenant=entry.tenant
        )
        if not self.spans.enabled or not entry.trace_id:
            return
        queue_span = self.spans.add(
            "queue",
            entry.trace_id,
            start=entry.enqueued,
            end=self.spans.now(),
            parent_id=entry.parent_span,
            kind="queue",
            job_key=entry.key,
        )
        entry.exec_span = self.spans.begin(
            "execute",
            entry.trace_id,
            parent_id=queue_span.span_id if queue_span is not None else None,
            kind="worker",
            job_key=entry.key,
            tenant=entry.tenant,
        )
        if not entry.job.host_phases:
            entry.job = replace(entry.job, host_phases=True)

    def _end_exec_span(
        self, entry: _Entry, status: str, host: Optional[Dict[str, Any]]
    ) -> None:
        """Close the execute span and replay the job's host phases as
        its children, in the broker's clock domain."""
        span = entry.exec_span
        entry.exec_span = None
        if span is None or not self.spans.enabled or not entry.trace_id:
            return
        self.spans.end(span, status=status, attempts=entry.attempts)
        self.spans.add_phases(span, (host or {}).get("phases") or {})

    def _export_spans_if_done(self, sweep: Sweep) -> None:
        """Move a finished sweep's spans from the book to
        ``obs/spans-<sweep>.jsonl``.

        A sweep exports once it is terminal *and* its submitting
        request has returned, so the file holds the whole chain from
        ingress down; the export then frees the sweep's slots in the
        book.  Called outside the broker lock — file I/O must never
        block admission.
        """
        if (
            not self.spans.enabled
            or sweep.trace_id is None
            or self._spans_dir is None
            or sweep.request_open
            or sweep.state == SWEEP_RUNNING
        ):
            return
        with self._export_lock:
            if sweep.spans_exported:
                return
            sweep.spans_exported = True
            spans = self.spans.pop_tree(sweep.root_span)
            if not spans:
                return
            self._spans_dir.mkdir(parents=True, exist_ok=True)
            path = self._spans_dir / f"spans-{sweep.id}.jsonl"
            with path.open("w", encoding="utf-8") as handle:
                self.spans.write_jsonl(handle, spans)
        log.debug(
            "spans_exported", sweep=sweep.id, path=str(path), spans=len(spans)
        )

    def trace_snapshot(self, sweep_id: str) -> Optional[Dict[str, Any]]:
        """The GET /v1/sweeps/{id}/trace body; None for unknown sweeps."""
        with self._lock:
            sweep = self._sweeps.get(sweep_id)
        if sweep is None:
            return None
        with self._export_lock:
            if sweep.spans_exported:
                path = self._spans_dir / f"spans-{sweep.id}.jsonl"
                text = path.read_text(encoding="utf-8") if path.exists() else ""
                spans = [json.loads(line) for line in text.splitlines()]
            elif sweep.trace_id:
                spans = [
                    span.to_json_dict()
                    for span in self.spans.snapshot(sweep.trace_id)
                ]
            else:
                spans = []
        return {"sweep": sweep.id, "trace_id": sweep.trace_id, "spans": spans}

    # -- dispatcher callbacks (broker thread) ----------------------------------
    def _on_dispatch(self, key: str, entry: _Entry) -> Optional[SimJob]:
        with self._cond:
            if entry.state != JOB_QUEUED:
                return None  # cancelled while queued
            entry.state = JOB_RUNNING
            self._queued_count -= 1
            self._running_count += 1
            self._release_quota(entry)
            self._begin_execution(entry)
            for sweep in entry.sweeps:
                sweep.statuses[key] = JOB_RUNNING
                self._event(
                    sweep, "job_started", key=key, attempt=entry.attempts + 1
                )
            self._cond.notify_all()
        return entry.job

    def _on_retry(
        self, key: str, entry: _Entry, error: str, attempts: int
    ) -> None:
        entry.attempts = attempts
        self._end_exec_span(entry, "retry", None)
        with self._cond:
            self.m_retries.inc(tenant=entry.tenant)
            self._requeue(entry, "job_retry", attempt=attempts, error=error)
        log.warning(
            "job_retry", key=key, attempt=attempts, error=error,
            trace_id=entry.trace_id,
        )

    def _on_requeue(self, key: str, entry: _Entry) -> None:
        self._end_exec_span(entry, "requeued", None)
        with self._cond:
            self._requeue(
                entry, "job_requeued", reason="executor degraded to serial"
            )

    def _requeue(self, entry: _Entry, event: str, **fields: Any) -> None:
        """Move a dispatched entry back to queued (lock held).

        Re-admitting never fails: the quota slot released at dispatch
        is simply re-charged (it may briefly overshoot the budget,
        which beats dropping work the tenant already queued).
        """
        entry.state = JOB_QUEUED
        entry.enqueued = self.spans.now()
        self._running_count -= 1
        self._queued_count += 1
        tenant = entry.tenant
        self._tenant_jobs[tenant] = self._tenant_jobs.get(tenant, 0) + 1
        self._tenant_instr[tenant] = (
            self._tenant_instr.get(tenant, 0) + entry.instructions
        )
        for sweep in entry.sweeps:
            sweep.statuses[entry.key] = JOB_QUEUED
            self._event(sweep, event, key=entry.key, **fields)
        self._cond.notify_all()

    def _complete(
        self, key: str, entry: _Entry, summary: RunSummary, attempts: int
    ) -> None:
        entry.attempts = attempts
        # Single-writer discipline as in the CLI orchestrator: only
        # the broker thread stores, so entries are byte-identical to
        # serial/CLI ones (and writes are atomic).
        self.cache.store(entry.key, summary)
        self._journal(entry, JOB_DONE, host=compact_host(summary.host))
        self._end_exec_span(entry, "done", summary.host)
        self.m_exec.observe(
            max(0.0, time.perf_counter() - entry.dispatched),
            tenant=entry.tenant,
        )
        digest = compact_host(summary.host)
        with self._cond:
            self.m_completed.inc(tenant=entry.tenant, status="done")
            self._host_totals = fold_host(self._host_totals, summary.host)
            entry.state = JOB_DONE
            self._running_count -= 1
            del self._inflight[entry.key]
            for sweep in entry.sweeps:
                sweep.statuses[entry.key] = JOB_DONE
                self._event(
                    sweep,
                    "job_done",
                    key=entry.key,
                    attempts=entry.attempts,
                    host=digest,
                )
            self._cond.notify_all()
            subscribers = list(entry.sweeps)
        for sweep in subscribers:
            self._export_spans_if_done(sweep)

    def _fail(self, key: str, entry: _Entry, error: str, attempts: int) -> None:
        entry.attempts = attempts
        self._journal(entry, JOB_FAILED, error=error)
        self._end_exec_span(entry, "failed", None)
        self.m_exec.observe(
            max(0.0, time.perf_counter() - entry.dispatched),
            tenant=entry.tenant,
        )
        with self._cond:
            self.m_completed.inc(tenant=entry.tenant, status="failed")
            entry.state = JOB_FAILED
            self._running_count -= 1
            del self._inflight[entry.key]
            for sweep in entry.sweeps:
                sweep.statuses[entry.key] = JOB_FAILED
                sweep.errors[entry.key] = error
                self._event(
                    sweep,
                    "job_failed",
                    key=entry.key,
                    attempts=entry.attempts,
                    error=error,
                )
            self._cond.notify_all()
            subscribers = list(entry.sweeps)
        log.error(
            "job_failed", key=entry.key, error=error, trace_id=entry.trace_id
        )
        for sweep in subscribers:
            self._export_spans_if_done(sweep)

    def _journal(self, entry: _Entry, status: str, **fields: Any) -> None:
        """Append a terminal outcome to ``sweep-manifest.jsonl``, as the
        CLI orchestrator does (called outside the broker lock)."""
        if self.manifest is not None:
            self.manifest.record(
                entry.key,
                status,
                attempts=entry.attempts,
                label=entry.job.label(),
                category=entry.job.category,
                trace_id=entry.trace_id,
                **fields,
            )

    def _event(self, sweep: Sweep, event: str, **fields: Any) -> None:
        """Append one progress event to a sweep's feed (lock held)."""
        record: Dict[str, Any] = {
            "seq": len(sweep.events),
            "t": time.perf_counter() - sweep.created,
            "event": event,
            "sweep": sweep.id,
        }
        record.update({k: v for k, v in fields.items() if v is not None})
        sweep.events.append(record)
