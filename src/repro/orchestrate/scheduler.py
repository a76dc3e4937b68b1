"""The orchestrator: expand, deduplicate, execute, retry, resume.

:class:`Orchestrator.run` takes a flat list of jobs (usually
:class:`~repro.orchestrate.job.SimJob`), collapses duplicates by job
key, serves everything already in the result cache, and executes only
the remainder on a pluggable :class:`~repro.orchestrate.executor.
Executor` backend — in-process (``serial``, the default for
``jobs <= 1``) or a local process pool (``pool``, the default for
``jobs > 1``).  The scheduling loop
is :class:`Dispatcher`, the only one in the repository: ``run`` steps
it until one batch is decided, the service broker for the life of the
service.  It dispatches while the backend has capacity, drains
terminal events, and retries failures with exponential backoff up to a
bounded number of attempts.  Jobs that keep failing are journalled to
the :class:`~repro.orchestrate.manifest.SweepManifest` and reported in
one :class:`~repro.errors.OrchestrationError` at the end (completed
work stays cached, so a re-run only re-executes the failures).  If the
pool cannot be built *by the environment* (no subprocesses on this
box) or keeps losing workers, the sweep degrades to serial execution
— with a prominent warning — instead of aborting: slower, never
wrong.  A *misconfigured* backend (an unknown executor kind) raises
:class:`~repro.errors.ExecutorConfigError` instead of degrading, so a
typo cannot silently serialize a sweep the user believes is parallel.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import nullcontext
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ExecutorConfigError, OrchestrationError
from ..perf.phase import (
    PHASE_EXECUTE_JOB,
    PHASE_ORCHESTRATE,
    PHASE_POOL_WAIT,
)
from ..telemetry import get_logger
from .cache import ResultCache
from .job import execute_job, job_key
from .executor import EVENT_OK, Executor, SerialExecutor, resolve_executor
from .manifest import STATUS_DONE, STATUS_FAILED, SweepManifest

log = get_logger("repro.orchestrate")

#: give up respawning workers after this many deaths per sweep and
#: fall back to serial execution — a backend that keeps dying (OOM
#: killer, fork bombs elsewhere on the box) must not spin forever.
MAX_RESPAWNS = 8


class Dispatcher:
    """The scheduling loop, one :meth:`step` at a time.

    The owner decides what outcomes mean, through callbacks run on the
    stepping thread: ``on_dispatch(key, job)`` returns the payload to
    submit, or None to drop a job cancelled while queued; ``on_done``/``on_retry``/``on_fail(key, job, result or
    error, attempts)`` classify each terminal event; ``on_requeue(key,
    job)`` sees each job stranded on a backend that lost more than
    :data:`MAX_RESPAWNS` workers, requeued without charging the attempt
    once a :class:`SerialExecutor` has taken that backend's place.

    :meth:`submit` is safe from any thread: it appends to a hand-off
    deque that the stepping thread drains.  Everything else belongs to
    the stepping thread.  Attempt counts and backoff windows ride on
    the queued and running entries, so a decided key leaves nothing
    behind in a dispatcher that lives as long as the service.
    """

    def __init__(
        self,
        executor: Optional[Executor],
        execute: Callable[[Any], Any],
        on_dispatch: Callable[[str, Any], Any],
        on_done: Callable[[str, Any, Any, int], None],
        on_retry: Callable[[str, Any, str, int], None],
        on_fail: Callable[[str, Any, str, int], None],
        on_requeue: Optional[Callable[[str, Any], None]] = None,
        retries: int = 2,
        backoff: float = 0.25,
        phase_timer=None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.executor = executor  # None until the owner installs one
        self._execute = execute
        self._on_dispatch = on_dispatch
        self._on_done = on_done
        self._on_retry = on_retry
        self._on_fail = on_fail
        self._on_requeue = on_requeue
        self.retries = retries
        self.backoff = backoff
        self.phase_timer = phase_timer
        self._sleep = sleep  # how a step with nothing running waits
        self._handoff: deque = deque()  # (key, job) from any thread
        #: (key, job, attempts so far, perf_counter backoff gate)
        self._queue: deque = deque()
        #: key -> (job, attempts so far) for jobs on the backend
        self._running: Dict[str, Tuple[Any, int]] = {}

    def submit(self, key: str, job: Any) -> None:
        self._handoff.append((key, job))

    @property
    def has_submissions(self) -> bool:
        """True while submissions wait for the next step to collect them."""
        return bool(self._handoff)

    @property
    def pending(self) -> bool:
        return bool(self._running or self._queue or self._handoff)

    @property
    def running(self) -> int:
        return len(self._running)

    def step(self, wait: float = 0.05) -> int:
        """Dispatch, poll once, classify, dispatch again; return the
        number of terminal events.  With nothing running, sleep until
        the earliest backoff window opens (at most ``wait``) instead.
        A ``BaseException`` escaping an inline backend (Ctrl-C killing
        a serial sweep) propagates."""
        self._dispatch()
        if not self._running:
            self._idle(wait)
            return 0
        executor = self.executor
        timer = self.phase_timer
        # An inline backend executes during poll, so its poll time *is*
        # execute_job; blocking on remote workers is pool_wait — a
        # saturated backend should show high pool_wait, not a slow
        # scheduler.
        phase = PHASE_EXECUTE_JOB if executor.inline else PHASE_POOL_WAIT
        with nullcontext() if timer is None else timer.phase(phase):
            events = executor.poll(wait)
        for kind, key, payload in events:
            job, attempts = self._running.pop(key)
            attempts += 1
            if kind == EVENT_OK:
                self._on_done(key, job, payload, attempts)
            elif attempts > self.retries:
                self._on_fail(key, job, str(payload), attempts)
            else:
                ready_at = time.perf_counter() + self.backoff * 2 ** (attempts - 1)
                self._queue.append((key, job, attempts, ready_at))
                self._on_retry(key, job, str(payload), attempts)
        if executor.respawns > MAX_RESPAWNS:
            self._degrade(executor)
        # Dispatch again before returning: a caller that idles while
        # nothing runs would otherwise leave the job queued behind a
        # just-finished one waiting out that idle time.
        self._dispatch()
        return len(events)

    def _dispatch(self) -> None:
        queue = self._queue
        while self._handoff:
            key, job = self._handoff.popleft()
            queue.append((key, job, 0, 0.0))
        executor = self.executor
        now = time.perf_counter()
        for _ in range(len(queue)):
            if not executor.has_idle:
                break
            entry = queue.popleft()
            key, job, attempts, ready_at = entry
            if ready_at > now:
                queue.append(entry)
                continue
            payload = self._on_dispatch(key, job)
            if payload is None:
                continue
            executor.submit(key, payload)
            self._running[key] = (job, attempts)

    def _idle(self, wait: float) -> None:
        now = time.perf_counter()
        wake = min((entry[3] for entry in self._queue), default=now + wait)
        delay = min(wake - now, wait)
        if delay > 0:
            self._sleep(delay)

    def _degrade(self, executor: Executor) -> None:
        """Swap a backend that keeps losing workers for serial
        execution.  The old backend is never polled again, so its
        stranded jobs must be requeued or they would never be decided;
        they keep their attempt counts (the backend failed, not the
        jobs)."""
        log.warning(
            "executor_degraded",
            requested=executor.name,
            actual="serial",
            respawns=executor.respawns,
            requeued=len(self._running),
        )
        executor.close()
        self.executor = SerialExecutor(self._execute)
        stranded, self._running = self._running, {}
        for key, (job, attempts) in stranded.items():
            self._queue.append((key, job, attempts, 0.0))
            if self._on_requeue is not None:
                self._on_requeue(key, job)


class Orchestrator:
    """Parallel, fault-tolerant executor for a batch of jobs."""

    def __init__(
        self,
        jobs: int = 1,
        execute: Callable[[Any], Any] = execute_job,
        key_fn: Callable[[Any], str] = job_key,
        cache: Optional[ResultCache] = None,
        manifest: Optional[SweepManifest] = None,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.25,
        reporter=None,
        context=None,
        telemetry=None,
        phase_timer=None,
        executor=None,
    ) -> None:
        if retries < 0:
            raise OrchestrationError("retries must be >= 0")
        if backoff < 0:
            raise OrchestrationError("backoff must be >= 0")
        self.jobs = max(1, int(jobs))
        self.execute = execute
        self.key_fn = key_fn
        self.cache = cache
        self.manifest = manifest
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.reporter = reporter
        self.context = context
        #: execution backend: None (serial for jobs=1, pool otherwise),
        #: a kind name (``"serial"``/``"pool"``), or a pre-built
        #: :class:`Executor` instance.
        self.executor = executor
        #: optional :class:`repro.telemetry.RunTelemetry` collecting
        #: per-job provenance (wall/CPU time, retries, cache hits) for
        #: the Chrome trace and the enriched run manifest.
        self.telemetry = telemetry
        #: optional :class:`repro.perf.PhaseTimer` attributing the
        #: sweep's wall time to orchestrate_overhead / execute_job /
        #: pool_wait; None keeps scheduling loops hook-free.
        self.phase_timer = phase_timer
        #: key -> final error message of permanently failed jobs (last run).
        self.failures: Dict[str, str] = {}
        #: jobs actually executed (not served from cache) in the last
        #: run — the counter service/e2e tests assert dedup against.
        self.executed_count = 0
        #: host digests of executed jobs (cache hits carry none); the
        #: raw material for sweep-level throughput aggregation.
        self.host_digests: List[Dict[str, Any]] = []
        self._completed = 0
        self._total = 0
        self._workers = 1
        self._backend: Optional[str] = None
        #: key -> sweep-relative wall time the job first started.
        self._started: Dict[str, float] = {}

    # -- public API ------------------------------------------------------------
    def run(
        self, sim_jobs: Sequence[Any], raise_on_failure: bool = True
    ) -> Dict[str, Any]:
        """Execute ``sim_jobs``; return ``{job key: result}``.

        Duplicate keys are executed once.  Keys already in the result
        cache are served from it without executing anything — which is
        also the resume path: an interrupted sweep re-run with the same
        cache only executes its unfinished jobs.
        """
        timer = self.phase_timer
        if timer is not None:
            timer.enter(PHASE_ORCHESTRATE)
        try:
            return self._run(sim_jobs, raise_on_failure)
        finally:
            if timer is not None:
                timer.exit()

    def _run(
        self, sim_jobs: Sequence[Any], raise_on_failure: bool
    ) -> Dict[str, Any]:
        ordered: Dict[str, Any] = {}
        for job in sim_jobs:
            ordered.setdefault(self.key_fn(job), job)
        results: Dict[str, Any] = {}
        if self.cache is not None:
            for key in ordered:
                hit = self.cache.load(key)
                if hit is not None:
                    results[key] = hit
                    if self.telemetry is not None:
                        self.telemetry.note_cached(key, self._label(ordered[key]))
        pending = [(key, job) for key, job in ordered.items() if key not in results]
        self.failures = {}
        self.executed_count = 0
        self._total = len(ordered)
        self._completed = len(results)
        self._workers = min(self.jobs, len(pending)) or 1
        if self.reporter is not None:
            self.reporter.start(total=self._total, cached=self._completed)
        try:
            if pending:
                self._run_loop(pending, results)
        finally:
            if self.reporter is not None:
                self.reporter.finish()
        if self.failures and raise_on_failure:
            details = "; ".join(
                f"{self._label(ordered[key])}: {error}"
                for key, error in self.failures.items()
            )
            raise OrchestrationError(
                f"{len(self.failures)} job(s) permanently failed "
                f"after {self.retries + 1} attempt(s) each: {details}"
            )
        return results

    def _on_dispatch(self, key: str, job: Any) -> Any:
        self._started.setdefault(key, self._now())
        return job

    # -- execution -------------------------------------------------------------
    def _requested_backend(self) -> str:
        """The backend name this run was configured for (log context)."""
        if isinstance(self.executor, Executor):
            return self.executor.name
        if isinstance(self.executor, str):
            return self.executor
        return "serial" if self.jobs <= 1 else "pool"

    def _run_loop(
        self, pending: Sequence[Tuple[str, Any]], results: Dict[str, Any]
    ) -> None:
        """Step a :class:`Dispatcher` over ``pending`` until every job
        is decided.  Per-job timeouts are the backend's job (in-process
        serial execution, documented, cannot enforce them).  Ctrl-C in a
        serial sweep propagates: the manifest already holds every
        completed job, so the re-run resumes instead of re-executing."""
        try:
            executor = resolve_executor(
                self.executor,
                self._workers,
                self.execute,
                timeout=self.timeout,
                context=self.context,
            )
        except ExecutorConfigError:
            # A misconfigured backend (an unknown kind) must fail
            # loudly — degrading would run a sweep the user believes is
            # parallel single-threaded, with no sign anything is off.
            raise
        except OrchestrationError as exc:
            # The *environment* could not build the backend (no
            # subprocesses on this box); degrade to serial — slower,
            # never wrong — and say so prominently.
            log.warning(
                "executor_degraded",
                requested=self._requested_backend(),
                actual="serial",
                error=str(exc),
            )
            executor = SerialExecutor(self.execute)
        dispatcher = Dispatcher(
            executor,
            self.execute,
            on_dispatch=self._on_dispatch,
            on_done=partial(self._complete, results=results),
            on_retry=self._on_retry,
            on_fail=self._fail,
            retries=self.retries,
            backoff=self.backoff,
            phase_timer=self.phase_timer,
        )
        for key, job in pending:
            dispatcher.submit(key, job)
        try:
            while dispatcher.pending:
                self._workers = dispatcher.executor.size
                self._backend = dispatcher.executor.name
                dispatcher.step()
                self._report(running=dispatcher.running)
        finally:
            dispatcher.executor.close()

    def _on_retry(self, key: str, job: Any, error: str, attempts: int) -> None:
        log.warning(
            "job_retry",
            key=key,
            label=self._label(job),
            attempt=attempts,
            error=error,
            trace_id=self._trace_id(),
        )

    # -- bookkeeping -----------------------------------------------------------
    @staticmethod
    def _label(job: Any) -> str:
        return job.label() if hasattr(job, "label") else str(job)

    @staticmethod
    def _category(job: Any) -> Optional[str]:
        """Workload-category tag for the manifest (None for non-SimJob
        payloads, which keeps the orchestrator job-type agnostic)."""
        return getattr(job, "category", None)

    def _trace_id(self) -> Optional[str]:
        """The trace every job of this run belongs to: a
        telemetry-collected sweep's run trace, else None (untraced)."""
        return getattr(self.telemetry, "trace_id", None)

    def _now(self) -> float:
        """Sweep-relative wall time (telemetry origin when available)."""
        if self.telemetry is not None:
            return self.telemetry.now()
        return time.perf_counter()

    def _complete(
        self,
        key: str,
        job: Any,
        result: Any,
        attempts: int,
        results: Dict[str, Any],
    ) -> None:
        results[key] = result
        self._completed += 1
        self.executed_count += 1
        # Single-writer discipline: only the parent stores, so parallel
        # cache entries are byte-identical to serial ones.
        if self.cache is not None:
            self.cache.store(key, result)
        host = getattr(result, "host", None)
        if host:
            self.host_digests.append(host)
        if self.manifest is not None:
            self.manifest.record(
                key,
                STATUS_DONE,
                attempts=attempts,
                label=self._label(job),
                category=self._category(job),
                host=compact_host(host),
                trace_id=self._trace_id(),
            )
        if self.telemetry is not None:
            end = self.telemetry.now()
            self.telemetry.note_executed(
                key,
                self._label(job),
                STATUS_DONE,
                attempts,
                start=self._started.get(key, end),
                end=end,
                telemetry=getattr(result, "telemetry", None),
                host=host,
            )
        if self.reporter is not None:
            note = getattr(self.reporter, "note_result", None)
            if note is not None:
                note(result)
        self._report()

    def _fail(self, key: str, job: Any, error: str, attempts: int) -> None:
        self.failures[key] = error
        trace_id = self._trace_id()
        log.error(
            "job_failed",
            key=key,
            label=self._label(job),
            attempts=attempts,
            error=error,
            trace_id=trace_id,
        )
        if self.manifest is not None:
            self.manifest.record(
                key,
                STATUS_FAILED,
                attempts=attempts,
                error=error,
                label=self._label(job),
                category=self._category(job),
                trace_id=trace_id,
            )
        if self.telemetry is not None:
            end = self.telemetry.now()
            self.telemetry.note_executed(
                key,
                self._label(job),
                STATUS_FAILED,
                attempts,
                start=self._started.get(key, end),
                end=end,
                error=error,
            )
        self._report()

    def _report(self, running: int = 0) -> None:
        if self.reporter is not None:
            self.reporter.update(
                completed=self._completed,
                failed=len(self.failures),
                running=running,
                workers=self._workers,
                backend=self._backend,
            )


def compact_host(host: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """Lean per-job host digest for the manifest journal (no phases).

    Also the digest the service layer streams on sweep event feeds, so
    the shape is part of the NDJSON contract (see ``repro.service``).
    """
    if not host:
        return None
    keep = (
        "wall_s",
        "job_wall_s",
        "cpu_s",
        "instructions",
        "accesses",
        "instructions_per_s",
        "accesses_per_s",
    )
    return {key: host[key] for key in keep if key in host}
