"""Parallel, fault-tolerant experiment orchestration.

The paper sweep is a grid of independent simulations — 105 two-core
mixes x 7+ hierarchy variants, plus ratio and core-count studies —
and every one of them is deterministic and identified by a content
hash.  This package turns that grid into a job graph and executes it
as fast as the machine allows:

* :mod:`~repro.orchestrate.job` — :class:`SimJob` (one fully-resolved
  simulation), :func:`job_key` (the content hash, identical to the
  runner's disk-memo key) and :func:`execute_job` (pure executor,
  picklable for worker dispatch).
* :mod:`~repro.orchestrate.cache` — :class:`ResultCache`, the shared
  memory+disk memo; jobs already cached are never re-executed, which
  doubles as crash resume.
* :mod:`~repro.orchestrate.manifest` — :class:`SweepManifest`, an
  append-only JSONL journal of per-job outcomes that survives kills
  mid-write.
* :mod:`~repro.orchestrate.executor` — the :class:`Executor`
  protocol (submit/poll/close/liveness), the event kinds, the
  in-process :class:`SerialExecutor` and :func:`resolve_executor`.
* :mod:`~repro.orchestrate.pool` — :class:`WorkerPool`, the ``pool``
  backend: one process per worker with per-job timeout, kill and
  respawn.
* :mod:`~repro.orchestrate.scheduler` — :class:`Orchestrator`, the
  policy layer: dedup, bounded retry with exponential backoff,
  graceful degradation to serial execution, failure reporting.

Figure drivers never use this directly; they call
:meth:`repro.experiments.Runner.run_many`, which builds the jobs and
hands them here.  ``REPRO_JOBS`` / ``--jobs`` select the worker count
(1 = serial, no subprocesses at all).
"""

from .cache import ResultCache
from .executor import EXECUTOR_KINDS, Executor, SerialExecutor, resolve_executor
from .job import CACHE_SCHEMA, RunSummary, SimJob, execute_job, job_key
from .manifest import (
    STATUS_CANCELLED,
    STATUS_DONE,
    STATUS_FAILED,
    ManifestRecord,
    SweepManifest,
)
from .pool import WorkerPool
from .scheduler import Orchestrator, compact_host

__all__ = [
    "CACHE_SCHEMA",
    "EXECUTOR_KINDS",
    "Executor",
    "ManifestRecord",
    "Orchestrator",
    "ResultCache",
    "RunSummary",
    "STATUS_CANCELLED",
    "STATUS_DONE",
    "STATUS_FAILED",
    "SerialExecutor",
    "SimJob",
    "SweepManifest",
    "WorkerPool",
    "compact_host",
    "execute_job",
    "job_key",
    "resolve_executor",
]
