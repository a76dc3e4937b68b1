"""The executor protocol: one scheduler, two execution backends.

The scheduler's :class:`~repro.orchestrate.scheduler.Dispatcher` owns
*policy* — retry with backoff, degrade, failure reporting — and
delegates *mechanism* to an :class:`Executor`: something that accepts
``submit(key, job)``, reports terminal ``(kind, key, payload)`` events
from ``poll()``, and answers liveness questions (how many workers, how
many busy, how many died).  Two backends conform:

* :class:`SerialExecutor` — executes jobs in-process on the calling
  thread; the no-subprocess fallback and the ``jobs=1`` default.
* :class:`~repro.orchestrate.pool.WorkerPool` — one process per
  worker on this host, each behind its own duplex pipe, with per-job
  timeout kill and respawn.

Because both backends speak the same protocol, the scheduler loop is
written once, and the golden guarantee — cache entries byte-identical
across backends — holds by construction: workers only compute
summaries; cache writes always go through the same
:meth:`ResultCache.store` code path.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import ExecutorConfigError, OrchestrationError

#: terminal event kinds every backend's :meth:`Executor.poll` reports.
EVENT_OK = "ok"
EVENT_ERROR = "error"
EVENT_CRASH = "crash"
EVENT_TIMEOUT = "timeout"

#: one terminal event: (kind, job key, RunSummary or error message).
ExecutorEvent = Tuple[str, str, Any]


class Executor:
    """Protocol base for execution backends.

    Lifecycle: the scheduler calls :meth:`submit` while
    :attr:`has_idle` is true, drains events with :meth:`poll`, and
    :meth:`close`\\ s the backend when the sweep ends.  ``poll`` must
    return every submitted job exactly once as a terminal event —
    retry is the scheduler's job, so a failed/crashed/timed-out job is
    reported, not silently re-run.

    The liveness counters are plain attributes here; a backend that
    tracks one overrides it with an instance attribute or a property.
    """

    #: short backend tag for progress lines, metrics labels and logs.
    name: str = "executor"
    #: True when :meth:`poll` executes jobs on the calling thread —
    #: the scheduler then charges poll time to ``execute_job`` rather
    #: than ``pool_wait`` in its phase report.
    inline: bool = False
    #: workers available to this backend (1 for in-process).
    size: int = 1
    #: submitted jobs not yet reported by :meth:`poll`.
    busy_count: int = 0
    #: unplanned worker deaths (health signal; see MAX_RESPAWNS).
    respawns: int = 0

    def submit(self, key: str, job: Any) -> None:
        """Hand a job to the backend; called only while :attr:`has_idle`."""
        raise NotImplementedError

    def poll(self, wait: float = 0.05) -> List[ExecutorEvent]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    @property
    def has_idle(self) -> bool:
        return self.busy_count < self.size

    def liveness(self) -> Dict[str, Any]:
        """One snapshot of backend health for metrics endpoints."""
        return {
            "backend": self.name,
            "workers": self.size,
            "busy": self.busy_count,
            "respawns": self.respawns,
        }


class SerialExecutor(Executor):
    """In-process execution on the calling thread.

    Absorbs the orchestrator's historical serial fallback: no
    subprocesses, no per-job timeout (a watchdog needs a second
    process, and serial mode exists precisely for environments where
    spawning one is not an option), and ``BaseException``\\ s that are
    not plain ``Exception`` (``KeyboardInterrupt``) propagate so a
    killed sweep aborts instead of recording a failure.
    """

    name = "serial"
    inline = True

    def __init__(self, execute: Callable[[Any], Any]) -> None:
        self._execute = execute
        self._pending: Optional[Tuple[str, Any]] = None

    def submit(self, key: str, job: Any) -> None:
        if self._pending is not None:
            raise OrchestrationError("submit() called with no idle worker")
        self._pending = (key, job)

    def poll(self, wait: float = 0.05) -> List[ExecutorEvent]:
        if self._pending is None:
            return []
        key, job = self._pending
        self._pending = None
        try:
            payload = self._execute(job)
        except Exception as exc:  # noqa: BLE001 — reported for retry
            return [(EVENT_ERROR, key, f"{type(exc).__name__}: {exc}")]
        return [(EVENT_OK, key, payload)]

    @property
    def busy_count(self) -> int:
        return 1 if self._pending is not None else 0


#: accepted executor kind names (the service's ``--executor``).
EXECUTOR_KINDS = ("serial", "pool")


def resolve_executor(
    spec,
    jobs: int,
    execute: Callable[[Any], Any],
    timeout: Optional[float] = None,
    context=None,
) -> Executor:
    """Build an executor from a spec: an instance, a kind name or None.

    ``None`` picks serial for ``jobs <= 1`` and the local pool
    otherwise.  A string names a backend explicitly.  An
    :class:`Executor` instance is returned as-is, so tests and
    services can inject pre-built backends.

    An unknown kind raises :class:`~repro.errors.ExecutorConfigError`;
    callers must surface it, not degrade, so a typo cannot silently
    turn a parallel sweep into a serial one.
    """
    if isinstance(spec, Executor):
        return spec
    if spec is None:
        spec = "serial" if jobs <= 1 else "pool"
    if spec == "serial":
        return SerialExecutor(execute)
    if spec == "pool":
        from .pool import WorkerPool

        return WorkerPool(max(1, jobs), execute, timeout=timeout, context=context)
    raise ExecutorConfigError(
        f"unknown executor {spec!r}; expected one of {EXECUTOR_KINDS}"
    )


__all__ = [
    "EVENT_CRASH",
    "EVENT_ERROR",
    "EVENT_OK",
    "EVENT_TIMEOUT",
    "EXECUTOR_KINDS",
    "Executor",
    "ExecutorEvent",
    "SerialExecutor",
    "resolve_executor",
]
