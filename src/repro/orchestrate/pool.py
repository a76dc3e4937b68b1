"""Multiprocessing worker pool with per-job timeout and respawn.

Deliberately lower-level than ``multiprocessing.Pool``: each worker is
one process with its own duplex pipe, so the parent always knows *which*
job a worker is running.  That is what makes per-job timeouts
enforceable — a stuck worker is terminated and replaced, and only its
job is charged with the failure — and lets a worker that dies outright
(OOM kill, segfault) surface as a retryable ``crash`` event instead of
hanging the sweep.

The pool is the ``pool`` :class:`~repro.orchestrate.executor.Executor`
backend.  It never touches the result cache or the manifest; it only
moves jobs out and ``(kind, key, payload)`` events back.  Policy
(retry, backoff, degrade) lives in the scheduler's
:class:`~repro.orchestrate.scheduler.Dispatcher`.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing import connection
from typing import Any, Callable, List, Optional

from ..errors import ExecutorConfigError, OrchestrationError
from .executor import (
    EVENT_CRASH,
    EVENT_ERROR,
    EVENT_OK,
    EVENT_TIMEOUT,
    Executor,
    ExecutorEvent,
)


def _worker_main(conn, execute: Callable[[Any], Any], parent_end) -> None:
    """Worker loop: receive ``(key, job)``, send ``(key, kind, payload)``.

    Module-level so it stays picklable under every multiprocessing
    start method (fork, spawn, forkserver).  ``parent_end`` is the
    pool's end of this worker's pipe, which a forked child inherits:
    it is closed first, so that when the parent dies — even by SIGKILL
    — ``recv`` sees EOF and the worker exits instead of lingering as
    an orphan.
    """
    parent_end.close()
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if item is None:
            return
        key, job = item
        try:
            payload = (key, EVENT_OK, execute(job))
        except BaseException as exc:  # noqa: BLE001 — must report, not die
            payload = (key, EVENT_ERROR, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):
            return


class _Worker:
    """One worker process plus the parent's view of what it is doing."""

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.key: Optional[str] = None  # job key in flight, None if idle
        self.started: float = 0.0  # perf_counter at submit

    @property
    def busy(self) -> bool:
        return self.key is not None

    def shutdown(self, grace: float = 0.2) -> None:
        """Ask the worker to exit; escalate to terminate after ``grace``."""
        try:
            if not self.busy:
                self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(grace)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(1.0)
        self.conn.close()


class WorkerPool(Executor):
    """A fixed-size pool of job-executing processes."""

    name = "pool"

    def __init__(
        self,
        num_workers: int,
        execute: Callable[[Any], Any],
        timeout: Optional[float] = None,
        context=None,
    ) -> None:
        if num_workers <= 0:
            raise ExecutorConfigError("worker pool needs at least one worker")
        self._execute = execute
        self._timeout = timeout
        self._ctx = context if context is not None else multiprocessing.get_context()
        self.respawns = 0
        self._workers: List[_Worker] = []
        try:
            for _ in range(num_workers):
                self._workers.append(self._spawn())
        except OrchestrationError:
            self.close()
            raise

    # -- lifecycle -------------------------------------------------------------
    def _spawn(self) -> _Worker:
        try:
            parent_conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, self._execute, parent_conn),
                daemon=True,
            )
            process.start()
        except (OSError, ValueError) as exc:
            raise OrchestrationError(
                f"cannot start worker process: {exc}"
            ) from exc
        child_conn.close()
        return _Worker(process, parent_conn)

    def _replace(self, worker: _Worker) -> None:
        """Kill a (stuck or dead) worker and respawn into its slot."""
        worker.key = None
        worker.process.terminate()
        worker.process.join(1.0)
        try:
            worker.conn.close()
        except OSError:
            pass
        self.respawns += 1
        self._workers[self._workers.index(worker)] = self._spawn()

    def close(self) -> None:
        for worker in self._workers:
            worker.shutdown()
        self._workers = []

    # -- scheduling ------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._workers)

    @property
    def busy_count(self) -> int:
        return sum(1 for worker in self._workers if worker.busy)

    def submit(self, key: str, job: Any) -> None:
        for worker in self._workers:
            if not worker.busy:
                try:
                    worker.conn.send((key, job))
                except (BrokenPipeError, OSError):
                    self._replace(worker)
                    continue
                worker.key = key
                worker.started = time.perf_counter()
                return
        raise OrchestrationError("submit() called with no idle worker")

    def poll(self, wait: float = 0.05) -> List[ExecutorEvent]:
        """Collect finished/failed/crashed/timed-out jobs.

        Blocks up to ``wait`` seconds for the first event.  A worker
        whose pipe hits EOF died mid-job (crash event, retryable); a
        worker past the per-job timeout is terminated and respawned.
        """
        events: List[ExecutorEvent] = []
        busy = [worker for worker in self._workers if worker.busy]
        if busy:
            ready = connection.wait([worker.conn for worker in busy], wait)
            for worker in busy:
                if worker.conn not in ready:
                    continue
                try:
                    key, kind, payload = worker.conn.recv()
                except (EOFError, OSError):
                    events.append(
                        (EVENT_CRASH, worker.key, "worker process died")
                    )
                    self._replace(worker)
                    continue
                worker.key = None
                events.append((kind, key, payload))
        if self._timeout is not None:
            now = time.perf_counter()
            for worker in list(self._workers):
                if worker.busy and now - worker.started > self._timeout:
                    events.append(
                        (
                            EVENT_TIMEOUT,
                            worker.key,
                            f"job exceeded the {self._timeout:g}s timeout",
                        )
                    )
                    self._replace(worker)
        return events
