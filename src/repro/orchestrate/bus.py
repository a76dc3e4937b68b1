"""Filesystem message bus: distributed, crash-safe sweep execution.

The :class:`BusExecutor` turns a shared directory into a job queue.
The parent spools one JSON *envelope* per job into ``jobs/``;
independent worker processes — ``python -m repro.orchestrate worker
--bus <dir>``, launchable on any host that mounts the directory —
claim envelopes by atomically creating a *lease* file, execute the
referenced callable, publish a pickled result into ``results/`` and
withdraw the envelope.  Everything is plain files with atomic
create/replace semantics, so the bus needs no daemon, no sockets and
no third-party broker.

Crash safety is lease-based.  A worker heartbeats its lease (and its
``workers/<id>.json`` registration) by bumping the file mtime while it
executes.  The parent judges freshness *observer-relatively*: it
remembers the last mtime it saw and the local monotonic instant the
mtime last changed — never comparing remote wall clocks — and
reclaims a lease that has not changed for ``lease_timeout`` seconds:
the envelope is withdrawn, the reclaim is journalled (fsynced) to the
bus journal, and the job is reported as a crash so the scheduler's
normal retry path re-spools it for another worker.  SIGKILLing a
worker mid-job therefore loses nothing and duplicates nothing: its
lease goes stale, exactly one reclaim happens (the lease file is the
mutual exclusion), and the retry is a fresh attempt.

``lease_timeout`` must exceed the shared filesystem's mtime
propagation window — on NFS, the attribute-cache lifetime
(``actimeo``, commonly 3-60 seconds) — or the parent will reclaim
leases of perfectly healthy workers whose heartbeats it simply has
not seen yet.  The default is sized for that (see
:data:`DEFAULT_LEASE_TIMEOUT`); only lower it on a local-filesystem
bus, as the crash-safety tests do.

Publication ordering makes completion unambiguous: a worker writes
the result (atomic replace), *then* removes the envelope, *then*
frees the lease.  The parent always checks for a result before
reclaiming, so a worker that died after publishing is indistinguishable
from one that finished cleanly.  Both withdrawals are guarded: the
worker re-reads the envelope and the lease first, and deletes each
only if it still belongs to *this* attempt — after a reclaim, the
re-spooled envelope and any successor's lease are someone else's
records and survive the superseded attempt's cleanup.

Journals are single-writer by construction: each worker appends
claim records to its own ``journal.<worker_id>.jsonl`` and the parent
appends reclaims to ``journal.jsonl``, because append atomicity — the
property that keeps concurrent JSONL writers from interleaving — does
not hold on NFS.  Readers merge the ``journal*.jsonl`` family (see
:meth:`FileBus.journal_paths`).
"""

from __future__ import annotations

import base64
import importlib
import json
import os
import pickle
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import ExecutorConfigError, OrchestrationError
from ..telemetry import get_logger
from .executor import (
    EVENT_CRASH,
    EVENT_ERROR,
    EVENT_OK,
    EVENT_TIMEOUT,
    Executor,
    ExecutorEvent,
)
from .job import execute_job
from .manifest import STATUS_CLAIMED, STATUS_RECLAIMED, SweepManifest

log = get_logger("repro.orchestrate.bus")

#: bumped when the envelope layout changes incompatibly.
ENVELOPE_SCHEMA = 1

#: the default job executor shipped in envelopes.
DEFAULT_EXECUTE_REF = "repro.orchestrate.job:execute_job"

#: worker heartbeat period; must be well under any lease timeout.
DEFAULT_HEARTBEAT = 0.25

#: a lease whose mtime has not moved for this long (observer clock) is
#: considered abandoned and is reclaimed.  Deliberately generous — two
#: orders of magnitude over the heartbeat period — because a reclaim
#: that fires on a *healthy* worker re-executes its job: on network
#: filesystems the parent may not see heartbeat mtime changes for the
#: length of the mount's attribute-cache window (NFS ``actimeo``
#: defaults range from 3 to 60 seconds), so ``lease_timeout`` must
#: comfortably exceed that window, never approach the heartbeat.
DEFAULT_LEASE_TIMEOUT = 120 * DEFAULT_HEARTBEAT


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Publish ``data`` at ``path`` so readers see all of it or none.

    Spool files are read by other processes (possibly other hosts), so
    every publication goes through a same-directory temp file, fsync,
    and ``os.replace`` — the only write pattern allowed in bus modules
    (ReproCheck PX4 enforces this).
    """
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    fd = os.open(str(tmp), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(str(tmp), str(path))


def _unlink_quietly(path: Path) -> None:
    try:
        os.unlink(str(path))
    except OSError:
        pass


def execute_ref_of(execute: Callable[[Any], Any]) -> str:
    """``module:name`` reference for a callable shipped by name.

    Bus workers import the executor rather than unpickling it, so only
    module-level functions qualify — closures and methods have no
    address another process can resolve.
    """
    if isinstance(execute, str):
        return execute
    module = getattr(execute, "__module__", None)
    name = getattr(execute, "__qualname__", None) or getattr(
        execute, "__name__", None
    )
    if not module or not name or "<locals>" in name or "." in name:
        raise ExecutorConfigError(
            "the bus executor ships its execute callable by reference; "
            f"{execute!r} must be a module-level function"
        )
    return f"{module}:{name}"


def resolve_execute_ref(ref: str) -> Callable[[Any], Any]:
    module_name, _, attr = ref.partition(":")
    if not module_name or not attr:
        raise OrchestrationError(f"malformed execute reference {ref!r}")
    try:
        module = importlib.import_module(module_name)
        execute = getattr(module, attr)
    except (ImportError, AttributeError) as exc:
        raise OrchestrationError(
            f"cannot resolve execute reference {ref!r}: {exc}"
        ) from exc
    if not callable(execute):
        raise OrchestrationError(f"execute reference {ref!r} is not callable")
    return execute


def default_worker_id() -> str:
    return f"{platform.node() or 'host'}-{os.getpid()}"


class FileBus:
    """Path layout of one bus directory (shared by parent and workers)."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.jobs = self.root / "jobs"
        self.leases = self.root / "leases"
        self.results = self.root / "results"
        self.workers = self.root / "workers"
        self.journal = self.root / "journal.jsonl"

    def ensure(self) -> None:
        for directory in (self.jobs, self.leases, self.results, self.workers):
            directory.mkdir(parents=True, exist_ok=True)

    def job_path(self, key: str) -> Path:
        return self.jobs / f"{key}.json"

    def lease_path(self, key: str) -> Path:
        return self.leases / f"{key}.json"

    def result_path(self, key: str, attempt: int) -> Path:
        return self.results / f"{key}.{attempt}.pkl"

    def result_paths(self, key: str) -> List[Path]:
        return sorted(self.results.glob(f"{key}.*.pkl"))

    def worker_path(self, worker_id: str) -> Path:
        return self.workers / f"{worker_id}.json"

    def worker_journal(self, worker_id: str) -> Path:
        """A worker's private claim journal — one writer per file, so
        the bus never depends on cross-host append atomicity."""
        return self.root / f"journal.{worker_id}.jsonl"

    def journal_paths(self) -> List[Path]:
        """Every journal file on the bus: the parent's ``journal.jsonl``
        plus one ``journal.<worker_id>.jsonl`` per worker that ever
        claimed a job.  Audit readers merge the family."""
        return sorted(self.root.glob("journal*.jsonl"))


class _Freshness:
    """Observer-relative staleness for heartbeat files.

    Cross-host wall clocks cannot be compared, so freshness is judged
    by *change*: remember each file's last seen mtime and the local
    monotonic instant it changed; a file is stale once it has not
    changed for longer than the timeout on the observer's own clock.
    """

    def __init__(self) -> None:
        self._seen: Dict[str, Tuple[int, float]] = {}

    def age(self, name: str, mtime_ns: int, now: float) -> float:
        last = self._seen.get(name)
        if last is None or last[0] != mtime_ns:
            self._seen[name] = (mtime_ns, now)
            return 0.0
        return now - last[1]

    def forget(self, name: str) -> None:
        self._seen.pop(name, None)


class BusExecutor(Executor):
    """Executor backend over a :class:`FileBus` spool directory.

    ``spawn_workers`` local worker processes are started (and respawned
    if they die, recycled when ``max_jobs_per_worker`` retires them);
    pass 0 to rely entirely on externally launched workers — e.g. other
    hosts sharing the directory.
    """

    name = "bus"

    def __init__(
        self,
        bus_dir,
        execute: Callable[[Any], Any] = execute_job,
        spawn_workers: int = 0,
        timeout: Optional[float] = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_jobs_per_worker: Optional[int] = None,
        cache_dir: Optional[str] = None,
    ) -> None:
        if lease_timeout <= 0:
            raise ExecutorConfigError("lease_timeout must be > 0")
        if max_jobs_per_worker is not None and max_jobs_per_worker < 1:
            raise ExecutorConfigError("max_jobs_per_worker must be >= 1")
        self.bus = FileBus(bus_dir)
        self.bus.ensure()
        self._execute_ref = execute_ref_of(execute)
        self._timeout = timeout
        self._lease_timeout = lease_timeout
        self._max_jobs = max_jobs_per_worker
        self._cache_dir = str(cache_dir) if cache_dir else None
        self._journal = SweepManifest(self.bus.journal, fsync=True)
        self._fresh = _Freshness()
        #: key -> {"attempt": n, "claim_mono": first-lease-sighting}
        self._inflight: Dict[str, Dict[str, Any]] = {}
        #: per-key attempt counter; survives retries so result files
        #: from superseded attempts can never be mistaken for current.
        self._attempts: Dict[str, int] = {}
        self._spawn_target = max(0, int(spawn_workers))
        self._procs: List[subprocess.Popen] = []
        self._seq = 0
        self._closed = False
        self.respawns = 0
        self.recycles = 0
        self.lease_reclaims = 0
        try:
            for _ in range(self._spawn_target):
                self._procs.append(self._spawn())
        except OrchestrationError:
            self.close()
            raise

    # -- worker process management ---------------------------------------------
    def _spawn(self) -> subprocess.Popen:
        self._seq += 1
        worker_id = f"spawn-{os.getpid()}-{self._seq}"
        cmd = [
            sys.executable,
            "-m",
            "repro.orchestrate",
            "worker",
            "--bus",
            str(self.bus.root),
            "--worker-id",
            worker_id,
        ]
        if self._max_jobs is not None:
            cmd += ["--max-jobs", str(self._max_jobs)]
        # repro: allow[DX3] — building the child's env, not job identity
        env = dict(os.environ)
        # Workers must import the same modules the parent resolved —
        # including test-support modules pytest put on sys.path.
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        try:
            return subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
        except OSError as exc:
            raise OrchestrationError(
                f"cannot start bus worker: {exc}"
            ) from exc

    def _reap_spawned(self) -> None:
        """Respawn spawned workers that exited; classify why they did.

        Exit 0 with a jobs cap is a planned recycle; anything else
        (crash, SIGKILL) counts against the ``respawns`` health signal
        the scheduler uses to give up on a dying fleet.
        """
        if self._closed:
            return
        for index, proc in enumerate(self._procs):
            code = proc.poll()
            if code is None:
                continue
            if code == 0 and self._max_jobs is not None:
                self.recycles += 1
            else:
                self.respawns += 1
            self._procs[index] = self._spawn()

    def _kill_spawned(self, pid: Optional[int]) -> None:
        if pid is None:
            return
        for proc in self._procs:
            if proc.pid == pid and proc.poll() is None:
                proc.kill()
                proc.wait()
                return

    # -- executor protocol -----------------------------------------------------
    def submit(
        self,
        key: str,
        job: Any,
        trace_id: Optional[str] = None,
        label: Optional[str] = None,
    ) -> None:
        attempt = self._attempts.get(key, 0) + 1
        self._attempts[key] = attempt
        # Results from earlier runs or superseded attempts must not be
        # mistaken for this submission's outcome.
        for stale in self.bus.result_paths(key):
            _unlink_quietly(stale)
        envelope = {
            "schema": ENVELOPE_SCHEMA,
            "key": key,
            "attempt": attempt,
            "execute": self._execute_ref,
            "cache_dir": self._cache_dir,
            "label": label,
            "trace_id": trace_id,
            "job": base64.b64encode(
                pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
            ).decode("ascii"),
        }
        _atomic_write_bytes(
            self.bus.job_path(key),
            (json.dumps(envelope, sort_keys=True) + "\n").encode("utf-8"),
        )
        self._inflight[key] = {"attempt": attempt, "claim_mono": None}

    def poll(self, wait: float = 0.05) -> List[ExecutorEvent]:
        self._reap_spawned()
        events: List[ExecutorEvent] = []
        now = time.monotonic()
        for key in list(self._inflight):
            state = self._inflight[key]
            event = self._check_result(key, state)
            if event is not None:
                events.append(event)
                continue
            lease = self.bus.lease_path(key)
            try:
                stat = os.stat(str(lease))
            except OSError:
                stat = None
            if stat is not None:
                if state["claim_mono"] is None:
                    state["claim_mono"] = now
                age = self._fresh.age(str(lease), stat.st_mtime_ns, now)
                if age > self._lease_timeout:
                    # The worker may have published and died before it
                    # could free the lease — a result always wins.
                    event = self._check_result(key, state)
                    if event is not None:
                        events.append(event)
                    else:
                        events.append(self._reclaim(key, state))
                    continue
            if (
                self._timeout is not None
                and state["claim_mono"] is not None
                and now - state["claim_mono"] > self._timeout
            ):
                events.append(self._expire(key, state))
        if not events:
            time.sleep(max(0.0, min(wait, 0.05)))
        return events

    def _check_result(
        self, key: str, state: Dict[str, Any]
    ) -> Optional[ExecutorEvent]:
        path = self.bus.result_path(key, state["attempt"])
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            kind, payload = pickle.loads(raw)
        except Exception:  # noqa: BLE001 — corrupt result => retryable
            kind, payload = EVENT_CRASH, "unreadable result envelope"
        self._forget(key)
        return (kind, key, payload)

    def _reclaim(self, key: str, state: Dict[str, Any]) -> ExecutorEvent:
        worker = self._lease_field(key, "worker")
        self._journal.record(
            key,
            STATUS_RECLAIMED,
            attempts=state["attempt"],
            worker=worker,
            fsync=True,
        )
        log.warning(
            "lease_reclaimed", key=key, worker=worker, attempt=state["attempt"]
        )
        self.lease_reclaims += 1
        self._forget(key)
        return (EVENT_CRASH, key, f"bus worker lease expired ({worker})")

    def _expire(self, key: str, state: Dict[str, Any]) -> ExecutorEvent:
        pid = self._lease_field(key, "pid")
        self._forget(key)
        # Only workers we spawned can be killed; a remote worker's
        # stale attempt is simply ignored when it eventually lands.
        self._kill_spawned(pid)
        return (
            EVENT_TIMEOUT,
            key,
            f"job exceeded the {self._timeout:g}s timeout",
        )

    def _lease_field(self, key: str, field: str) -> Optional[Any]:
        try:
            data = json.loads(self.bus.lease_path(key).read_text("utf-8"))
        except (OSError, ValueError):
            return None
        return data.get(field) if isinstance(data, dict) else None

    def _forget(self, key: str) -> None:
        """Withdraw every spool record of ``key`` (job first, so no
        worker can claim between the removals)."""
        _unlink_quietly(self.bus.job_path(key))
        for path in self.bus.result_paths(key):
            _unlink_quietly(path)
        lease = self.bus.lease_path(key)
        _unlink_quietly(lease)
        self._fresh.forget(str(lease))
        self._inflight.pop(key, None)

    def close(self) -> None:
        self._closed = True
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._procs = []

    # -- liveness --------------------------------------------------------------
    def _live_workers(self) -> int:
        """Workers with a fresh registration heartbeat, observer-relative."""
        now = time.monotonic()
        live = 0
        for path in self.bus.workers.glob("*.json"):
            try:
                stat = os.stat(str(path))
            except OSError:
                continue
            if self._fresh.age(str(path), stat.st_mtime_ns, now) <= self._lease_timeout:
                live += 1
        return live

    @property
    def size(self) -> int:
        spawned = sum(1 for proc in self._procs if proc.poll() is None)
        return max(self._live_workers(), spawned, 1)

    @property
    def busy_count(self) -> int:
        return len(self._inflight)

    def liveness(self) -> Dict[str, Any]:
        data = super().liveness()
        data["live_workers"] = self._live_workers()
        data["spool_depth"] = sum(1 for _ in self.bus.jobs.glob("*.json"))
        return data


class BusWorker:
    """One job-claiming worker process over a :class:`FileBus`.

    Runs until stopped, until ``max_jobs`` retires it (exit 0, the
    recycle signal) or until ``idle_exit`` seconds pass with nothing to
    claim.  A heartbeat thread bumps the worker registration and the
    current lease mtime so observers can tell it is alive.
    """

    def __init__(
        self,
        bus_dir,
        worker_id: Optional[str] = None,
        max_jobs: Optional[int] = None,
        idle_exit: Optional[float] = None,
        heartbeat: float = DEFAULT_HEARTBEAT,
        poll_interval: float = 0.05,
    ) -> None:
        self.bus = FileBus(bus_dir)
        self.bus.ensure()
        self.worker_id = worker_id or default_worker_id()
        self.max_jobs = max_jobs
        self.idle_exit = idle_exit
        self.heartbeat = heartbeat
        self.poll_interval = poll_interval
        self.jobs_done = 0
        self._journal = SweepManifest(
            self.bus.worker_journal(self.worker_id), fsync=True
        )
        self._stop = threading.Event()
        self._lease_lock = threading.Lock()
        self._current_lease: Optional[Path] = None
        self._registration = self.bus.worker_path(self.worker_id)

    # -- lifecycle -------------------------------------------------------------
    def run(self) -> int:
        _atomic_write_bytes(
            self._registration,
            (
                json.dumps(
                    {"worker": self.worker_id, "pid": os.getpid()},
                    sort_keys=True,
                )
                + "\n"
            ).encode("utf-8"),
        )
        beat = threading.Thread(target=self._heartbeat_loop, daemon=True)
        beat.start()
        idle_since = time.monotonic()
        try:
            while not self._stop.is_set():
                claimed = self._claim_next()
                if claimed is None:
                    if (
                        self.idle_exit is not None
                        and time.monotonic() - idle_since > self.idle_exit
                    ):
                        return 0
                    time.sleep(self.poll_interval)
                    continue
                self._execute_one(*claimed)
                self.jobs_done += 1
                idle_since = time.monotonic()
                if self.max_jobs is not None and self.jobs_done >= self.max_jobs:
                    return 0  # planned retirement: the recycle signal
            return 0
        finally:
            self._stop.set()
            beat.join(1.0)
            _unlink_quietly(self._registration)

    def stop(self) -> None:
        self._stop.set()

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat):
            with self._lease_lock:
                lease = self._current_lease
            for path in (lease, self._registration):
                if path is None:
                    continue
                try:
                    os.utime(str(path), None)
                except OSError:
                    pass

    # -- claiming --------------------------------------------------------------
    def _claim_next(self) -> Optional[Tuple[str, Dict[str, Any], Path]]:
        for path in sorted(self.bus.jobs.glob("*.json")):
            key = path.stem
            lease = self.bus.lease_path(key)
            if lease.exists():
                continue
            if not self._try_claim(lease):
                continue
            # The claim only wins if the envelope still exists — the
            # parent may have withdrawn it (reclaim, timeout) while we raced.
            try:
                envelope = json.loads(path.read_text("utf-8"))
            except (OSError, ValueError):
                _unlink_quietly(lease)
                continue
            return key, envelope, lease
        return None

    def _try_claim(self, lease: Path) -> bool:
        """Atomically create the lease file; False if someone else won.

        O_EXCL creation is the bus's mutual exclusion: exactly one
        worker can own a job, across processes and hosts.  The lease is
        fsynced so a host power-cut cannot resurrect an unclaimed job
        under two owners.
        """
        try:
            fd = os.open(
                str(lease), os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
            )
        except FileExistsError:
            return False
        except OSError:
            return False
        try:
            os.write(
                fd,
                (
                    json.dumps(
                        {"worker": self.worker_id, "pid": os.getpid()},
                        sort_keys=True,
                    )
                    + "\n"
                ).encode("utf-8"),
            )
            os.fsync(fd)
        finally:
            os.close(fd)
        return True

    # -- execution -------------------------------------------------------------
    def _execute_one(
        self, key: str, envelope: Dict[str, Any], lease: Path
    ) -> None:
        attempt = int(envelope.get("attempt", 1))
        with self._lease_lock:
            self._current_lease = lease
        self._journal.record(
            key,
            STATUS_CLAIMED,
            attempts=attempt,
            worker=self.worker_id,
            label=envelope.get("label"),
            trace_id=envelope.get("trace_id"),
            fsync=True,
        )
        job = None
        try:
            job = pickle.loads(base64.b64decode(envelope["job"]))
            execute = resolve_execute_ref(
                envelope.get("execute") or DEFAULT_EXECUTE_REF
            )
            summary = execute(job)
        except BaseException as exc:  # noqa: BLE001 — must report, not die
            kind: str = EVENT_ERROR
            payload: Any = f"{type(exc).__name__}: {exc}"
        else:
            kind, payload = EVENT_OK, summary
            self._publish_cache(envelope, key, job, summary)
        _atomic_write_bytes(
            self.bus.result_path(key, attempt),
            pickle.dumps((kind, payload), protocol=pickle.HIGHEST_PROTOCOL),
        )
        # Publication order: result visible -> envelope withdrawn ->
        # lease freed.  An observer can then never see "no result, no
        # envelope, no lease" for a job that actually completed.
        #
        # Both withdrawals are guarded against reclaim: if the parent
        # judged this lease stale (suspended process, NFS mtime lag)
        # and re-spooled the job, the envelope on the bus now carries
        # attempt N+1 and the lease may belong to a successor worker —
        # deleting either would strand the new attempt (an envelope
        # nobody can claim, or a duplicate-claim window), so a
        # superseded attempt must only remove records it still owns.
        if self._spooled_attempt(key) == attempt:
            _unlink_quietly(self.bus.job_path(key))
        with self._lease_lock:
            self._current_lease = None
        if self._owns_lease(lease):
            _unlink_quietly(lease)

    def _spooled_attempt(self, key: str) -> Optional[int]:
        """The attempt number of the envelope currently spooled for
        ``key``; None if there is none (or it is unreadable)."""
        try:
            envelope = json.loads(
                self.bus.job_path(key).read_text("utf-8")
            )
        except (OSError, ValueError):
            return None
        if not isinstance(envelope, dict):
            return None
        try:
            return int(envelope.get("attempt", 1))
        except (TypeError, ValueError):
            return None

    def _owns_lease(self, lease: Path) -> bool:
        try:
            data = json.loads(lease.read_text("utf-8"))
        except (OSError, ValueError):
            return False
        return isinstance(data, dict) and data.get("worker") == self.worker_id

    def _publish_cache(
        self, envelope: Dict[str, Any], key: str, job: Any, summary: Any
    ) -> None:
        """Store the summary into the shared content-addressed cache.

        Best-effort: the scheduler stores every completion anyway, and
        because :meth:`ResultCache.store` is canonicalising and atomic,
        both writers produce byte-identical files.
        """
        cache_dir = envelope.get("cache_dir")
        if not cache_dir:
            return
        try:
            from .cache import ResultCache

            ResultCache(cache_dir).store(key, summary)
        except Exception:  # noqa: BLE001 — worker-side store is advisory
            log.warning("worker_cache_store_failed", key=key)


__all__ = [
    "BusExecutor",
    "BusWorker",
    "DEFAULT_EXECUTE_REF",
    "DEFAULT_HEARTBEAT",
    "DEFAULT_LEASE_TIMEOUT",
    "ENVELOPE_SCHEMA",
    "FileBus",
    "execute_ref_of",
    "resolve_execute_ref",
]
