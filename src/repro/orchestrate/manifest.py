"""Crash-safe resume manifest for interrupted sweeps.

The orchestrator journals every job outcome as one JSON line appended
(and flushed) to a manifest file.  Because lines are only appended, a
sweep killed mid-write loses at most its final, partial line — which
:meth:`SweepManifest.statuses` skips — so a restarted sweep can always
read a consistent record of what finished.  Completed jobs are also in
the result cache (the primary dedup), which makes the manifest the
source of truth for *failures*: which jobs exhausted their retries,
with what error, after how many attempts.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Set, Union

from ..config import env_flag

#: terminal job states recorded in the journal.
STATUS_DONE = "done"
STATUS_FAILED = "failed"
#: drained from the queue before execution (never ran, nothing cached).
STATUS_CANCELLED = "cancelled"
#: informational (non-terminal) states journalled by the bus backend:
#: a worker took a lease on the job / the parent reclaimed an expired
#: lease.  ``done_keys()``/``failed()`` ignore them by construction —
#: a claimed job that never reports back is simply retried on resume.
STATUS_CLAIMED = "claimed"
STATUS_RECLAIMED = "reclaimed"

#: opt-in environment switch: fsync every appended record so a host
#: that loses power (not just the process) cannot tear the journal.
MANIFEST_FSYNC_ENV = "REPRO_MANIFEST_FSYNC"


def _fsync_from_env() -> bool:
    return env_flag(MANIFEST_FSYNC_ENV, False)


@dataclass(frozen=True)
class ManifestRecord:
    """The latest journalled outcome of one job."""

    key: str
    status: str
    attempts: int = 1
    error: Optional[str] = None
    label: Optional[str] = None
    #: workload-category tag of the job's mix (``"CCF+LLCT"``-style,
    #: see :func:`repro.workloads.mix_category`); lets evaluation
    #: tooling slice by category without re-deriving it from workload
    #: names.  None for journals written before categories existed.
    category: Optional[str] = None
    #: compact host-throughput digest for executed jobs (wall seconds,
    #: simulated instructions/s, accesses/s); None for cached/failed
    #: jobs or journals written before host metrics existed.
    host: Optional[Dict] = None
    #: request trace this outcome belongs to (repro.obs); None for
    #: journals written before tracing existed or untraced runs.
    trace_id: Optional[str] = None
    #: bus worker id that claimed/executed the job; None for in-process
    #: backends and journals written before distributed sweeps existed.
    worker: Optional[str] = None


class SweepManifest:
    """Append-only JSONL journal of per-job outcomes for one cache dir.

    One journal file, one writing process: crash-tolerance relies on
    O_APPEND single-write atomicity, which shared filesystems (NFS) do
    not guarantee across hosts — which is why the bus gives every
    worker its own journal file instead of sharing this one.
    """

    def __init__(self, path: Union[str, Path], fsync: Optional[bool] = None) -> None:
        self.path = Path(path)
        #: None defers to REPRO_MANIFEST_FSYNC at each append; it is
        #: parsed once here too, so a malformed value fails before the
        #: sweep that journals here runs a job.
        self.fsync = fsync
        if fsync is None:
            _fsync_from_env()

    def record(
        self,
        key: str,
        status: str,
        attempts: int = 1,
        error: Optional[str] = None,
        label: Optional[str] = None,
        category: Optional[str] = None,
        host: Optional[Dict] = None,
        trace_id: Optional[str] = None,
        worker: Optional[str] = None,
        fsync: Optional[bool] = None,
    ) -> None:
        """Append one outcome line; flushed so a later crash keeps it.

        ``fsync=True`` forces the record through to disk (lease records
        must survive host power loss, not just process death); the
        default inherits the manifest-level / environment setting.
        """
        entry = {"key": key, "status": status, "attempts": attempts}
        if error is not None:
            entry["error"] = error
        if label is not None:
            entry["label"] = label
        if category is not None:
            entry["category"] = category
        if host is not None:
            entry["host"] = host
        if trace_id is not None:
            entry["trace_id"] = trace_id
        if worker is not None:
            entry["worker"] = worker
        if fsync is None:
            fsync = self.fsync if self.fsync is not None else _fsync_from_env()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # A sweep killed mid-append leaves a line without its newline;
        # terminate it first so the partial line poisons nothing else.
        needs_newline = False
        if self.path.exists() and self.path.stat().st_size > 0:
            with self.path.open("rb") as tail:
                tail.seek(-1, 2)
                needs_newline = tail.read(1) != b"\n"
        data = json.dumps(entry, sort_keys=True) + "\n"
        if needs_newline:
            data = "\n" + data
        # One O_APPEND write.  POSIX append atomicity holds for writes
        # this small on local filesystems but NOT on NFS, so every
        # journal file has exactly one writing process: the
        # orchestrator/broker owns the sweep manifest, the bus parent
        # owns journal.jsonl, and each bus worker appends claims to
        # its own journal.<worker_id>.jsonl (merged on read via
        # FileBus.journal_paths).  The single write still matters —
        # it keeps a same-process signal arriving mid-append from
        # tearing a record.
        fd = os.open(
            str(self.path), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        try:
            os.write(fd, data.encode("utf-8"))
            if fsync:
                os.fsync(fd)
        finally:
            os.close(fd)

    def statuses(self) -> Dict[str, ManifestRecord]:
        """Latest record per job key; tolerates a truncated final line."""
        records: Dict[str, ManifestRecord] = {}
        if not self.path.exists():
            return records
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # partial line from a crash mid-append
            if not isinstance(entry, dict) or "key" not in entry:
                continue
            records[entry["key"]] = ManifestRecord(
                key=entry["key"],
                status=entry.get("status", ""),
                attempts=entry.get("attempts", 1),
                error=entry.get("error"),
                label=entry.get("label"),
                category=entry.get("category"),
                host=entry.get("host"),
                trace_id=entry.get("trace_id"),
                worker=entry.get("worker"),
            )
        return records

    def done_keys(self) -> Set[str]:
        return {
            key
            for key, record in self.statuses().items()
            if record.status == STATUS_DONE
        }

    def failed(self) -> Dict[str, ManifestRecord]:
        return {
            key: record
            for key, record in self.statuses().items()
            if record.status == STATUS_FAILED
        }
