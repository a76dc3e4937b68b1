"""Crash-safe resume manifest for interrupted sweeps.

The orchestrator journals every job outcome as one JSON line appended
(and flushed) to a manifest file.  Because lines are only appended, a
sweep killed mid-write loses at most its final, partial line — which
:meth:`SweepManifest.statuses` skips, and the next append cuts off —
so a restarted sweep can always read a consistent record of what
finished.  Completed jobs are also in the result cache (the primary
dedup), which makes the manifest the source of truth for *failures*:
which jobs exhausted their retries, with what error, after how many
attempts.
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


class SweepManifest:
    """Append-only JSONL journal of per-job outcomes for one cache dir.

    One journal file, one writing process: crash-tolerance relies on
    O_APPEND single-write atomicity, which shared filesystems (NFS) do
    not guarantee across hosts.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        # REPRO_MANIFEST_FSYNC is read at each append; parsing it here
        # too makes a malformed value fail before the sweep that
        # journals here runs a job.
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
    ) -> None:
        """Append one outcome line; flushed so a later crash keeps it,
        and fsynced too when ``REPRO_MANIFEST_FSYNC`` is on."""
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
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # A sweep killed mid-append leaves a line without its newline;
        # cut it back to the last newline first, so a resumed sweep's
        # journal holds whole records only.
        if self.path.exists() and self.path.stat().st_size > 0:
            with self.path.open("r+b") as journal:
                journal.seek(-1, 2)
                if journal.read(1) != b"\n":
                    journal.seek(0)
                    journal.truncate(journal.read().rfind(b"\n") + 1)
        data = json.dumps(entry, sort_keys=True) + "\n"
        # One O_APPEND write.  POSIX append atomicity holds for writes
        # this small on local filesystems but NOT on NFS, so the
        # journal has exactly one writing process: the orchestrator or
        # the broker.  The single write still matters — it keeps a
        # same-process signal arriving mid-append from tearing a
        # record.
        fd = os.open(
            str(self.path), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        try:
            os.write(fd, data.encode("utf-8"))
            if _fsync_from_env():
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
