"""Result memo shared by the serial runner and the orchestrator.

One :class:`ResultCache` fronts both an in-process dict and the
``.repro-cache`` disk directory.  All writes funnel through
:meth:`ResultCache.store` in the *parent* process — workers only ever
return summaries over a pipe — so parallel sweeps produce cache files
byte-identical to serial ones and there is never a concurrent writer
per entry.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Optional

from .job import RunSummary


def summary_to_dict(summary: RunSummary) -> Dict[str, Any]:
    """The JSON shape of a cache entry (and of the service's result body).

    The host digest is per-execution provenance (wall times differ run
    to run), so it is stripped unconditionally: entries depend only on
    simulated output, keeping serial and parallel sweeps byte-identical.
    Optional telemetry fields are omitted when unset so the entries of
    untraced runs stay byte-identical to pre-telemetry entries (pinned
    by the golden tests).
    """
    data = asdict(summary)
    data.pop("host", None)
    for optional in ("intervals", "telemetry"):
        if data.get(optional) is None:
            data.pop(optional, None)
    return data


class ResultCache:
    """Two-level (memory, disk) memo of :class:`RunSummary` by job key."""

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self._memory: Dict[str, RunSummary] = {}
        self._disk: Optional[Path] = None
        if cache_dir:
            self._disk = Path(cache_dir)
            self._disk.mkdir(parents=True, exist_ok=True)

    @property
    def directory(self) -> Optional[Path]:
        """The disk directory, or ``None`` for a memory-only cache."""
        return self._disk

    def path_for(self, key: str) -> Optional[Path]:
        return self._disk / f"{key}.json" if self._disk is not None else None

    def load(self, key: str) -> Optional[RunSummary]:
        if key in self._memory:
            return self._memory[key]
        path = self.path_for(key)
        if path is None or not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
            summary = RunSummary(**data)
        except (ValueError, TypeError):
            return None  # stale/corrupt cache entry; recompute
        self._memory[key] = summary
        return summary

    def store(self, key: str, summary: RunSummary) -> None:
        self._memory[key] = summary
        path = self.path_for(key)
        if path is not None:
            # Atomic publish: write the entry to a sibling temp file and
            # os.replace() it into place.  A process killed mid-write can
            # only ever leave a stray ``*.tmp`` behind — never a truncated
            # ``<key>.json`` that would poison later readers (the service
            # serves this directory to concurrent clients, so a corrupt
            # entry would be replayed, not recomputed, forever).
            # The temp name carries the pid so two *processes* sharing a
            # cache directory (a CLI sweep next to a running service)
            # never interleave bytes in one temp file; last replace wins
            # with an identical payload either way (content-hash key).
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            tmp.write_text(json.dumps(summary_to_dict(summary)))
            os.replace(tmp, path)
