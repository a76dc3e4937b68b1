"""Exporters: JSONL event logs, Chrome traces, enriched run manifests.

Three artefacts, all schema-pinned by :mod:`repro.telemetry.schema`:

* ``events-<key>.jsonl`` — one :class:`~repro.telemetry.events.
  TraceEvent` per line, written by whichever process executed the job
  (worker processes write their own files; names are job-key-unique so
  there is never a concurrent writer).
* ``trace.json`` — a Chrome-trace file loadable in ``chrome://tracing``
  or https://ui.perfetto.dev, written by
  :func:`repro.obs.spans_to_chrome_trace` from the run's span book.
  Process 0 is the sweep's trace in *wall time*: one ``job`` span per
  executed job, laid out in non-overlapping lanes, with the job's host
  phases as ``phase`` children on its lane.  Each traced job also
  appears as its own process in *simulated time* (1 cycle rendered as
  1 µs) with one thread per core carrying its ``warmup`` / ``measure``
  ``cycles`` spans.
* ``run-manifest.json`` — the run-wide structured record: per job its
  key, label, terminal status, attempt count, wall/CPU seconds and
  cache-hit provenance.

Wall times are ``time.perf_counter`` offsets from the span book's
origin — pure elapsed time, never the host clock (lint rule CS3).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from ..obs.tracing import SpanBook, new_trace_id, spans_to_chrome_trace
from .config import TelemetryConfig
from .events import TraceEvent

#: ``run-manifest.json`` schema version (see RUN_MANIFEST_SCHEMA).
#: v2 adds the run-wide ``trace_id`` and per-job ``trace_id``/``span_id``
#: join keys (repro.obs request tracing).
MANIFEST_SCHEMA_VERSION = 2


def write_events_jsonl(
    path: Union[str, Path], events: Iterable[TraceEvent]
) -> Path:
    """Write one JSON object per event; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.to_json_dict(), sort_keys=True))
            handle.write("\n")
    return path


class RunTelemetry:
    """Run-wide telemetry for one sweep: job provenance, spans, exports.

    The orchestrator (and the serial :class:`repro.experiments.Runner`
    path) report every job outcome here; :meth:`write` then produces
    the Chrome trace and the enriched run manifest in one place, so
    parallel and serial sweeps export identically-shaped artefacts.
    """

    def __init__(
        self, config: TelemetryConfig, trace_id: Optional[str] = None
    ) -> None:
        self.config = config
        self.out_dir = Path(config.out_dir)
        #: run-manifest rows, one per job outcome.
        self.jobs: List[dict] = []
        #: the run's spans and its only clock; bounded only by the
        #: sweep itself, like the manifest rows.
        self.spans = SpanBook(max_spans=sys.maxsize)
        # every CLI sweep is one trace; callers that arrived with a
        # trace (the service path) pass theirs so artefacts join up.
        self.trace_id = trace_id if trace_id is not None else new_trace_id()

    def now(self) -> float:
        """Seconds since this sweep's telemetry started (wall span)."""
        return self.spans.now()

    # -- provenance hooks (orchestrator / runner) ---------------------------
    def note_cached(self, key: str, label: str) -> None:
        self.jobs.append(
            {
                "key": key,
                "label": label,
                "status": "cached",
                "cached": True,
                "attempts": 0,
            }
        )

    def note_executed(
        self,
        key: str,
        label: str,
        status: str,
        attempts: int,
        start: float,
        end: float,
        telemetry: Optional[Dict] = None,
        error: Optional[str] = None,
        host: Optional[Dict] = None,
    ) -> None:
        job = self.spans.add(
            label,
            self.trace_id,
            start,
            end,
            kind="job",
            key=key,
            status=status,
            attempts=attempts,
        )
        row = {
            "key": key,
            "label": label,
            "status": status,
            "cached": False,
            "attempts": attempts,
            "wall_s": max(0.0, end - start),
            "trace_id": self.trace_id,
            "span_id": job.span_id,
        }
        if telemetry:
            if "recorded" in telemetry:
                row["events"] = int(telemetry["recorded"])
            for core in telemetry.get("core_phases") or []:
                warmup = float(core.get("warmup_cycles", 0.0))
                quota = float(core.get("quota_cycles", warmup))
                phases = [("warmup", 0.0, warmup)] if warmup > 0 else []
                phases.append(("measure", warmup, max(warmup, quota)))
                for name, begin, finish in phases:
                    self.spans.add(
                        name,
                        self.trace_id,
                        begin,
                        finish,
                        parent_id=job.span_id,
                        kind="phase",
                        clock="cycles",
                        core=int(core.get("core", 0)),
                    )
        if host:
            # host-performance digest from repro.perf (wall seconds,
            # simulated-work rates, optional phase report).
            row["host"] = host
            if "cpu_s" in host:
                row["cpu_s"] = float(host["cpu_s"])
            self.spans.add_phases(job, host.get("phases") or {})
        if error is not None:
            row["error"] = error
        self.jobs.append(row)

    # -- artefact writers ----------------------------------------------------
    def manifest_dict(self, settings: Optional[Dict] = None) -> Dict:
        manifest = {
            "schema": MANIFEST_SCHEMA_VERSION,
            "jobs": [dict(job) for job in self.jobs],
            "trace_id": self.trace_id,
        }
        if settings is not None:
            manifest["settings"] = settings
        return manifest

    def write(self, settings: Optional[Dict] = None) -> Dict[str, Path]:
        """Write ``trace.json`` + ``run-manifest.json``; returns the paths."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = self.out_dir / "trace.json"
        trace_path.write_text(
            json.dumps(spans_to_chrome_trace(self.spans.snapshot())),
            encoding="utf-8",
        )
        manifest_path = self.out_dir / "run-manifest.json"
        manifest_path.write_text(
            json.dumps(self.manifest_dict(settings), indent=2, sort_keys=True),
            encoding="utf-8",
        )
        return {"trace": trace_path, "manifest": manifest_path}
