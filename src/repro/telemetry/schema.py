"""Checked-in schemas for every telemetry artefact, plus a validator.

The schemas pin the on-disk contract of the exporters: JSONL event
logs, the Chrome-trace file (the subset of the Trace Event Format we
emit — ``ph: "X"`` complete events and ``ph: "M"`` metadata records),
and the enriched run manifest.  CI validates a traced smoke run
against them so exporter drift cannot ship silently.

The validator implements the small JSON-Schema subset the schemas use
(``type``, ``required``, ``properties``, ``items``, ``enum``,
``minimum``) rather than depending on the ``jsonschema`` package —
the toolchain constraint is that the repo runs on a bare
pytest+numpy image.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from .events import ALL_EVENTS

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
}

#: one line of an ``events-*.jsonl`` file.
EVENT_SCHEMA: Dict = {
    "type": "object",
    "required": ["cycle", "event", "core", "line"],
    "properties": {
        "cycle": {"type": "number", "minimum": 0},
        "event": {"type": "string", "enum": list(ALL_EVENTS)},
        "core": {"type": "integer", "minimum": -1},
        "line": {"type": "integer", "minimum": -1},
        "extra": {"type": "object"},
    },
}

#: the Chrome-trace (``chrome://tracing`` / Perfetto) export.
CHROME_TRACE_SCHEMA: Dict = {
    "type": "object",
    "required": ["traceEvents", "displayTimeUnit"],
    "properties": {
        "displayTimeUnit": {"type": "string", "enum": ["ms", "ns"]},
        "otherData": {"type": "object"},
        "traceEvents": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "ph", "pid", "tid"],
                "properties": {
                    "name": {"type": "string"},
                    "cat": {"type": "string"},
                    "ph": {"type": "string", "enum": ["X", "M"]},
                    "ts": {"type": "number", "minimum": 0},
                    "dur": {"type": "number", "minimum": 0},
                    "pid": {"type": "integer", "minimum": 0},
                    "tid": {"type": "integer", "minimum": 0},
                    "args": {"type": "object"},
                },
            },
        },
    },
}

#: one line of a ``spans-*.jsonl`` export from :mod:`repro.obs`.
SPAN_SCHEMA: Dict = {
    "type": "object",
    "required": ["name", "trace_id", "span_id", "start", "end", "kind"],
    "properties": {
        "name": {"type": "string"},
        "trace_id": {"type": "string"},
        "span_id": {"type": "string"},
        "parent_id": {"type": "string"},
        "start": {"type": "number", "minimum": 0},
        "end": {"type": "number", "minimum": 0},
        "kind": {
            "type": "string",
            "enum": ["server", "internal", "queue", "worker", "phase"],
        },
        "attrs": {"type": "object"},
        "clock": {"type": "string", "enum": ["wall", "cycles"]},
    },
}

#: the enriched per-sweep run manifest.
RUN_MANIFEST_SCHEMA: Dict = {
    "type": "object",
    "required": ["schema", "jobs"],
    "properties": {
        "schema": {"type": "integer", "minimum": 1},
        "settings": {"type": "object"},
        "trace_id": {"type": "string"},
        "jobs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["key", "label", "status", "cached"],
                "properties": {
                    "key": {"type": "string"},
                    "label": {"type": "string"},
                    "status": {"type": "string", "enum": ["done", "failed", "cached"]},
                    "cached": {"type": "boolean"},
                    "attempts": {"type": "integer", "minimum": 0},
                    "wall_s": {"type": "number", "minimum": 0},
                    "cpu_s": {"type": "number", "minimum": 0},
                    "error": {"type": "string"},
                    "events": {"type": "integer", "minimum": 0},
                    "host": {"type": "object"},
                    "trace_id": {"type": "string"},
                    "span_id": {"type": "string"},
                },
            },
        },
    },
}


#: the ``GET /v1/metrics`` body served by ``repro.service``.  Pinned
#: here, next to the other exporter contracts, so the service cannot
#: drift its observability payload without failing CI's schema gate.
SERVICE_METRICS_SCHEMA: Dict = {
    "type": "object",
    "required": [
        "schema",
        "uptime_s",
        "workers",
        "executor",
        "queue",
        "jobs",
        "sweeps",
        "tenants",
        "limits",
        "metrics",
        "host",
        "phases",
    ],
    "properties": {
        "schema": {"type": "integer", "minimum": 1},
        "uptime_s": {"type": "number", "minimum": 0},
        "workers": {"type": "integer", "minimum": 0},
        #: backend liveness: the executor's own view of its capacity
        #: and health.
        "executor": {
            "type": "object",
            "required": ["backend", "workers", "busy", "respawns"],
            "properties": {
                "backend": {"type": "string"},
                "workers": {"type": "integer", "minimum": 0},
                "busy": {"type": "integer", "minimum": 0},
                "respawns": {"type": "integer", "minimum": 0},
            },
        },
        "queue": {
            "type": "object",
            "required": ["depth", "running", "limit"],
            "properties": {
                "depth": {"type": "integer", "minimum": 0},
                "running": {"type": "integer", "minimum": 0},
                "limit": {"type": "integer", "minimum": 1},
            },
        },
        "jobs": {
            "type": "object",
            "required": [
                "sweeps_submitted",
                "sweeps_cancelled",
                "jobs_submitted",
                "jobs_deduped",
                "jobs_cached",
                "jobs_coalesced",
                "jobs_executed",
                "jobs_failed",
                "jobs_cancelled",
                "jobs_retried",
                "rejected_queue_full",
                "rejected_quota",
            ],
            "properties": {
                "sweeps_submitted": {"type": "integer", "minimum": 0},
                "sweeps_cancelled": {"type": "integer", "minimum": 0},
                "jobs_submitted": {"type": "integer", "minimum": 0},
                "jobs_deduped": {"type": "integer", "minimum": 0},
                "jobs_cached": {"type": "integer", "minimum": 0},
                "jobs_coalesced": {"type": "integer", "minimum": 0},
                "jobs_executed": {"type": "integer", "minimum": 0},
                "jobs_failed": {"type": "integer", "minimum": 0},
                "jobs_cancelled": {"type": "integer", "minimum": 0},
                "jobs_retried": {"type": "integer", "minimum": 0},
                "rejected_queue_full": {"type": "integer", "minimum": 0},
                "rejected_quota": {"type": "integer", "minimum": 0},
            },
        },
        "sweeps": {
            "type": "object",
            "required": ["total", "active"],
            "properties": {
                "total": {"type": "integer", "minimum": 0},
                "active": {"type": "integer", "minimum": 0},
            },
        },
        "tenants": {"type": "object"},
        "limits": {
            "type": "object",
            "required": ["tenant_jobs", "tenant_instructions"],
            "properties": {
                "tenant_jobs": {"type": "integer", "minimum": 0},
                "tenant_instructions": {"type": "integer", "minimum": 0},
            },
        },
        #: the labeled-registry dump (``repro.obs``).
        "metrics": {"type": "object"},
        "host": {"type": "object"},
        "phases": {"type": "object"},
        "requests": {"type": "object"},
    },
}


#: one (metric, slice) cell of an A/B report.  Nullable fields
#: (``geomean_ratio``, ``p_adjusted``, ``improved``) are required but
#: deliberately untyped — the validator subset has no union types, and
#: presence is the contract that matters.
_EVAL_CELL_SCHEMA: Dict = {
    "type": "object",
    "required": [
        "metric",
        "slice",
        "higher_is_better",
        "improved",
        "p_adjusted",
        "n",
        "mean_a",
        "mean_b",
        "mean_delta",
        "ci_low",
        "ci_high",
        "p_permutation",
        "p_sign",
        "geomean_ratio",
        "wins",
        "losses",
        "ties",
    ],
    "properties": {
        "metric": {"type": "string"},
        "slice": {"type": "string"},
        "higher_is_better": {"type": "boolean"},
        "n": {"type": "integer", "minimum": 1},
        "mean_a": {"type": "number"},
        "mean_b": {"type": "number"},
        "mean_delta": {"type": "number"},
        "ci_low": {"type": "number"},
        "ci_high": {"type": "number"},
        "p_permutation": {"type": "number", "minimum": 0},
        "p_sign": {"type": "number", "minimum": 0},
        "wins": {"type": "integer", "minimum": 0},
        "losses": {"type": "integer", "minimum": 0},
        "ties": {"type": "integer", "minimum": 0},
    },
}

#: the ``eval-report.json`` document written by ``repro.eval`` (and
#: served by ``GET /v1/sweeps/{id}/report``).  Pinned here so the
#: report format cannot drift without failing CI's schema gate, same
#: as every other exporter contract.
EVAL_REPORT_SCHEMA: Dict = {
    "type": "object",
    "required": [
        "schema",
        "kind",
        "baseline",
        "confidence",
        "resamples",
        "seed",
        "num_runs",
        "fingerprint",
        "metrics",
        "comparisons",
    ],
    "properties": {
        "schema": {"type": "integer", "minimum": 1},
        "kind": {"type": "string", "enum": ["eval-report"]},
        "baseline": {"type": "string"},
        "confidence": {"type": "number", "minimum": 0},
        "resamples": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "num_runs": {"type": "integer", "minimum": 1},
        "fingerprint": {"type": "string"},
        "metrics": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "unit", "higher_is_better", "description"],
                "properties": {
                    "name": {"type": "string"},
                    "unit": {"type": "string"},
                    "higher_is_better": {"type": "boolean"},
                    "description": {"type": "string"},
                },
            },
        },
        "comparisons": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "policy",
                    "num_pairs",
                    "unmatched",
                    "ambiguous",
                    "cells",
                    "overlay",
                ],
                "properties": {
                    "policy": {"type": "string"},
                    "num_pairs": {"type": "integer", "minimum": 1},
                    "unmatched": {"type": "array", "items": {"type": "string"}},
                    "ambiguous": {"type": "integer", "minimum": 0},
                    "cells": {"type": "array", "items": _EVAL_CELL_SCHEMA},
                },
            },
        },
    },
}


#: one line of a :class:`repro.orchestrate.SweepManifest` journal.
SWEEP_MANIFEST_SCHEMA: Dict = {
    "type": "object",
    "required": ["key", "status"],
    "properties": {
        "key": {"type": "string"},
        "status": {"type": "string", "enum": ["done", "failed", "cancelled"]},
        "attempts": {"type": "integer", "minimum": 0},
        "error": {"type": "string"},
        "label": {"type": "string"},
        "category": {"type": "string"},
        "host": {"type": "object"},
        "trace_id": {"type": "string"},
    },
}


def check(value, schema: Dict, path: str = "$") -> List[str]:
    """Validate ``value`` against a schema; returns error strings."""
    errors: List[str] = []
    expected = schema.get("type")
    if expected is not None:
        python_type = _TYPES[expected]
        if isinstance(value, bool) and expected in ("integer", "number"):
            errors.append(f"{path}: expected {expected}, got boolean")
            return errors
        if not isinstance(value, python_type):
            errors.append(
                f"{path}: expected {expected}, got {type(value).__name__}"
            )
            return errors
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not one of {schema['enum']}")
    if "minimum" in schema and isinstance(value, (int, float)):
        if value < schema["minimum"]:
            errors.append(f"{path}: {value} below minimum {schema['minimum']}")
    if isinstance(value, dict):
        for required in schema.get("required", ()):
            if required not in value:
                errors.append(f"{path}: missing required key {required!r}")
        for key, subschema in schema.get("properties", {}).items():
            if key in value:
                errors.extend(check(value[key], subschema, f"{path}.{key}"))
    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            errors.extend(check(item, schema["items"], f"{path}[{index}]"))
    return errors


def validate_events_jsonl(path: Union[str, Path]) -> List[str]:
    """Validate every line of a JSONL event log."""
    errors: List[str] = []
    for number, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            errors.append(f"line {number}: invalid JSON ({exc})")
            continue
        errors.extend(check(record, EVENT_SCHEMA, f"line {number}"))
    return errors


def validate_spans_jsonl(path: Union[str, Path]) -> List[str]:
    """Validate every line of a span export, plus referential sanity:
    parent ids must resolve within the file and spans must not end
    before they start."""
    errors: List[str] = []
    span_ids = set()
    parents = []  # (line number, parent_id)
    for number, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            errors.append(f"line {number}: invalid JSON ({exc})")
            continue
        errors.extend(check(record, SPAN_SCHEMA, f"line {number}"))
        if isinstance(record, dict):
            if isinstance(record.get("span_id"), str):
                span_ids.add(record["span_id"])
            if isinstance(record.get("parent_id"), str):
                parents.append((number, record["parent_id"]))
            start, end = record.get("start"), record.get("end")
            if (
                isinstance(start, (int, float))
                and isinstance(end, (int, float))
                and end < start
            ):
                errors.append(f"line {number}: span ends before it starts")
    for number, parent_id in parents:
        if parent_id not in span_ids:
            errors.append(
                f"line {number}: parent_id {parent_id!r} not in this file"
            )
    return errors


def validate_chrome_trace(path: Union[str, Path]) -> List[str]:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        return [f"invalid JSON: {exc}"]
    return check(data, CHROME_TRACE_SCHEMA)


def validate_run_manifest(path: Union[str, Path]) -> List[str]:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        return [f"invalid JSON: {exc}"]
    return check(data, RUN_MANIFEST_SCHEMA)


def validate_service_metrics(path: Union[str, Path]) -> List[str]:
    """Validate a saved ``GET /v1/metrics`` response body."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        return [f"invalid JSON: {exc}"]
    return check(data, SERVICE_METRICS_SCHEMA)


def validate_sweep_manifest(path: Union[str, Path]) -> List[str]:
    """Validate every line of a sweep manifest.

    A trailing partial line (torn by a crash mid-append) is the
    journal's documented failure mode and is tolerated, matching
    :meth:`SweepManifest.statuses`; a malformed line anywhere *else*
    is corruption and is reported.
    """
    errors: List[str] = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            if number == len(lines):
                continue  # torn tail from a crash mid-append
            errors.append(f"line {number}: invalid JSON ({exc})")
            continue
        errors.extend(check(record, SWEEP_MANIFEST_SCHEMA, f"line {number}"))
    return errors


def validate_eval_report(path: Union[str, Path]) -> List[str]:
    """Validate an ``eval-report.json`` A/B evaluation document."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        return [f"invalid JSON: {exc}"]
    return check(data, EVAL_REPORT_SCHEMA)
