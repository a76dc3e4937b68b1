"""``python -m repro.telemetry`` — validate exported telemetry artefacts.

``validate <dir>`` checks every artefact found in a trace output
directory or result cache against the checked-in schemas:
``events-*.jsonl`` and ``spans-*.jsonl`` files, ``trace.json``,
``run-manifest.json``, ``service-metrics.json``, ``eval-report*.json``
and a cache's ``sweep-manifest.jsonl``.
``validate <file>`` checks a single saved ``GET /v1/metrics`` response
body.  Exits non-zero if any file fails, so CI can gate on exporter
drift.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

from .log import get_logger
from .schema import (
    validate_chrome_trace,
    validate_eval_report,
    validate_events_jsonl,
    validate_run_manifest,
    validate_service_metrics,
    validate_spans_jsonl,
    validate_sweep_manifest,
)

log = get_logger("repro.telemetry")


def validate_dir(out_dir: Path) -> int:
    """Validate all artefacts under ``out_dir``; returns the error count."""
    checked = 0
    failures = 0
    for path in sorted(out_dir.glob("events-*.jsonl")):
        checked += 1
        failures += _report(path, validate_events_jsonl(path))
    for path in sorted(out_dir.glob("spans-*.jsonl")):
        checked += 1
        failures += _report(path, validate_spans_jsonl(path))
    trace = out_dir / "trace.json"
    if trace.exists():
        checked += 1
        failures += _report(trace, validate_chrome_trace(trace))
    manifest = out_dir / "run-manifest.json"
    if manifest.exists():
        checked += 1
        failures += _report(manifest, validate_run_manifest(manifest))
    metrics = out_dir / "service-metrics.json"
    if metrics.exists():
        checked += 1
        failures += _report(metrics, validate_service_metrics(metrics))
    for path in sorted(out_dir.glob("eval-report*.json")):
        checked += 1
        failures += _report(path, validate_eval_report(path))
    journal = out_dir / "sweep-manifest.jsonl"
    if journal.exists():
        checked += 1
        failures += _report(journal, validate_sweep_manifest(journal))
    if checked == 0:
        log.error("no_artifacts", dir=str(out_dir))
        return 1
    log.info("validated", dir=str(out_dir), files=checked, failed=failures)
    return failures


def _report(path: Path, errors: List[str]) -> int:
    if errors:
        log.error("schema_errors", file=str(path), errors=errors[:20])
        return 1
    log.info("schema_ok", file=str(path))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="validate exported telemetry artefacts",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser(
        "validate", help="schema-check a trace output directory"
    )
    check.add_argument(
        "dir",
        type=Path,
        help="directory holding artefacts, or a single /v1/metrics "
        "JSON file to check against SERVICE_METRICS_SCHEMA",
    )
    args = parser.parse_args(argv)
    if args.dir.is_file():
        # Single-file mode validates either saved document kind: an
        # eval report declares itself via "kind"; anything else is
        # checked as a /v1/metrics body (the historical behaviour).
        try:
            kind = json.loads(args.dir.read_text()).get("kind")
        except (ValueError, AttributeError, OSError):
            kind = None
        validate = (
            validate_eval_report
            if kind == "eval-report"
            else validate_service_metrics
        )
        return 1 if _report(args.dir, validate(args.dir)) else 0
    if not args.dir.is_dir():
        log.error("not_a_directory", dir=str(args.dir))
        return 1
    return 1 if validate_dir(args.dir) else 0


if __name__ == "__main__":
    sys.exit(main())
