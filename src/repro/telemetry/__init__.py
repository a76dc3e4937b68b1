"""Observability layer: event tracing, interval series, run telemetry.

Four cooperating pieces, all zero-cost when telemetry is off:

* :class:`Tracer` — typed simulation events (LLC misses/evictions,
  back-invalidates, ECI early-invalidates, QBS queries/promotions,
  TLH hints, MSHR stalls) emitted from hook sites in the hierarchy
  and CPU models.
* :class:`IntervalCollector` / :class:`IntervalSeries` — fixed
  cycle-window time series of traffic and inclusion activity, exact
  by construction (window sums equal the aggregate counters), used to
  compute the paper's per-1000-cycle traffic claim.
* exporters (:mod:`repro.telemetry.export`) — JSONL event logs,
  Chrome-trace files for ``chrome://tracing`` / Perfetto, and the
  enriched run manifest; :mod:`repro.telemetry.schema` pins their
  formats and ``python -m repro.telemetry validate`` checks them.
* :class:`StructuredLogger` — JSON-per-line diagnostics on stderr
  for CLIs and the orchestrator (``REPRO_LOG_LEVEL``).
"""

from .config import DEFAULT_INTERVAL, DEFAULT_MAX_EVENTS, TelemetryConfig
from .events import (
    ALL_CATEGORIES,
    ALL_EVENTS,
    BACK_INVALIDATE_CLASS,
    CATEGORIES,
    EVENT_BACK_INVALIDATE,
    EVENT_ECI_INVALIDATE,
    EVENT_INCLUSION_VICTIM,
    EVENT_LLC_EVICT,
    EVENT_LLC_MISS,
    EVENT_MSHR_STALL,
    EVENT_QBS_PROMOTE,
    EVENT_QBS_QUERY,
    EVENT_TLH_HINT,
    EVENT_VCACHE_RESCUE,
    TraceEvent,
)
from .export import RunTelemetry, write_events_jsonl
from .intervals import (
    KEY_INCLUSION_VICTIMS,
    KEY_LLC_MISSES,
    IntervalCollector,
    IntervalSeries,
)
from .log import StructuredLogger, get_logger, level_from_env
from .schema import (
    CHROME_TRACE_SCHEMA,
    EVAL_REPORT_SCHEMA,
    EVENT_SCHEMA,
    RUN_MANIFEST_SCHEMA,
    SERVICE_METRICS_SCHEMA,
    SPAN_SCHEMA,
    validate_chrome_trace,
    validate_eval_report,
    validate_events_jsonl,
    validate_run_manifest,
    validate_service_metrics,
    validate_spans_jsonl,
)
from .tracer import Tracer

__all__ = [
    "ALL_CATEGORIES",
    "ALL_EVENTS",
    "BACK_INVALIDATE_CLASS",
    "CATEGORIES",
    "CHROME_TRACE_SCHEMA",
    "DEFAULT_INTERVAL",
    "DEFAULT_MAX_EVENTS",
    "EVENT_BACK_INVALIDATE",
    "EVENT_ECI_INVALIDATE",
    "EVENT_INCLUSION_VICTIM",
    "EVENT_LLC_EVICT",
    "EVENT_LLC_MISS",
    "EVENT_MSHR_STALL",
    "EVAL_REPORT_SCHEMA",
    "EVENT_QBS_PROMOTE",
    "EVENT_QBS_QUERY",
    "EVENT_SCHEMA",
    "EVENT_TLH_HINT",
    "EVENT_VCACHE_RESCUE",
    "IntervalCollector",
    "IntervalSeries",
    "KEY_INCLUSION_VICTIMS",
    "KEY_LLC_MISSES",
    "RUN_MANIFEST_SCHEMA",
    "RunTelemetry",
    "SERVICE_METRICS_SCHEMA",
    "SPAN_SCHEMA",
    "StructuredLogger",
    "TelemetryConfig",
    "TraceEvent",
    "Tracer",
    "get_logger",
    "level_from_env",
    "validate_chrome_trace",
    "validate_eval_report",
    "validate_events_jsonl",
    "validate_run_manifest",
    "validate_service_metrics",
    "validate_spans_jsonl",
    "write_events_jsonl",
]
