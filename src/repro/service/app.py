"""The HTTP surface: a stdlib router over the job broker.

``ThreadingHTTPServer`` + ``BaseHTTPRequestHandler`` only — the repo
runs on a bare pytest+numpy image, so there is no web framework to
lean on.  The router is a flat table of ``(method, pattern, handler)``
rows; handlers are small methods that translate HTTP to broker calls
and :mod:`repro.errors` exceptions to status codes:

========================================  =============================
``POST   /v1/sweeps``                     validate spec, admit, 201
``GET    /v1/sweeps/{id}``                poll status JSON
``GET    /v1/sweeps/{id}/events``         NDJSON progress feed
``DELETE /v1/sweeps/{id}``                drain queued jobs
``GET    /v1/sweeps/{id}/trace``          recorded spans for the sweep
``GET    /v1/jobs/{key}/result``          fetch a cached RunSummary
``GET    /v1/healthz``                    liveness
``GET    /v1/metrics``                    views over the registry
========================================  =============================

``GET /v1/metrics?format=prometheus`` serves the same registry in
Prometheus text exposition 0.0.4 for scrapers; the JSON view stays the
canonical schema-validated document.  Both refresh the point-in-time
gauges first, and a response is counted in
``repro_http_requests_total`` as its status line is sent, so a client
that reads ``/v1/metrics`` after a response sees that response counted.

Error mapping: :class:`~repro.errors.SweepSpecError` → 400,
unknown ids → 404, :class:`~repro.errors.AdmissionError` → 429 with a
``Retry-After`` header.  Every response is JSON; the events feed is
``application/x-ndjson`` (one progress event per line, streamed until
the sweep reaches a terminal state unless ``?follow=0``).

Each handler thread serves one request at a time, so a streaming
events client costs one thread — fine for the polling clients this is
built for; queue-depth style pressure belongs on the broker's
admission control, not on connection counts.
"""

from __future__ import annotations

import json
import re
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..errors import AdmissionError, EvalError, SweepSpecError
from ..eval import (
    BASELINE_POLICY,
    build_report,
    record_from_summary,
    render_markdown,
)
from ..obs import new_trace_id, parse_trace_header, render_registry
from ..orchestrate.cache import summary_to_dict
from ..telemetry import get_logger
from .broker import JOB_CACHED, JOB_DONE, SWEEP_RUNNING, JobBroker
from .config import ServiceConfig
from .schemas import expand_spec

log = get_logger("repro.service.http")
#: one sorted-key JSON line per served request: method, path, status,
#: tenant, trace_id, latency — the structured access log.
access_log = get_logger("repro.service.access")

#: (HTTP method, path regex, handler attribute, counter label).
ROUTES: Tuple[Tuple[str, str, str, str], ...] = (
    ("GET", r"^/v1/healthz$", "handle_healthz", "GET /v1/healthz"),
    ("GET", r"^/v1/metrics$", "handle_metrics", "GET /v1/metrics"),
    ("POST", r"^/v1/sweeps$", "handle_submit", "POST /v1/sweeps"),
    (
        "GET",
        r"^/v1/sweeps/(?P<sweep_id>[A-Za-z0-9_.-]+)$",
        "handle_sweep",
        "GET /v1/sweeps/{id}",
    ),
    (
        "DELETE",
        r"^/v1/sweeps/(?P<sweep_id>[A-Za-z0-9_.-]+)$",
        "handle_cancel",
        "DELETE /v1/sweeps/{id}",
    ),
    (
        "GET",
        r"^/v1/sweeps/(?P<sweep_id>[A-Za-z0-9_.-]+)/events$",
        "handle_events",
        "GET /v1/sweeps/{id}/events",
    ),
    (
        "GET",
        r"^/v1/sweeps/(?P<sweep_id>[A-Za-z0-9_.-]+)/trace$",
        "handle_trace",
        "GET /v1/sweeps/{id}/trace",
    ),
    (
        "GET",
        r"^/v1/sweeps/(?P<sweep_id>[A-Za-z0-9_.-]+)/report$",
        "handle_report",
        "GET /v1/sweeps/{id}/report",
    ),
    (
        "GET",
        r"^/v1/jobs/(?P<key>[0-9a-f]{40})/result$",
        "handle_result",
        "GET /v1/jobs/{key}/result",
    ),
)

_COMPILED = tuple(
    (method, re.compile(pattern), handler, label)
    for method, pattern, handler, label in ROUTES
)

#: tenant header; absent or empty means the shared "public" tenant.
TENANT_HEADER = "X-Repro-Tenant"

#: request trace header (repro.obs): a client-supplied 32-hex trace id
#: is honoured, anything else gets a freshly minted one; the response
#: echoes the id back so clients can join their logs to the service's.
TRACE_HEADER = "X-Repro-Trace"

#: largest ``?resamples`` the report endpoint accepts: a report's cost
#: grows linearly with it, and one request holds a handler thread for
#: its whole duration.  Its memory grows too: each live cell seed holds
#: ``resamples x n`` bootstrap index bytes and as many sign-flip bytes
#: (``repro.eval.stats.SeedDraws``), about 21 MB at 100 000 x 105.
MAX_REPORT_RESAMPLES = 100_000


class ReproServiceServer(ThreadingHTTPServer):
    """The listening server: broker + config."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        broker: JobBroker,
        config: ServiceConfig,
        settings=None,
    ) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.broker = broker
        self.config = config
        #: fidelity defaults for ``grid`` specs (an
        #: :class:`~repro.experiments.ExperimentSettings`).
        self.settings = settings


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes one request to a ``handle_*`` method; JSON in, JSON out."""

    protocol_version = "HTTP/1.1"
    #: headers and body go out as separate writes; with Nagle on, the
    #: body would wait for the client's delayed ACK (~40 ms) on every
    #: response of a kept-alive connection.
    disable_nagle_algorithm = True
    server: ReproServiceServer

    # -- routing ---------------------------------------------------------------
    def _dispatch(self, method: str) -> None:
        split = urlsplit(self.path)
        self._query = parse_qs(split.query)
        self._started = time.perf_counter()
        self._status = 0
        self._route_label = "unmatched"
        # the request's trace: honour a well-formed client id, mint
        # otherwise; echoed back on every response via X-Repro-Trace.
        self._trace_id = (
            parse_trace_header(self.headers.get(TRACE_HEADER))
            or new_trace_id()
        )
        self._ingress_span = None
        self._sweep = None  # set by a submission the broker admitted
        try:
            self._route(method, split)
        finally:
            self._finish_request(method, split.path)

    def _route(self, method: str, split) -> None:
        allowed: List[str] = []
        for route_method, pattern, handler, label in _COMPILED:
            match = pattern.match(split.path)
            if match is None:
                continue
            if route_method != method:
                allowed.append(route_method)
                continue
            self._route_label = label
            spans = self.server.broker.spans
            if spans.enabled and method != "GET":
                # mutating routes open the trace's root span; polling
                # GETs stay span-free so the book holds request
                # lifecycles, not monitoring noise.  Only a request
                # that opens a sweep records it (_finish_request).
                self._ingress_span = spans.begin(
                    "ingress",
                    self._trace_id,
                    kind="server",
                    route=label,
                    tenant=self._tenant(),
                )
            try:
                getattr(self, handler)(**match.groupdict())
            except SweepSpecError as exc:
                self._send_json(400, {"error": str(exc)})
            except AdmissionError as exc:
                self._send_json(
                    429,
                    {"error": str(exc), "retry_after_s": exc.retry_after},
                    extra_headers={
                        "Retry-After": str(max(1, int(exc.retry_after)))
                    },
                )
            except (BrokenPipeError, ConnectionResetError):
                raise
            except Exception as exc:  # noqa: BLE001 — 500, never a hang
                log.error(
                    "handler_error",
                    route=label,
                    error=f"{type(exc).__name__}: {exc}",
                )
                self._send_json(500, {"error": "internal error"})
            return
        if allowed:
            self._send_json(
                405,
                {"error": f"method {method} not allowed"},
                extra_headers={"Allow": ", ".join(sorted(set(allowed)))},
            )
        else:
            self._send_json(404, {"error": f"no such resource {split.path}"})

    def _finish_request(self, method: str, path: str) -> None:
        """Access log + request latency, every path."""
        broker = self.server.broker
        elapsed = time.perf_counter() - self._started
        if self._ingress_span is not None and self._sweep is not None:
            # recorded only under a sweep, whose export frees it; any
            # other request's span would stay in the book for good.
            broker.spans.end(self._ingress_span, status=self._status)
            broker.request_returned(self._sweep)
        broker.m_http_latency.observe(elapsed, route=self._route_label)
        access_log.info(
            "request",
            method=method,
            path=path,
            status=self._status,
            tenant=self._tenant(),
            trace_id=self._trace_id,
            latency_s=round(elapsed, 6),
        )

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    # -- handlers --------------------------------------------------------------
    def handle_healthz(self) -> None:
        # The gauges /v1/metrics reports, refreshed the same way, but
        # without building its snapshot (registry dump, phase report,
        # sweep scans).
        broker = self.server.broker
        broker.refresh_gauges()
        self._send_json(
            200,
            {
                "status": "ok",
                "workers": int(broker.g_workers.value()),
                "queue_depth": int(broker.g_queue_depth.value()),
                "uptime_s": broker.uptime_s,
            },
        )

    def handle_metrics(self) -> None:
        broker = self.server.broker
        fmt = (self._query.get("format") or ["json"])[0]
        if fmt == "prometheus":
            broker.refresh_gauges()
            self._send_text(
                200,
                render_registry(broker.registry),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
            return
        self._send_json(200, broker.metrics_snapshot())

    def handle_submit(self) -> None:
        spec = self._read_json_body()
        jobs = expand_spec(spec, settings=self.server.settings)
        parent = (
            self._ingress_span.span_id
            if self._ingress_span is not None
            else None
        )
        sweep = self._sweep = self.server.broker.submit(
            jobs,
            tenant=self._tenant(),
            trace_id=self._trace_id,
            parent_span=parent,
        )
        self._send_json(201, {"sweep": sweep.snapshot()})

    def handle_sweep(self, sweep_id: str) -> None:
        sweep = self.server.broker.sweep(sweep_id)
        if sweep is None:
            self._send_json(404, {"error": f"no such sweep {sweep_id!r}"})
            return
        self._send_json(200, {"sweep": sweep.snapshot()})

    def handle_cancel(self, sweep_id: str) -> None:
        drained = self.server.broker.cancel(sweep_id)
        if drained is None:
            self._send_json(404, {"error": f"no such sweep {sweep_id!r}"})
            return
        sweep = self.server.broker.sweep(sweep_id)
        self._send_json(
            200, {"cancelled": drained, "sweep": sweep.snapshot()}
        )

    def handle_events(self, sweep_id: str) -> None:
        """Stream the sweep's progress feed as NDJSON.

        ``?since=N`` resumes after event index N-1; ``?follow=0``
        returns only the current backlog (plain polling).  Following
        ends when the sweep reaches a terminal state.
        """
        broker = self.server.broker
        since = self._int_query("since", 0)
        follow = self._int_query("follow", 1) != 0
        events = broker.wait_events(sweep_id, since, timeout=0.0)
        if events is None:
            self._send_json(404, {"error": f"no such sweep {sweep_id!r}"})
            return
        self._send_status(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header(TRACE_HEADER, self._trace_id)
        # Streamed body: no Content-Length, so the connection must close
        # to delimit it (HTTP/1.1).
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        cursor = since
        while True:
            for event in events:
                self.wfile.write(
                    (json.dumps(event, sort_keys=True) + "\n").encode()
                )
                cursor += 1
            self.wfile.flush()
            if not follow:
                return
            sweep = broker.sweep(sweep_id)
            if sweep is None or (
                sweep.state != SWEEP_RUNNING and len(sweep.events) <= cursor
            ):
                return
            events = broker.wait_events(sweep_id, cursor, timeout=0.5) or []

    def handle_trace(self, sweep_id: str) -> None:
        """The sweep's recorded spans (requires tracing enabled)."""
        snapshot = self.server.broker.trace_snapshot(sweep_id)
        if snapshot is None:
            self._send_json(404, {"error": f"no trace for sweep {sweep_id!r}"})
            return
        self._send_json(200, snapshot)

    def handle_report(self, sweep_id: str) -> None:
        """A/B evaluation report over the sweep's finished jobs.

        ``?baseline=mode/tla`` overrides the paper default
        (``inclusive/none``); ``?format=md`` returns the rendered
        markdown instead of the JSON document; ``?resamples=N`` (1 to
        :data:`MAX_REPORT_RESAMPLES`, else 400) trades p-value
        resolution for latency.  The report is computed from
        cached summaries only (done + cache-hit jobs), so the endpoint
        never blocks on simulation — for a still-running sweep it
        evaluates the finished subset, and 409s until at least one
        baseline/candidate pair of the same workload has completed.
        """
        raw = self._query.get("resamples", ["1000"])[0]
        try:
            resamples = int(raw)
        except ValueError:
            resamples = 0
        if not 1 <= resamples <= MAX_REPORT_RESAMPLES:
            self._send_json(
                400,
                {
                    "error": "resamples must be an integer in "
                    f"1..{MAX_REPORT_RESAMPLES}, got {raw!r}"
                },
            )
            return
        broker = self.server.broker
        sweep = broker.sweep(sweep_id)
        if sweep is None:
            self._send_json(404, {"error": f"no such sweep {sweep_id!r}"})
            return
        records = []
        for key in sorted(sweep.statuses):
            if sweep.statuses[key] not in (JOB_DONE, JOB_CACHED):
                continue
            summary = broker.result(key)
            if summary is None:
                continue
            records.append(record_from_summary(key, summary))
        baseline = self._query.get("baseline", [BASELINE_POLICY])[0]
        try:
            report = build_report(
                records, baseline=baseline, resamples=resamples
            )
        except EvalError as error:
            self._send_json(409, {"error": str(error)})
            return
        if self._query.get("format", ["json"])[0] == "md":
            self._send_text(
                200, render_markdown(report), "text/markdown; charset=utf-8"
            )
            return
        self._send_json(200, report)

    def handle_result(self, key: str) -> None:
        summary = self.server.broker.result(key)
        if summary is None:
            self._send_json(
                404, {"error": f"no cached result for job {key!r}"}
            )
            return
        self._send_json(200, summary_to_dict(summary))

    # -- plumbing --------------------------------------------------------------
    def _tenant(self) -> str:
        tenant = (self.headers.get(TENANT_HEADER) or "public").strip()
        return tenant[:64] or "public"

    def _int_query(self, name: str, default: int) -> int:
        values = self._query.get(name)
        if not values:
            return default
        try:
            return int(values[0])
        except ValueError:
            return default

    def _read_json_body(self) -> Any:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            raise SweepSpecError("missing or invalid Content-Length")
        if length <= 0:
            raise SweepSpecError("request body required")
        if length > self.server.config.max_body_bytes:
            raise SweepSpecError(
                f"request body of {length} bytes exceeds the "
                f"{self.server.config.max_body_bytes} byte limit"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise SweepSpecError(f"request body is not valid JSON: {exc}")

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self._send_body(
            status, body, "application/json", extra_headers=extra_headers
        )

    def _send_text(
        self, status: int, text: str, content_type: str
    ) -> None:
        self._send_body(status, text.encode(), content_type)

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send_status(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header(TRACE_HEADER, self._trace_id)
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_status(self, status: int) -> None:
        """Send the status line and count the response, so a client
        that reads /v1/metrics after this response sees it counted."""
        self._status = status
        self.server.broker.m_http.inc(
            route=self._route_label, status=status, tenant=self._tenant()
        )
        self.send_response(status)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Route http.server's stderr chatter through the structured log."""
        log.debug("http", detail=format % args)


def create_server(
    config: Optional[ServiceConfig] = None,
    broker: Optional[JobBroker] = None,
    settings=None,
) -> ReproServiceServer:
    """Bind a service instance (broker not yet started, port resolved).

    With ``port=0`` the OS picks a free port — read the bound one from
    ``server.server_address`` (the e2e tests and the CI smoke job do
    exactly that).
    """
    config = config or ServiceConfig.from_env()
    broker = broker or JobBroker(config)
    return ReproServiceServer(
        (config.host, config.port), broker, config, settings=settings
    )
