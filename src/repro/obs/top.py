"""The live ops view: ``python -m repro.obs top`` and ``report``.

Both modes are pure functions over ``/v1/metrics`` JSON snapshots
(schema v2).  ``top`` polls and redraws a terminal dashboard — queue
depth, worker occupancy, per-tenant quota headroom, request/job rates
derived from counter deltas, and latency quantiles recovered from the
registry's histogram buckets.  ``report`` renders one snapshot as
markdown for drop-into-an-issue triage.

Rates need two samples; quantiles need none — they come straight from
the cumulative histogram state, via the same
:func:`~repro.obs.metrics.quantile_from_buckets` the unit tests pin
down.  The fetcher and clock are injectable so the dashboard logic is
testable without a server or a sleep.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import ServiceError
from .metrics import quantile_from_buckets

#: snapshot keys the view reads; absence means a pre-v2 server.
REQUIRED_SECTIONS = ("queue", "tenants", "limits", "metrics")

#: the NDJSON progress feed: one request lasts as long as the sweep it
#: follows, so its series is left out of the HTTP latency quantiles.
EVENTS_ROUTE = "GET /v1/sweeps/{id}/events"


def fetch_metrics(base_url: str, timeout: float = 5.0) -> Dict[str, Any]:
    """GET ``{base_url}/v1/metrics`` and parse the JSON body."""
    url = f"{base_url.rstrip('/')}/v1/metrics"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return json.loads(response.read())
    except urllib.error.URLError as exc:
        raise ServiceError(f"cannot fetch {url}: {exc}") from exc
    except ValueError as exc:
        raise ServiceError(f"{url} returned invalid JSON: {exc}") from exc


def _counter_total(
    metrics: Dict[str, Any], name: str, **match: str
) -> float:
    """Sum a counter family's samples, optionally filtered by label."""
    family = metrics.get(name)
    if not family:
        return 0.0
    total = 0.0
    for sample in family.get("samples", ()):
        labels = sample.get("labels", {})
        if all(labels.get(key) == value for key, value in match.items()):
            total += sample.get("value", 0.0)
    return total


def _histogram_quantiles(
    metrics: Dict[str, Any],
    name: str,
    qs: Sequence[float] = (0.5, 0.99),
    **match: str,
) -> Optional[List[Optional[float]]]:
    """Quantiles over one histogram family, series merged bucket-wise
    (the :data:`EVENTS_ROUTE` series left out)."""
    family = metrics.get(name)
    if not family or family.get("type") != "histogram":
        return None
    bounds = family.get("buckets") or []
    merged = [0] * (len(bounds) + 1)
    observed = 0
    for sample in family.get("samples", ()):
        labels = sample.get("labels", {})
        if not all(labels.get(k) == v for k, v in match.items()):
            continue
        if labels.get("route") == EVENTS_ROUTE:
            continue
        for index, count in enumerate(sample.get("counts", ())):
            merged[index] += count
        observed += sample.get("count", 0)
    if not observed:
        return None
    return [quantile_from_buckets(bounds, merged, q) for q in qs]


def derive_view(
    snapshot: Dict[str, Any],
    previous: Optional[Dict[str, Any]] = None,
    dt: float = 0.0,
) -> Dict[str, Any]:
    """Reduce one (or two) snapshots to the quantities the views show."""
    for section in REQUIRED_SECTIONS:
        if section not in snapshot:
            raise ServiceError(
                f"/v1/metrics body lacks {section!r} — server predates "
                "metrics schema v2"
            )
    metrics = snapshot["metrics"]
    limits = snapshot["limits"]

    def _rate(name: str) -> Optional[float]:
        if previous is None or dt <= 0:
            return None
        delta = _counter_total(metrics, name) - _counter_total(
            previous.get("metrics", {}), name
        )
        return max(0.0, delta) / dt

    tenants = []
    for tenant, usage in sorted(snapshot["tenants"].items()):
        jobs = usage.get("queued_jobs", 0)
        instr = usage.get("queued_instructions", 0)
        exec_q = _histogram_quantiles(
            metrics, "repro_job_exec_seconds", tenant=tenant
        )
        tenants.append(
            {
                "tenant": tenant,
                "queued_jobs": jobs,
                "job_headroom": max(0, limits["tenant_jobs"] - jobs),
                "queued_instructions": instr,
                "instruction_headroom": max(
                    0, limits["tenant_instructions"] - instr
                ),
                "completed": _counter_total(
                    metrics, "repro_jobs_completed_total", tenant=tenant
                ),
                "exec_p50": exec_q[0] if exec_q else None,
                "exec_p99": exec_q[1] if exec_q else None,
            }
        )
    http_q = _histogram_quantiles(metrics, "repro_http_request_seconds")
    return {
        "uptime_s": snapshot.get("uptime_s", 0.0),
        "queue": dict(snapshot["queue"]),
        "workers": snapshot.get("workers", 0),
        "workers_busy": _gauge_value(metrics, "repro_workers_busy"),
        "sweeps": dict(snapshot.get("sweeps", {})),
        "jobs": dict(snapshot.get("jobs", {})),
        "requests_per_s": _rate("repro_http_requests_total"),
        "jobs_per_s": _rate("repro_jobs_completed_total"),
        "http_p50": http_q[0] if http_q else None,
        "http_p99": http_q[1] if http_q else None,
        # every unique admitted job is one result-cache consultation:
        # served from the cache, coalesced in flight, or queued afresh.
        "cache": {
            outcome: _counter_total(
                metrics, "repro_jobs_admitted_total", outcome=admission
            )
            for outcome, admission in (
                ("hit", "cached"), ("coalesced", "coalesced"), ("miss", "queued")
            )
        },
        "tenants": tenants,
    }


def _gauge_value(metrics: Dict[str, Any], name: str) -> float:
    family = metrics.get(name)
    if not family:
        return 0.0
    samples = family.get("samples", ())
    return samples[0].get("value", 0.0) if samples else 0.0


# -- rendering -----------------------------------------------------------------
def _fmt_rate(value: Optional[float]) -> str:
    return "--" if value is None else f"{value:.2f}/s"


def _fmt_seconds(value: Optional[float]) -> str:
    # None means "no observations yet" (an empty histogram has no
    # quantiles) — rendered as an em dash so it cannot be misread as
    # a measured zero-latency.
    if value is None:
        return "—"
    return f"{value * 1000:.1f}ms" if value < 1.0 else f"{value:.2f}s"


def render_dashboard(view: Dict[str, Any], url: str = "") -> str:
    """The ``top`` screen: fixed-width plain text, no escape codes."""
    queue = view["queue"]
    lines = [
        f"repro.obs top{'  --  ' + url if url else ''}"
        f"  (uptime {view['uptime_s']:.0f}s)",
        "",
        f"queue   {queue.get('depth', 0):>5} queued"
        f"  {queue.get('running', 0):>4} running"
        f"  limit {queue.get('limit', 0)}"
        f"   workers {view['workers_busy']:.0f}/{view['workers']}",
        f"rates   requests {_fmt_rate(view['requests_per_s']):>10}"
        f"   jobs {_fmt_rate(view['jobs_per_s']):>10}",
        f"http    p50 {_fmt_seconds(view['http_p50']):>9}"
        f"   p99 {_fmt_seconds(view['http_p99']):>9}   (events stream excluded)",
        f"cache   hit {view['cache']['hit']:.0f}"
        f"  coalesced {view['cache']['coalesced']:.0f}"
        f"  miss {view['cache']['miss']:.0f}",
        "",
        f"{'tenant':<16}{'queued':>8}{'hdrm':>7}{'instr-hdrm':>14}"
        f"{'done':>7}{'p50':>10}{'p99':>10}",
    ]
    for row in view["tenants"] or ():
        lines.append(
            f"{row['tenant']:<16}{row['queued_jobs']:>8}"
            f"{row['job_headroom']:>7}"
            f"{row['instruction_headroom']:>14}"
            f"{row['completed']:>7.0f}"
            f"{_fmt_seconds(row['exec_p50']):>10}"
            f"{_fmt_seconds(row['exec_p99']):>10}"
        )
    if not view["tenants"]:
        lines.append("(no tenants have queued work yet)")
    return "\n".join(lines)


def render_report(view: Dict[str, Any], url: str = "") -> str:
    """The same quantities as a markdown ops report."""
    queue = view["queue"]
    lines = [
        "# repro.service ops report",
        "",
        f"- endpoint: `{url or 'n/a'}`",
        f"- uptime: {view['uptime_s']:.0f}s",
        f"- queue: {queue.get('depth', 0)} queued / "
        f"{queue.get('running', 0)} running (limit {queue.get('limit', 0)})",
        f"- workers: {view['workers_busy']:.0f} busy of {view['workers']}",
        f"- HTTP latency (events stream excluded): "
        f"p50 {_fmt_seconds(view['http_p50'])}, "
        f"p99 {_fmt_seconds(view['http_p99'])}",
        f"- result cache: {view['cache']['hit']:.0f} hits, "
        f"{view['cache']['coalesced']:.0f} coalesced, "
        f"{view['cache']['miss']:.0f} misses",
        "",
        "| tenant | queued | job headroom | instr headroom | done "
        "| exec p50 | exec p99 |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in view["tenants"] or ():
        lines.append(
            f"| {row['tenant']} | {row['queued_jobs']} "
            f"| {row['job_headroom']} | {row['instruction_headroom']} "
            f"| {row['completed']:.0f} | {_fmt_seconds(row['exec_p50'])} "
            f"| {_fmt_seconds(row['exec_p99'])} |"
        )
    if not view["tenants"]:
        lines.append("| _none_ | 0 | - | - | 0 | — | — |")
    return "\n".join(lines)


class OpsTop:
    """The polling loop behind ``repro.obs top``.

    ``fetch``/``clock``/``sleep`` are injectable so tests can drive the
    loop with canned snapshots and a fake clock; the default wiring
    polls a live service.  Event streaming (NDJSON) stays with the
    HTTP clients — the dashboard derives everything it shows from the
    metrics document alone, so it works against any schema-v2 server.
    """

    def __init__(
        self,
        url: str,
        interval: float = 2.0,
        fetch: Optional[Callable[[], Dict[str, Any]]] = None,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.url = url
        self.interval = max(0.1, interval)
        self._fetch = fetch or (lambda: fetch_metrics(url))
        self._clock = clock
        self._sleep = sleep
        self._previous: Optional[Dict[str, Any]] = None
        self._previous_at = 0.0

    def sample(self) -> Dict[str, Any]:
        """One fetch + derive step (the unit the loop repeats)."""
        now = self._clock()
        snapshot = self._fetch()
        dt = now - self._previous_at if self._previous is not None else 0.0
        view = derive_view(snapshot, self._previous, dt)
        self._previous = snapshot
        self._previous_at = now
        return view

    def run(self, stream, iterations: Optional[int] = None) -> int:
        """Redraw until interrupted (or for ``iterations`` frames)."""
        frame = 0
        clear = "\x1b[2J\x1b[H" if getattr(stream, "isatty", bool)() else ""
        while iterations is None or frame < iterations:
            if frame:
                self._sleep(self.interval)
            try:
                view = self.sample()
            except ServiceError as exc:
                stream.write(f"{clear}repro.obs top: {exc}\n")
                stream.flush()
                frame += 1
                continue
            stream.write(clear + render_dashboard(view, self.url) + "\n")
            stream.flush()
            frame += 1
        return 0
