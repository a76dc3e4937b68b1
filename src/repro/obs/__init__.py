"""repro.obs — observability for the service stack.

Three stdlib-only pieces that leave simulation state untouched:

* :mod:`repro.obs.metrics` — the labeled counter/gauge/histogram
  registry behind ``/v1/metrics``, always on;
* :mod:`repro.obs.tracing` — trace/span ids, the span book, and the
  Chrome-trace conversion;
* :mod:`repro.obs.prom` — Prometheus text exposition and its checker.

The live ops view (``python -m repro.obs top`` / ``report``) lives in
:mod:`repro.obs.top` and is imported lazily by ``__main__`` so the
hot service path never pays for the dashboard code.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile_from_buckets,
)
from .prom import check_exposition, render_registry
from .tracing import (
    Span,
    SpanBook,
    new_span_id,
    new_trace_id,
    parse_trace_header,
    span_tree,
    spans_to_chrome_trace,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "quantile_from_buckets",
    "check_exposition",
    "render_registry",
    "Span",
    "SpanBook",
    "new_span_id",
    "new_trace_id",
    "parse_trace_header",
    "span_tree",
    "spans_to_chrome_trace",
]
