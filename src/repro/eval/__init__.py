"""Statistical A/B evaluation over cached sweep telemetry.

``repro.eval`` turns the artefacts every sweep already leaves behind —
result-cache entries keyed by content-hash job keys, sweep-manifest
journals carrying workload-category tags — into paired policy
comparisons with honest uncertainty, **without re-running a single
simulation**.  Four layers:

* :mod:`~repro.eval.pairing` — align cached runs across policies by
  workload coordinate (manifest/cache discovery);
* :mod:`~repro.eval.stats` — seeded bootstrap CIs, permutation and
  sign tests, Holm correction, geomean-of-ratios (numpy optional);
* :mod:`~repro.eval.slicing` — the metric set (throughput, LLC MPKI,
  miss rate, inclusion victims, back-invalidate-class traffic) and
  per-workload-category slices, plus interval-series overlays;
* :mod:`~repro.eval.report` — assembly into byte-deterministic
  markdown + JSON report pairs (``python -m repro.eval report``), and
  :mod:`~repro.eval.longitudinal` for cache-digest diffs between repo
  states.
"""

from .longitudinal import cache_digests, diff_digests, render_longitudinal
from .pairing import (
    BASELINE_POLICY,
    Pair,
    Pairing,
    RunRecord,
    available_policies,
    discover_records,
    pair_records,
    parse_policy,
    policy_name,
    record_from_summary,
    records_from_sweep_manifest,
)
from .report import (
    REPORT_SCHEMA_VERSION,
    build_report,
    render_json,
    render_markdown,
    report_fingerprint,
    write_report,
)
from .slicing import (
    METRICS,
    METRICS_BY_NAME,
    SLICE_ALL,
    Metric,
    SliceCell,
    build_cells,
    interval_overlay,
    metric_values,
    slice_pairs,
)
from .stats import (
    DEFAULT_CONFIDENCE,
    DEFAULT_RESAMPLES,
    DEFAULT_SEED,
    PairedStats,
    bootstrap_ci,
    derive_seed,
    geomean,
    geomean_ratio,
    holm_correction,
    paired_deltas,
    paired_stats,
    permutation_pvalue,
    sign_test_pvalue,
)

__all__ = [
    "BASELINE_POLICY",
    "DEFAULT_CONFIDENCE",
    "DEFAULT_RESAMPLES",
    "DEFAULT_SEED",
    "METRICS",
    "METRICS_BY_NAME",
    "Metric",
    "Pair",
    "PairedStats",
    "Pairing",
    "REPORT_SCHEMA_VERSION",
    "RunRecord",
    "SLICE_ALL",
    "SliceCell",
    "available_policies",
    "bootstrap_ci",
    "build_cells",
    "build_report",
    "cache_digests",
    "derive_seed",
    "diff_digests",
    "discover_records",
    "geomean",
    "geomean_ratio",
    "holm_correction",
    "interval_overlay",
    "metric_values",
    "pair_records",
    "paired_deltas",
    "paired_stats",
    "parse_policy",
    "permutation_pvalue",
    "policy_name",
    "record_from_summary",
    "records_from_sweep_manifest",
    "render_json",
    "render_longitudinal",
    "render_markdown",
    "report_fingerprint",
    "sign_test_pvalue",
    "slice_pairs",
    "write_report",
]
