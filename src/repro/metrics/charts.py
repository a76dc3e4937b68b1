"""ASCII chart rendering for experiment reports.

The paper's figures are bar charts (per-mix policy comparisons) and
s-curves; :func:`format_barchart` renders the former in plain text so
``python -m repro.experiments`` output can be read without plotting
dependencies.  (S-curves live in :func:`repro.metrics.report.format_scurve`.)
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional


def format_barchart(
    series: Mapping[str, float],
    title: Optional[str] = None,
    width: int = 50,
    baseline: float = 1.0,
    fmt: str = "{:.3f}",
) -> str:
    """Render labelled values as horizontal bars around a baseline.

    Values above ``baseline`` grow a ``+`` bar to the right of the
    axis, values below grow a ``-`` bar to the left — the natural
    rendering for normalised-throughput comparisons where 1.0 means
    "same as baseline".
    """
    if not series:
        return title or "(no data)"
    label_width = max(len(label) for label in series)
    deviations = [value - baseline for value in series.values()]
    span = max(max(abs(d) for d in deviations), 1e-9)
    half = max(4, width // 2)
    lines = []
    if title:
        lines.append(title)
    for label, value in series.items():
        deviation = value - baseline
        magnitude = int(round(abs(deviation) / span * half))
        if deviation >= 0:
            bar = " " * half + "|" + "+" * magnitude
        else:
            bar = " " * (half - magnitude) + "-" * magnitude + "|"
        lines.append(
            f"{label.rjust(label_width)}  {bar.ljust(2 * half + 1)}  "
            + fmt.format(value)
        )
    return "\n".join(lines)


def format_grouped_barchart(
    groups: Mapping[str, Mapping[str, float]],
    title: Optional[str] = None,
    width: int = 40,
    baseline: float = 1.0,
) -> str:
    """Render several labelled series (e.g. one per workload mix)."""
    blocks = []
    if title:
        blocks.append(title)
    for group, series in groups.items():
        blocks.append(f"[{group}]")
        blocks.append(
            format_barchart(series, width=width, baseline=baseline)
        )
    return "\n".join(blocks)


def describe_hierarchy(config) -> str:
    """One-paragraph human description of a HierarchyConfig.

    Handy in the REPL and in experiment headers::

        >>> from repro.config import HierarchyConfig
        >>> print(describe_hierarchy(HierarchyConfig()))  # doctest: +SKIP
    """
    kb = 1024.0
    parts: Dict[str, str] = {
        "cores": str(config.num_cores),
        "mode": config.mode,
        "L1I": f"{config.l1i.size_bytes / kb:g}KB/{config.l1i.associativity}w",
        "L1D": f"{config.l1d.size_bytes / kb:g}KB/{config.l1d.associativity}w",
        "L2": f"{config.l2.size_bytes / kb:g}KB/{config.l2.associativity}w",
        "LLC": (
            f"{config.llc.size_bytes / kb:g}KB/{config.llc.associativity}w"
            f" ({config.llc.replacement})"
        ),
        "line": f"{config.line_size}B",
        "core:LLC": f"1:{1 / config.core_to_llc_ratio:.1f}",
    }
    if config.tla.policy != "none":
        parts["TLA"] = f"{config.tla.policy}({'+'.join(config.tla.levels)})"
    if config.victim_cache_entries:
        parts["victim cache"] = f"{config.victim_cache_entries} entries"
    return ", ".join(f"{k}={v}" for k, v in parts.items())
