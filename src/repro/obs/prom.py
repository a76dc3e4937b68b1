"""Prometheus text exposition (format 0.0.4) over the registry.

:func:`render_registry` turns a :class:`~repro.obs.metrics.MetricsRegistry`
into the classic text format — ``# HELP``/``# TYPE`` headers, one
sample per line, histograms expanded to cumulative ``_bucket{le=...}``
series plus ``_sum``/``_count``.  :func:`check_exposition` is the
matching validator: CI curls ``/v1/metrics?format=prometheus`` and
feeds the body through it, so a renderer regression fails the service
job instead of silently breaking scrapes.

Both directions are deliberately strict about the subset we emit
(counter/gauge/histogram, no timestamps, no exemplars) rather than
lenient about the whole spec — the checker's job is to pin *our*
output, not to reimplement a scraper.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple

from .metrics import Histogram, MetricsRegistry

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
# one sample line: name{labels} value  (labels optional)
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)$"
)
_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"(?:,|$)'
)


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Dict[str, str], extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [(k, labels[k]) for k in labels]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(str(value))}"' for name, value in pairs
    )
    return "{" + body + "}"


def render_registry(registry: MetricsRegistry) -> str:
    """The full exposition body."""
    lines: List[str] = []
    for metric in registry.metrics():
        lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            for sample in metric.samples():
                labels = sample["labels"]
                cumulative = 0
                for bound, count in zip(metric.bounds, sample["counts"]):
                    cumulative += count
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_format_labels(labels, ('le', _format_value(bound)))}"
                        f" {cumulative}"
                    )
                cumulative += sample["counts"][-1]
                lines.append(
                    f"{metric.name}_bucket"
                    f"{_format_labels(labels, ('le', '+Inf'))} {cumulative}"
                )
                lines.append(
                    f"{metric.name}_sum{_format_labels(labels)}"
                    f" {_format_value(sample['sum'])}"
                )
                lines.append(
                    f"{metric.name}_count{_format_labels(labels)}"
                    f" {sample['count']}"
                )
        else:
            for sample in metric.samples():
                lines.append(
                    f"{metric.name}{_format_labels(sample['labels'])}"
                    f" {_format_value(sample['value'])}"
                )
    return "\n".join(lines) + "\n" if lines else ""


def _parse_value(raw: str) -> Optional[float]:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    try:
        return float(raw)
    except ValueError:
        return None


def _parse_labels(raw: Optional[str]) -> Optional[Dict[str, str]]:
    if raw is None or raw == "":
        return {}
    labels: Dict[str, str] = {}
    pos = 0
    for match in _LABEL_PAIR_RE.finditer(raw):
        if match.start() != pos:
            return None
        labels[match.group(1)] = match.group(2)
        pos = match.end()
    if pos != len(raw):
        return None
    return labels


def check_exposition(text: str) -> List[str]:
    """Validate an exposition body; returns a list of problems.

    Checks, per metric family: names are legal, ``# TYPE`` precedes
    its samples and is one of counter/gauge/histogram, sample lines
    parse (labels and values included), histogram families carry
    monotonically non-decreasing ``_bucket`` series ending in ``+Inf``
    plus matching ``_sum``/``_count``, and no family interleaves with
    another.  An empty list means the body is clean.
    """
    problems: List[str] = []
    types: Dict[str, str] = {}
    current_family: Optional[str] = None
    # histogram bookkeeping: family -> series-label-key -> bucket info
    buckets: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
    sums: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, Dict[str, float]] = {}

    def family_of(name: str) -> str:
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            trimmed = name[: -len(suffix)] if name.endswith(suffix) else None
            if trimmed and types.get(trimmed) == "histogram":
                base = trimmed
                break
        return base

    for number, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not _NAME_RE.match(parts[2]):
                problems.append(f"line {number}: malformed HELP line")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or not _NAME_RE.match(parts[2]):
                problems.append(f"line {number}: malformed TYPE line")
                continue
            name, kind = parts[2], parts[3]
            if kind not in ("counter", "gauge", "histogram", "untyped"):
                problems.append(
                    f"line {number}: unknown metric type {kind!r}"
                )
                continue
            if name in types:
                problems.append(f"line {number}: duplicate TYPE for {name}")
            types[name] = kind
            current_family = name
            continue
        if line.startswith("#"):
            continue  # comments are legal anywhere
        match = _SAMPLE_RE.match(line)
        if not match:
            problems.append(f"line {number}: unparseable sample line")
            continue
        name = match.group("name")
        labels = _parse_labels(match.group("labels"))
        if labels is None:
            problems.append(f"line {number}: malformed label set")
            continue
        if not all(_LABEL_NAME_RE.match(k) for k in labels):
            problems.append(f"line {number}: illegal label name")
        value = _parse_value(match.group("value"))
        if value is None:
            problems.append(
                f"line {number}: bad sample value {match.group('value')!r}"
            )
            continue
        family = family_of(name)
        if family not in types:
            problems.append(
                f"line {number}: sample for {name} before its TYPE line"
            )
            continue
        if family != current_family:
            problems.append(
                f"line {number}: family {family} interleaves with "
                f"{current_family}"
            )
        if types.get(family) == "histogram":
            series_labels = {k: v for k, v in labels.items() if k != "le"}
            key = ",".join(
                f"{k}={series_labels[k]}" for k in sorted(series_labels)
            )
            if name.endswith("_bucket"):
                if "le" not in labels:
                    problems.append(
                        f"line {number}: histogram bucket without le label"
                    )
                    continue
                bound = _parse_value(labels["le"])
                if bound is None:
                    problems.append(
                        f"line {number}: bad le value {labels['le']!r}"
                    )
                    continue
                buckets.setdefault(family, {}).setdefault(key, []).append(
                    (bound, value)
                )
            elif name.endswith("_sum"):
                sums.setdefault(family, {})[key] = value
            elif name.endswith("_count"):
                counts.setdefault(family, {})[key] = value
            else:
                problems.append(
                    f"line {number}: bare sample {name} in histogram family"
                )
        elif name != family:
            problems.append(
                f"line {number}: sample name {name} does not match TYPE "
                f"{family}"
            )

    for family, series in buckets.items():
        for key, entries in series.items():
            where = f"histogram {family}{{{key}}}"
            bounds = [bound for bound, _ in entries]
            if bounds != sorted(bounds):
                problems.append(f"{where}: bucket bounds out of order")
            values = [value for _, value in entries]
            if any(b > a for a, b in zip(values[1:], values)):
                problems.append(f"{where}: bucket counts not cumulative")
            if not entries or entries[-1][0] != math.inf:
                problems.append(f"{where}: missing +Inf bucket")
                continue
            total = entries[-1][1]
            if counts.get(family, {}).get(key) != total:
                problems.append(
                    f"{where}: _count disagrees with +Inf bucket"
                )
            if key not in sums.get(family, {}):
                problems.append(f"{where}: missing _sum sample")
    for family, kind in types.items():
        if kind != "histogram":
            continue
        for key in counts.get(family, {}):
            if key not in buckets.get(family, {}):
                problems.append(
                    f"histogram {family}{{{key}}}: _count without buckets"
                )
    return problems
