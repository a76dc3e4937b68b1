"""Report assembly: pairing + stats + slices → markdown and JSON.

A report is a pure function of its inputs — the cached run summaries,
the baseline choice, and the (confidence, resamples, seed) knobs — so
two invocations over the same cache produce byte-identical artefacts.
That is the regeneratability contract: reports are never edited, only
regenerated, and a diff between two report files always means the
*data* changed.  Three rules make it hold:

* every float is serialised by :func:`json.dumps` / fixed-precision
  formatting (no locale, no wall-clock timestamps anywhere);
* JSON keys are sorted and the markdown table order is the sorted
  slice/policy order;
* all resampling seeds derive from the configured base seed through
  :func:`~repro.eval.stats.derive_seed`, independent of process state.

Instead of a timestamp, the header carries a *fingerprint*: the sha1
over the sorted job keys that fed the report, which identifies the
input data exactly and still never varies across regenerations.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import EvalError
from .pairing import (
    BASELINE_POLICY,
    Pairing,
    RunRecord,
    available_policies,
    pair_records,
)
from .slicing import METRICS, SliceCell, build_cells, interval_overlay
from .stats import DEFAULT_CONFIDENCE, DEFAULT_RESAMPLES, DEFAULT_SEED

#: bump when the report JSON layout changes shape.
REPORT_SCHEMA_VERSION = 1

#: adjusted-p threshold the verdict column is annotated against.
SIGNIFICANCE_LEVEL = 0.05


def report_fingerprint(records: Sequence[RunRecord]) -> str:
    """sha1 over the sorted job keys — identifies the input data set."""
    digest = hashlib.sha1()
    for key in sorted(record.key for record in records):
        digest.update(key.encode())
    return digest.hexdigest()


def _comparison_dict(pairing: Pairing, cells: List[SliceCell]) -> Dict:
    return {
        "policy": pairing.policy_b,
        "num_pairs": len(pairing.pairs),
        "unmatched": sorted(pairing.unmatched),
        "ambiguous": pairing.ambiguous,
        "cells": [cell.to_dict() for cell in cells],
        "overlay": interval_overlay(pairing.pairs),
    }


def build_report(
    records: Sequence[RunRecord],
    baseline: str = BASELINE_POLICY,
    policies: Optional[Sequence[str]] = None,
    confidence: float = DEFAULT_CONFIDENCE,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = DEFAULT_SEED,
) -> Dict:
    """The full A/B report document over ``records``.

    One comparison per candidate policy against ``baseline``; Holm
    correction runs over the permutation p-values of *every* cell of
    *every* comparison, because that whole family is what one report
    invites the reader to scan for significance.
    """
    if not records:
        raise EvalError("no cached runs to evaluate")
    seen = available_policies(records)
    if baseline not in seen:
        raise EvalError(
            f"baseline policy {baseline!r} has no cached runs; "
            f"available: {', '.join(seen)}"
        )
    if policies is None:
        policies = [policy for policy in seen if policy != baseline]
    if not policies:
        raise EvalError("no candidate policy to compare against the baseline")
    pairings: List[Pairing] = []
    for policy in policies:
        if policy not in seen:
            raise EvalError(
                f"policy {policy!r} has no cached runs; "
                f"available: {', '.join(seen)}"
            )
        pairing = pair_records(records, baseline, policy)
        if not pairing.pairs:
            raise EvalError(
                f"no workload is cached under both {baseline!r} and {policy!r}"
            )
        pairings.append(pairing)
    contrast_cells = build_cells(
        [pairing.pairs for pairing in pairings],
        METRICS,
        confidence=confidence,
        resamples=resamples,
        seed=seed,
    )
    comparisons = list(zip(pairings, contrast_cells))
    # Holm over the whole family, then scatter the adjusted values
    # back into their cells (order within the flat list is stable).
    flat = [cell for _, cells in comparisons for cell in cells]
    raw = [cell.stats.p_permutation for cell in flat]
    from .stats import holm_correction

    adjusted = holm_correction(raw)
    index = 0
    corrected: List[Tuple[Pairing, List[SliceCell]]] = []
    for pairing, cells in comparisons:
        fixed = []
        for cell in cells:
            fixed.append(replace(cell, p_adjusted=adjusted[index]))
            index += 1
        corrected.append((pairing, fixed))
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "kind": "eval-report",
        "baseline": baseline,
        "confidence": confidence,
        "resamples": resamples,
        "seed": seed,
        "num_runs": len(records),
        "fingerprint": report_fingerprint(records),
        "metrics": [
            {
                "name": metric.name,
                "unit": metric.unit,
                "higher_is_better": metric.higher_is_better,
                "description": metric.description,
            }
            for metric in METRICS
        ],
        "comparisons": [
            _comparison_dict(pairing, cells) for pairing, cells in corrected
        ],
    }


# -- rendering -------------------------------------------------------------

def _fmt(value: Optional[float], digits: int = 4) -> str:
    if value is None:
        return "—"
    return f"{value:.{digits}f}"


def _fmt_p(value: Optional[float]) -> str:
    if value is None:
        return "—"
    if value < 0.0001:
        return "<0.0001"
    return f"{value:.4f}"


def _verdict(cell: Dict) -> str:
    improved = cell["improved"]
    if improved is None:
        return "~"
    arrow = "better" if improved else "worse"
    significant = (
        cell["p_adjusted"] is not None
        and cell["p_adjusted"] < SIGNIFICANCE_LEVEL
    )
    return f"{arrow}*" if significant else arrow


def _sparkline(values: Sequence[float]) -> str:
    """Tiny block-character chart, shared y-scale handled by caller."""
    blocks = "▁▂▃▄▅▆▇█"
    peak = max(values) if values else 0.0
    if peak <= 0:
        return blocks[0] * len(values)
    return "".join(
        blocks[min(len(blocks) - 1, int(value / peak * (len(blocks) - 1)))]
        for value in values
    )


def render_markdown(report: Dict) -> str:
    """The human half of the report, regenerated from the JSON dict."""
    lines = [
        "# Policy A/B evaluation",
        "",
        f"- baseline: `{report['baseline']}`",
        f"- runs evaluated: {report['num_runs']}"
        f" (fingerprint `{report['fingerprint'][:12]}`)",
        f"- confidence: {report['confidence']:.2f},"
        f" resamples: {report['resamples']}, seed: {report['seed']}",
        f"- significance: Holm-adjusted permutation p <"
        f" {SIGNIFICANCE_LEVEL} (marked `*`)",
        "",
        "Deltas are candidate − baseline; the verdict column is"
        " direction-aware (for MPKI and traffic rates, lower is"
        " better).",
    ]
    for comparison in report["comparisons"]:
        lines += [
            "",
            f"## `{comparison['policy']}` vs `{report['baseline']}`",
            "",
            f"{comparison['num_pairs']} paired workloads"
            + (
                f"; {len(comparison['unmatched'])} unmatched"
                if comparison["unmatched"]
                else ""
            )
            + (
                f"; {comparison['ambiguous']} ambiguous cells"
                " (lowest job key used)"
                if comparison["ambiguous"]
                else ""
            ),
            "",
            "| metric | slice | n | baseline | candidate | Δ mean |"
            " 95% CI | geomean ratio | p (perm) | p (Holm) | p (sign) |"
            " verdict |",
            "|---|---|---|---|---|---|---|---|---|---|---|---|",
        ]
        for cell in comparison["cells"]:
            lines.append(
                f"| {cell['metric']} | {cell['slice']} | {cell['n']} |"
                f" {_fmt(cell['mean_a'])} | {_fmt(cell['mean_b'])} |"
                f" {_fmt(cell['mean_delta'])} |"
                f" [{_fmt(cell['ci_low'])}, {_fmt(cell['ci_high'])}] |"
                f" {_fmt(cell['geomean_ratio'])} |"
                f" {_fmt_p(cell['p_permutation'])} |"
                f" {_fmt_p(cell['p_adjusted'])} |"
                f" {_fmt_p(cell['p_sign'])} |"
                f" {_verdict(cell)} |"
            )
        overlay = comparison.get("overlay")
        if overlay:
            scale = max(
                max(overlay["baseline"], default=0.0),
                max(overlay["candidate"], default=0.0),
            )
            lines += [
                "",
                f"### Back-invalidate-class traffic over time"
                f" ({overlay['num_pairs']} pairs,"
                f" {overlay['window_cycles']}-cycle windows)",
                "",
                "```",
                f"baseline  {_sparkline(overlay['baseline'])}"
                f"  mean {_fmt(_mean(overlay['baseline']))}/kcycle",
                f"candidate {_sparkline(overlay['candidate'])}"
                f"  mean {_fmt(_mean(overlay['candidate']))}/kcycle",
                f"(y-scale 0..{_fmt(scale)} msgs/kcycle,"
                f" {overlay['num_windows']} windows)",
                "```",
            ]
    lines.append("")
    return "\n".join(lines)


def _mean(values: Sequence[float]) -> Optional[float]:
    if not values:
        return None
    return sum(values) / len(values)


def render_json(report: Dict) -> str:
    """Canonical JSON serialisation (sorted keys, trailing newline)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_report(
    report: Dict, out_dir: Union[str, Path], stem: str = "eval-report"
) -> Tuple[Path, Path]:
    """Write ``<stem>.json`` and ``<stem>.md``; returns both paths."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    json_path = directory / f"{stem}.json"
    md_path = directory / f"{stem}.md"
    json_path.write_text(render_json(report))
    md_path.write_text(render_markdown(report))
    return json_path, md_path
