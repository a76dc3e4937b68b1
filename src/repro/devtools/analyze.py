"""ReproCheck — the static checker for the simulator tree.

``python -m repro.devtools analyze [paths...]`` parses every module
once, builds the project import graph and approximate call graph, and
runs four pass families:

* **CS** — file-local simulation hygiene (:mod:`repro.devtools.passes.cs`);
* **DX** — determinism taint dataflow (:mod:`repro.devtools.passes.dx`);
* **PX** — process-safety (:mod:`repro.devtools.passes.px`);
* **HX** — hot-path checks (:mod:`repro.devtools.passes.hx`).

DX/PX/HX findings can be excused two ways: an inline
``# repro: allow[RULE]`` escape at the site, or an entry in the
checked-in baseline file (``--baseline``, default
``src/repro/devtools/analyze_baseline.json``) carrying a one-line
justification.  CS findings admit neither.  ``--update-baseline``
rewrites the baseline to the current DX/PX/HX findings, preserving
justifications of surviving entries.  Baseline *drift* — entries
naming unknown rules, missing files, or symbols that no longer exist
— always fails the run; ``--strict-baseline`` additionally fails on
stale entries whose finding has been fixed.

Exit codes: 0 clean (relative to the baseline), 1 findings or drift,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from . import project
from .passes import run_cs_pass, run_dx_pass, run_hx_pass, run_px_pass
from .rules import (
    RULES,
    Baseline,
    BaselineEntry,
    BaselineError,
    Finding,
    apply_baseline,
    load_baseline,
    merge_baseline,
    save_baseline,
)

#: the checked-in baseline for the shipped tree.
DEFAULT_BASELINE = Path(__file__).resolve().parent / "analyze_baseline.json"


@dataclass
class AnalysisReport:
    """Everything one analyze run produced."""

    findings: List[Finding] = field(default_factory=list)  # non-baselined
    accepted: List[Finding] = field(default_factory=list)  # baselined
    stale_entries: List[BaselineEntry] = field(default_factory=list)
    drift_errors: List[str] = field(default_factory=list)
    modules: int = 0
    functions: int = 0
    call_edges: int = 0
    elapsed_s: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.findings and not self.drift_errors

    def to_dict(self) -> dict:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "accepted": [f.to_dict() for f in self.accepted],
            "stale_entries": [
                {"rule": e.rule, "path": e.path, "symbol": e.symbol}
                for e in self.stale_entries
            ],
            "drift_errors": list(self.drift_errors),
            "modules": self.modules,
            "functions": self.functions,
            "call_edges": self.call_edges,
            "elapsed_s": round(self.elapsed_s, 3),
        }


def _syntax_findings(index: project.ProjectIndex) -> List[Finding]:
    findings = []
    for module in index.modules:
        if module.error is not None:
            findings.append(
                Finding(
                    path=module.rel,
                    line=module.error.lineno or 0,
                    col=module.error.offset or 0,
                    rule="DX0",
                    message=f"cannot parse: {module.error.msg}",
                    symbol=module.name,
                )
            )
    return findings


def _check_drift(
    baseline: Baseline, index: project.ProjectIndex, roots: Sequence[Path]
) -> List[str]:
    """Baseline entries must reference rules/locations that still exist."""
    errors: List[str] = []
    rels = {m.rel: m for m in index.modules}
    symbols = set(index.functions)
    module_names = {m.name for m in index.modules}
    for entry in baseline.entries:
        if entry.rule not in RULES:
            errors.append(
                f"baseline entry references unknown rule {entry.rule!r} "
                f"({entry.path}:{entry.symbol})"
            )
            continue
        if entry.path not in rels:
            errors.append(
                f"baseline entry references missing file {entry.path!r} "
                f"(rule {entry.rule})"
            )
            continue
        if (
            entry.symbol
            and entry.symbol not in symbols
            and entry.symbol not in module_names
        ):
            errors.append(
                f"baseline entry references vanished symbol "
                f"{entry.symbol!r} in {entry.path} (rule {entry.rule})"
            )
    return errors


def analyze_paths(
    paths: Optional[Sequence[Path]] = None,
    baseline_path: Optional[Path] = DEFAULT_BASELINE,
    select: Optional[Sequence[str]] = None,
) -> AnalysisReport:
    """Run every pass over ``paths`` (default: the repro package).

    ``baseline_path=None`` disables baselining; a missing baseline
    file is treated as an empty baseline.  ``select`` filters findings
    to rules matching any given prefix (e.g. ``["DX", "PX2"]``).
    """
    start = time.perf_counter()
    if paths is None:
        paths = [Path(__file__).resolve().parents[1]]
    index = project.load_project([Path(p) for p in paths])
    findings = _syntax_findings(index)
    findings += run_cs_pass(index)
    findings += run_dx_pass(index)
    findings += run_px_pass(index)
    findings += run_hx_pass(index)
    if select:
        findings = [
            f for f in findings if any(f.rule.startswith(s) for s in select)
        ]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    report = AnalysisReport(
        modules=len(index.modules),
        functions=len(index.functions),
        call_edges=sum(len(c) for c in index.calls.values()),
    )
    if baseline_path is not None and baseline_path.exists():
        baseline = load_baseline(baseline_path)
        report.drift_errors = _check_drift(baseline, index, list(paths))
        new, accepted, stale = apply_baseline(findings, baseline)
        report.findings = new
        report.accepted = accepted
        report.stale_entries = stale
    else:
        report.findings = findings
    report.elapsed_s = time.perf_counter() - start
    return report


def update_baseline(
    paths: Optional[Sequence[Path]] = None,
    baseline_path: Path = DEFAULT_BASELINE,
    select: Optional[Sequence[str]] = None,
) -> Baseline:
    """Rewrite the baseline to accept every current DX/PX/HX finding."""
    report = analyze_paths(paths, baseline_path=None, select=select)
    previous: Optional[Baseline] = None
    if baseline_path.exists():
        previous = load_baseline(baseline_path)
    baseline = merge_baseline(report.findings, previous)
    save_baseline(baseline_path, baseline)
    return baseline


def _print_report(report: AnalysisReport, strict: bool) -> None:
    for finding in report.findings:
        print(finding)
    for error in report.drift_errors:
        print(f"baseline drift: {error}")
    for entry in report.stale_entries:
        prefix = "stale baseline entry" if strict else "note: stale baseline entry"
        print(
            f"{prefix}: {entry.rule} {entry.path} ({entry.symbol}) — "
            "finding fixed; run --update-baseline"
        )
    print(
        f"analyze: {len(report.findings)} finding(s), "
        f"{len(report.accepted)} baselined, "
        f"{len(report.stale_entries)} stale baseline entr(y/ies) over "
        f"{report.modules} modules / {report.functions} functions / "
        f"{report.call_edges} call edges in {report.elapsed_s:.2f}s"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools analyze",
        description="Hygiene/determinism/process-safety/hot-path static analysis.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to analyze (default: the repro package)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="baseline file of accepted findings",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline entirely",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to the current findings and exit 0",
    )
    parser.add_argument(
        "--strict-baseline",
        action="store_true",
        help="also fail on stale baseline entries (fixed findings)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="PREFIX",
        help="only report rules matching PREFIX (repeatable, e.g. DX, PX2)",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    args = parser.parse_args(list(argv) if argv is not None else None)

    paths = args.paths or None
    missing = [str(p) for p in args.paths if not p.exists()]
    if missing:
        print(f"no such file or directory: {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        if args.update_baseline:
            baseline = update_baseline(
                paths, baseline_path=args.baseline, select=args.select
            )
            print(
                f"analyze: baseline updated with {len(baseline.entries)} "
                f"entr(y/ies) at {args.baseline}"
            )
            return 0
        report = analyze_paths(
            paths,
            baseline_path=None if args.no_baseline else args.baseline,
            select=args.select,
        )
    except BaselineError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        _print_report(report, args.strict_baseline)
    failed = bool(report.findings or report.drift_errors) or (
        args.strict_baseline and bool(report.stale_entries)
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
