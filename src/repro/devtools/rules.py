"""Rule registry, findings, and the baseline/suppression machinery.

Every static-analysis rule — the file-local CS hygiene rules and the
whole-program DX/PX/HX families — registers here so reports, the
baseline file and the CLI agree on identities and severities.

Findings are *location-stable*: a baseline entry keys on
``(rule, path, symbol)`` where ``symbol`` is the enclosing function's
qualname (or the module name for module-level code), never on line
numbers, so routine edits don't churn the baseline.  Each entry
carries a one-line human justification; ``--update-baseline``
preserves justifications of surviving entries and stamps new ones
with ``TODO: justify``.

Baseline drift — entries naming rules that don't exist, files that
are gone, or symbols no longer defined — is an error: a baseline must
only ever describe the current tree.

CS hygiene findings are never baselined: no entry accepts one and
``--update-baseline`` never records one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

BASELINE_VERSION = 1


@dataclass(frozen=True)
class Rule:
    """One registered analysis rule."""

    id: str
    family: str  # "CS" | "DX" | "PX" | "HX"
    severity: str
    summary: str


#: the single rule registry.
RULES: Dict[str, Rule] = {}

for _rule in (
    # file-local hygiene (repro.devtools.passes.cs)
    Rule("CS1", "CS", SEVERITY_ERROR, "staged cache mutator outside owning layers"),
    Rule("CS2", "CS", SEVERITY_ERROR, "unseeded randomness"),
    Rule("CS3", "CS", SEVERITY_ERROR, "host wall-clock read"),
    Rule("CS4", "CS", SEVERITY_ERROR, "stats counter mutated outside owning layers"),
    # determinism dataflow (repro.devtools.passes.dx)
    Rule("DX0", "DX", SEVERITY_ERROR, "file cannot be parsed"),
    Rule("DX1", "DX", SEVERITY_ERROR, "wall-clock value can reach a determinism sink"),
    Rule("DX2", "DX", SEVERITY_ERROR, "unseeded randomness can reach a determinism sink"),
    Rule("DX3", "DX", SEVERITY_ERROR, "environment read outside a config module"),
    Rule("DX4", "DX", SEVERITY_ERROR, "id() value can reach a determinism sink"),
    Rule("DX5", "DX", SEVERITY_ERROR, "set iteration order can reach a determinism sink"),
    # process-safety (repro.devtools.passes.px)
    Rule("PX1", "PX", SEVERITY_ERROR, "unpicklable object in a worker payload position"),
    Rule("PX2", "PX", SEVERITY_ERROR, "module-level mutable global written after import"),
    Rule("PX3", "PX", SEVERITY_ERROR, "open handle or lock in shared/payload position"),
    # hot-path (repro.devtools.passes.hx)
    Rule("HX1", "HX", SEVERITY_WARNING, "per-iteration allocation in a hot loop"),
    Rule("HX2", "HX", SEVERITY_WARNING, "repeated attribute/global lookup in a hot loop"),
    Rule("HX3", "HX", SEVERITY_WARNING, "try/except inside a hot loop"),
):
    RULES[_rule.id] = _rule


@dataclass(frozen=True)
class Finding:
    """One analysis finding at an exact source location.

    ``symbol`` is the location-stable identity used for baselining:
    the enclosing function qualname, or the module name for
    module-level code.  ``detail`` carries rule-specific context (for
    flow rules, the call chain from source to sink).
    """

    path: str  # root-relative display path ('/'-separated)
    line: int
    col: int
    rule: str
    message: str
    symbol: str = ""
    detail: str = ""

    @property
    def severity(self) -> str:
        rule = RULES.get(self.rule)
        return rule.severity if rule else SEVERITY_ERROR

    @property
    def baselinable(self) -> bool:
        """Can a baseline entry accept this finding?  Never for CS."""
        return not self.rule.startswith("CS")

    def __str__(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.detail:
            text += f" [{self.detail}]"
        return text

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "symbol": self.symbol,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class BaselineEntry:
    """One accepted finding, with its human justification."""

    rule: str
    path: str
    symbol: str
    justification: str = ""

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.rule, self.path, self.symbol)


@dataclass
class Baseline:
    """The checked-in set of accepted findings."""

    entries: List[BaselineEntry] = field(default_factory=list)
    path: Optional[Path] = None

    def by_key(self) -> Dict[Tuple[str, str, str], BaselineEntry]:
        return {entry.key: entry for entry in self.entries}


class BaselineError(ValueError):
    """The baseline file is malformed."""


def load_baseline(path: Path) -> Baseline:
    """Read a baseline file; raises :class:`BaselineError` on bad shape."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BaselineError(f"cannot read baseline {path}: {exc}") from exc
    if not isinstance(data, dict) or "entries" not in data:
        raise BaselineError(f"baseline {path} lacks an 'entries' list")
    entries: List[BaselineEntry] = []
    for raw in data["entries"]:
        try:
            entries.append(
                BaselineEntry(
                    rule=raw["rule"],
                    path=raw["path"],
                    symbol=raw.get("symbol", ""),
                    justification=raw.get("justification", ""),
                )
            )
        except (TypeError, KeyError) as exc:
            raise BaselineError(f"malformed baseline entry {raw!r}") from exc
    return Baseline(entries=entries, path=path)


def save_baseline(path: Path, baseline: Baseline) -> None:
    """Write a baseline deterministically (sorted, trailing newline)."""
    payload = {
        "version": BASELINE_VERSION,
        "entries": [
            {
                "rule": entry.rule,
                "path": entry.path,
                "symbol": entry.symbol,
                "justification": entry.justification,
            }
            for entry in sorted(
                baseline.entries, key=lambda e: (e.rule, e.path, e.symbol)
            )
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def apply_baseline(
    findings: Sequence[Finding], baseline: Baseline
) -> Tuple[List[Finding], List[Finding], List[BaselineEntry]]:
    """Split findings into (new, accepted) and report stale entries.

    A baseline entry accepts every baselinable finding matching its
    ``(rule, path, symbol)`` key.  Entries matching nothing are
    *stale* — the violation they excused is gone.
    """
    index = baseline.by_key()
    used = set()
    new: List[Finding] = []
    accepted: List[Finding] = []
    for finding in findings:
        key = (finding.rule, finding.path, finding.symbol)
        if finding.baselinable and key in index:
            used.add(key)
            accepted.append(finding)
        else:
            new.append(finding)
    stale = [entry for entry in baseline.entries if entry.key not in used]
    return new, accepted, stale


def merge_baseline(
    findings: Sequence[Finding], previous: Optional[Baseline]
) -> Baseline:
    """Baseline for the current baselinable findings, keeping old
    justifications."""
    old = previous.by_key() if previous is not None else {}
    entries: Dict[Tuple[str, str, str], BaselineEntry] = {}
    for finding in findings:
        key = (finding.rule, finding.path, finding.symbol)
        if key in entries or not finding.baselinable:
            continue
        kept = old.get(key)
        entries[key] = BaselineEntry(
            rule=finding.rule,
            path=finding.path,
            symbol=finding.symbol,
            justification=kept.justification if kept else "TODO: justify",
        )
    return Baseline(entries=list(entries.values()))


__all__ = [
    "Baseline",
    "BaselineEntry",
    "BaselineError",
    "Finding",
    "RULES",
    "Rule",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "apply_baseline",
    "load_baseline",
    "merge_baseline",
    "save_baseline",
]
