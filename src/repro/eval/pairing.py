"""Pairing: align cached runs across policies, re-simulating nothing.

Evaluation consumes artefacts the stack already produces.  A sweep
leaves two records behind: the append-only ``sweep-manifest.jsonl``
journal (job key, label, workload category, status) and one
``<job_key>.json`` :class:`~repro.orchestrate.RunSummary` per executed
job in the :class:`~repro.orchestrate.ResultCache` directory.  This
module reads both and aligns runs *pairwise*: two runs form a pair
when they simulated the identical workload coordinate under two
different policies, which is exactly the unit of evidence the paper's
figures are built from.

Runs are found by **discovery** (:func:`discover_records`): scan the
manifest (or, without one, the cache directory) and take coordinates
from the summaries themselves.  Ambiguities — the same (workload,
policy) seen under several fidelity configurations — are resolved
deterministically (lowest job key wins) and surfaced in the report
rather than silently mixed.  :func:`records_from_sweep_manifest`
restricts the records to the done jobs of one sweep's journal.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import EvalError, ReproError
from ..orchestrate import ResultCache, RunSummary, SweepManifest
from ..orchestrate.manifest import STATUS_DONE
from ..workloads import mix_category

#: slice tag for runs whose apps no current profile covers (entries
#: cached by an older benchmark set); they still pair and appear in
#: the ``All`` slice, just under this explicit bucket.
CATEGORY_UNKNOWN = "uncategorised"

#: the baseline the paper normalises everything against.
BASELINE_POLICY = "inclusive/none"


def policy_name(mode: str, tla: str) -> str:
    """Canonical policy identity: ``mode/tla`` (e.g. ``inclusive/qbs``)."""
    return f"{mode}/{tla}"


def parse_policy(name: str) -> Tuple[str, str]:
    """Split ``mode/tla`` back into its components."""
    parts = name.split("/")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise EvalError(
            f"bad policy {name!r}; expected 'mode/tla' like 'inclusive/qbs'"
        )
    return parts[0], parts[1]


@dataclass(frozen=True)
class RunRecord:
    """One cached simulation, addressed for evaluation.

    ``workload`` is the pairing coordinate (the app tuple — core
    count is implicit in its length); ``policy`` is the contrast axis;
    ``category`` the slicing axis.  The summary carries the metrics.
    """

    key: str
    policy: str
    workload: Tuple[str, ...]
    mix: str
    category: str
    summary: RunSummary

    @property
    def num_cores(self) -> int:
        return len(self.workload)


def record_from_summary(
    key: str, summary: RunSummary, category: Optional[str] = None
) -> RunRecord:
    """Lift a cached :class:`RunSummary` into a :class:`RunRecord`.

    ``category`` normally comes from the sweep manifest (journalled
    next to the job since PR 9); summaries cached before that — or
    loaded without a manifest — fall back to deriving it from the app
    tuple, which is equivalent by construction.
    """
    apps = tuple(summary.apps)
    if category is None:
        try:
            category = mix_category(apps)
        except ReproError:
            category = CATEGORY_UNKNOWN
    return RunRecord(
        key=key,
        policy=policy_name(summary.mode, summary.tla),
        workload=apps,
        mix=summary.mix,
        category=category,
        summary=summary,
    )


def discover_records(
    cache_dir: Union[str, Path],
    manifest_name: str = "sweep-manifest.jsonl",
) -> List[RunRecord]:
    """Every usable cached run under ``cache_dir``, manifest-first.

    Keys listed as done in the sweep manifest are loaded with their
    journalled category tag; anything else in the directory (runs from
    manifest-less serial sweeps) is picked up by scanning for
    ``<40-hex>.json`` entries.  Ordering is deterministic (sorted by
    job key) regardless of directory iteration order.
    """
    directory = Path(cache_dir)
    if not directory.is_dir():
        raise EvalError(f"no such cache directory: {directory}")
    cache = ResultCache(str(directory))
    categories: Dict[str, Optional[str]] = {}
    manifest_path = directory / manifest_name
    if manifest_path.exists():
        for key, record in SweepManifest(manifest_path).statuses().items():
            if record.status == STATUS_DONE:
                categories[key] = record.category
    for entry in directory.glob("*.json"):
        stem = entry.stem
        if len(stem) == 40 and all(c in "0123456789abcdef" for c in stem):
            categories.setdefault(stem, None)
    records = []
    for key in sorted(categories):
        summary = cache.load(key)
        if summary is None:
            continue  # failed/cancelled key, or a corrupt entry
        records.append(record_from_summary(key, summary, categories[key]))
    return records


def records_from_sweep_manifest(
    manifest: Union[str, Path, SweepManifest],
    cache_dir: Union[str, Path],
) -> List[RunRecord]:
    """Records for exactly the done jobs of one sweep manifest."""
    if not isinstance(manifest, SweepManifest):
        manifest = SweepManifest(manifest)
    cache = ResultCache(str(cache_dir))
    statuses = manifest.statuses()
    records = []
    for key in sorted(statuses):
        record = statuses[key]
        if record.status != STATUS_DONE:
            continue
        summary = cache.load(key)
        if summary is None:
            continue
        records.append(record_from_summary(key, summary, record.category))
    return records


@dataclass(frozen=True)
class Pair:
    """One workload simulated under both policies of a contrast."""

    workload: Tuple[str, ...]
    mix: str
    category: str
    a: RunRecord
    b: RunRecord


@dataclass
class Pairing:
    """The outcome of aligning two policies' runs."""

    policy_a: str
    policy_b: str
    pairs: List[Pair]
    #: workloads with a run under exactly one of the two policies.
    unmatched: List[str]
    #: workloads where one (workload, policy) cell held several cached
    #: runs (e.g. two fidelity configurations); resolved to the lowest
    #: job key, counted here so reports can flag the ambiguity.
    ambiguous: int = 0


def pair_records(
    records: Sequence[RunRecord], policy_a: str, policy_b: str
) -> Pairing:
    """Align ``records`` into (policy_a, policy_b) pairs by workload.

    Within one (workload, policy) cell, runs are ordered by job key
    and the first is used — deterministic under any input order, with
    the ambiguity counted for the report header.
    """
    cells: Dict[Tuple[Tuple[str, ...], str], List[RunRecord]] = {}
    for record in records:
        if record.policy not in (policy_a, policy_b):
            continue
        cells.setdefault((record.workload, record.policy), []).append(record)
    ambiguous = 0
    chosen: Dict[Tuple[Tuple[str, ...], str], RunRecord] = {}
    for cell, candidates in cells.items():
        candidates.sort(key=lambda record: record.key)
        if len(candidates) > 1:
            ambiguous += 1
        chosen[cell] = candidates[0]
    workloads = sorted({workload for workload, _ in chosen})
    pairs: List[Pair] = []
    unmatched: List[str] = []
    for workload in workloads:
        a = chosen.get((workload, policy_a))
        b = chosen.get((workload, policy_b))
        if a is None or b is None:
            present = a or b
            unmatched.append(f"{present.mix}({'+'.join(workload)})")
            continue
        pairs.append(
            Pair(
                workload=workload,
                mix=a.mix,
                category=a.category,
                a=a,
                b=b,
            )
        )
    return Pairing(
        policy_a=policy_a,
        policy_b=policy_b,
        pairs=pairs,
        unmatched=unmatched,
        ambiguous=ambiguous,
    )


def available_policies(records: Sequence[RunRecord]) -> List[str]:
    """Distinct policies among ``records``, sorted."""
    return sorted({record.policy for record in records})
