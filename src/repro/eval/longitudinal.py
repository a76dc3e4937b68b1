"""Longitudinal diffing: did the *repo* move, not just the policy?

The A/B report compares policies at one point in time.  This module
answers the orthogonal question — has the codebase itself drifted
between two states — from result-cache entries, which are *exact*:
the simulator is deterministic, so the content digest of a cache file
is a golden value.  Any changed digest for the same job key means
simulated behaviour changed and calibrated experiments need
re-baselining — the same tripwire ``tests/test_regression_golden.py``
pins for one configuration, generalised to every cached run.

``python -m repro.eval longitudinal`` also diffs two ``BENCH_*.json``
host-performance baselines; it hands those to ``repro.perf``'s loader
and comparator, the ones ``python -m repro.perf compare`` runs.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, Union

from ..errors import EvalError


def cache_digests(cache_dir: Union[str, Path]) -> Dict[str, str]:
    """Content digest of every result-cache entry, by job key.

    sha256 over the raw file bytes: cache writes are canonical (single
    writer, ``json.dumps`` with fixed options), so byte equality is
    the right notion of "same simulated outcome".
    """
    directory = Path(cache_dir)
    if not directory.is_dir():
        raise EvalError(f"no such cache directory: {directory}")
    digests: Dict[str, str] = {}
    for entry in sorted(directory.glob("*.json")):
        stem = entry.stem
        if len(stem) == 40 and all(c in "0123456789abcdef" for c in stem):
            digests[stem] = hashlib.sha256(entry.read_bytes()).hexdigest()
    return digests


def diff_digests(old: Dict[str, str], new: Dict[str, str]) -> Dict:
    """Exact golden diff between two digest maps.

    ``changed`` is the alarm list: the same job key (same simulated
    coordinate, by content-hash construction) producing different
    bytes means simulator behaviour drifted.
    """
    shared = set(old) & set(new)
    return {
        "kind": "digest-diff",
        "changed": sorted(key for key in shared if old[key] != new[key]),
        "unchanged": sum(1 for key in shared if old[key] == new[key]),
        "only_old": sorted(set(old) - set(new)),
        "only_new": sorted(set(new) - set(old)),
    }


def render_longitudinal(diff: Dict) -> str:
    """Markdown for a :func:`diff_digests` result."""
    lines = [
        "# Result-cache golden diff",
        "",
        f"- unchanged entries: {diff['unchanged']}",
        f"- changed entries: {len(diff['changed'])}",
        f"- only in old: {len(diff['only_old'])},"
        f" only in new: {len(diff['only_new'])}",
    ]
    if diff["changed"]:
        lines += ["", "Changed job keys (behaviour drift!):", ""]
        lines += [f"- `{key}`" for key in diff["changed"]]
    else:
        lines += ["", "No shared entry changed — simulated behaviour"
                  " is stable across the two states."]
    lines.append("")
    return "\n".join(lines)
