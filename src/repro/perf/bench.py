"""The benchmark runner: pinned scenarios, min-of-N, ``BENCH_<n>.json``.

``run_bench`` executes every scenario in :data:`repro.perf.scenarios.
SCENARIOS` (or an injected subset — the tests use tiny synthetic
scenarios) with one untimed warm-up round followed by N timed rounds,
and records the **best** round's rate: min-of-N elapsed time is the
standard estimator for "how fast can this code go", because noise on a
shared host is strictly additive.  Every round's rate is kept in the
artifact too, so a later reader can judge the spread.

The artifact carries an environment fingerprint (python version,
platform, CPU count, git commit when available) because a trajectory
point is only comparable to points from a similar environment;
``repro.perf.compare`` warns when fingerprints disagree.

Numbering: ``next_bench_path`` returns ``BENCH_<n>.json`` with ``n``
one past the highest existing index in the target directory, so the
checked-in ``BENCH_0.json`` seed is never clobbered by a local run.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from ..errors import ConfigurationError
from ..version import __version__
from .scenarios import SCENARIOS, Scenario
from .schema import BENCH_SCHEMA_VERSION, validate_bench_dict

#: timed rounds per scenario (one extra warm-up round is always run).
DEFAULT_ROUNDS = 5
QUICK_ROUNDS = 2


def environment_fingerprint(quick: bool = False) -> Dict:
    """Describe the machine/toolchain this bench point was measured on."""
    fingerprint: Dict = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "version": __version__,
        "quick": quick,
    }
    commit = _git_commit()
    if commit is not None:
        fingerprint["commit"] = commit
    return fingerprint


def _git_commit() -> Optional[str]:
    """Current commit hash, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else None


def time_scenario(scenario: Scenario, rounds: int) -> Dict:
    """One warm-up round + ``rounds`` timed rounds; returns the row."""
    if rounds < 1:
        raise ConfigurationError("bench needs at least one timed round")
    done = scenario.round_fn()  # warm-up (also validates the workload)
    if done != scenario.work:
        raise ConfigurationError(
            f"{scenario.name}: round did {done} units, expected {scenario.work}"
        )
    elapsed: List[float] = []
    for _ in range(rounds):
        start = time.perf_counter()
        scenario.round_fn()
        elapsed.append(time.perf_counter() - start)
    best = min(elapsed)
    row: Dict = {
        "name": scenario.name,
        "metric": scenario.metric,
        "work": scenario.work,
        "value": scenario.work / best if best > 0 else 0.0,
        "best_s": best,
        "runs": [scenario.work / t if t > 0 else 0.0 for t in elapsed],
        "rounds": rounds,
        "floor": scenario.floor,
    }
    return row


def run_bench(
    rounds: Optional[int] = None,
    quick: bool = False,
    scenarios: Optional[Iterable[Scenario]] = None,
    progress=None,
) -> Dict:
    """Run the suite; returns the schema-valid artifact dict.

    ``progress`` (optional) is called with one status string per
    scenario — the CLI passes ``print``; library callers pass nothing.
    """
    if rounds is None:
        rounds = QUICK_ROUNDS if quick else DEFAULT_ROUNDS
    suite = list(scenarios) if scenarios is not None else list(SCENARIOS.values())
    if not suite:
        raise ConfigurationError("bench needs at least one scenario")
    results = []
    for scenario in suite:
        row = time_scenario(scenario, rounds)
        results.append(row)
        if progress is not None:
            progress(
                f"# {row['name']}: {row['value']:,.0f} {row['metric']} "
                f"(best of {rounds})"
            )
    artifact = {
        "schema": BENCH_SCHEMA_VERSION,
        "fingerprint": environment_fingerprint(quick=quick),
        "scenarios": results,
    }
    errors = validate_bench_dict(artifact)
    if errors:  # pragma: no cover - guards future schema drift
        raise ConfigurationError(
            f"bench produced a schema-invalid artifact: {errors[:5]}"
        )
    return artifact


def next_bench_path(directory: Optional[Path] = None) -> Path:
    """``BENCH_<n>.json`` with the lowest unused index in ``directory``."""
    directory = Path(directory) if directory is not None else Path.cwd()
    taken = []
    for existing in directory.glob("BENCH_*.json"):
        stem = existing.stem.split("_", 1)[-1]
        if stem.isdigit():
            taken.append(int(stem))
    index = max(taken) + 1 if taken else 0
    return directory / f"BENCH_{index}.json"


def write_bench(artifact: Dict, path: Optional[Path] = None) -> Path:
    """Write the artifact (stable key order, indented for diffs)."""
    path = Path(path) if path is not None else next_bench_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(artifact, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_bench(path) -> Dict:
    """Load + schema-check a bench artifact.

    Raises :class:`ConfigurationError` for an unreadable, non-JSON or
    schema-invalid file.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise ConfigurationError(f"unreadable bench file {path}: {error}") from error
    errors = validate_bench_dict(data)
    if errors:
        raise ConfigurationError(
            f"{path}: not a valid bench artifact: {errors[:5]}"
        )
    return data


def scenario_index(artifact: Dict) -> Dict[str, Dict]:
    """Index an artifact's scenario rows by name."""
    return {row["name"]: row for row in artifact["scenarios"]}
