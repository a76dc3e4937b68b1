"""Tests for the custom simulation-hygiene lint.

Three claims: the shipped tree is clean, the bad-example fixture
triggers every rule, and the CLI communicates both through its exit
code (the form CI consumes).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import repro
from repro.devtools.lint import LintViolation, check_file, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
REPRO_PACKAGE = Path(repro.__file__).parent
FIXTURE = Path(__file__).parent / "fixtures" / "bad_example.py"


def test_shipped_tree_is_clean():
    violations = run_lint()
    assert violations == [], "\n".join(str(v) for v in violations)


def test_fixture_triggers_every_rule():
    violations = check_file(FIXTURE)
    by_rule = {}
    for violation in violations:
        by_rule.setdefault(violation.rule, []).append(violation)
    assert set(by_rule) == {"CS1", "CS2", "CS3", "CS4"}
    assert len(by_rule["CS1"]) == 3  # evict_way, fill_way, invalidate
    assert len(by_rule["CS2"]) == 4  # from-import, randint, Random(), numpy
    assert len(by_rule["CS3"]) == 1  # time.time
    # += and = on .stats counters, plus the widened packed-layout
    # forms: subscripted core_stats[i] and a *_stats local alias.
    assert len(by_rule["CS4"]) == 4


def test_cs2_agrees_with_dx2_on_seeded_numpy(tmp_path):
    """Lint reads the determinism analyzer's source table, so a
    ``Generator`` construction DX2 accepts is clean for CS2 too, while
    a global-generator draw stays flagged."""
    source = tmp_path / "seeded.py"
    source.write_text(
        "import numpy as np\n"
        "rng = np.random.Generator(bit_generator)\n"
        "draws = np.random.rand(4)\n"
    )
    assert [(v.rule, v.line) for v in check_file(source)] == [("CS2", 3)]


def test_violation_rendering_is_clickable():
    violation = LintViolation("src/x.py", 12, 4, "CS3", "no wall clock")
    assert str(violation) == "src/x.py:12:4: CS3 no wall clock"


def test_zone_allowances_apply_inside_repro():
    # the same staged-mutator calls the fixture trips on are legal in
    # the cache layer itself
    assert check_file(REPRO_PACKAGE / "cache" / "cache.py") == []
    assert check_file(REPRO_PACKAGE / "hierarchy" / "base.py") == []
    # and seeded randomness in workloads is legal
    assert check_file(REPRO_PACKAGE / "workloads" / "synthetic.py") == []


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.devtools.lint", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_cli_exit_codes():
    clean = _run_cli()
    assert clean.returncode == 0, clean.stdout + clean.stderr
    dirty = _run_cli(str(FIXTURE))
    assert dirty.returncode == 1
    assert "CS1" in dirty.stdout and "violation(s)" in dirty.stdout
