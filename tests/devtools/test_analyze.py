"""Tests for ReproCheck, the static analyzer.

The claims, in order: every bad-example fixture triggers exactly its
rule (plus the CS hygiene findings its source lines carry); the
shipped tree is clean against the checked-in baseline; the baseline
round-trips (``--update-baseline`` then ``analyze`` exits 0) and
preserves justifications; the whole-program passes see
interprocedural flows the file-local CS rules cannot (cross-module
wall-clock -> RunSummary, unpicklable worker payloads); inline
``# repro: allow[...]`` escapes work; baseline drift is fatal; and
the CLI communicates all of it through exit codes and ``--json``.
The CS rules themselves are pinned in ``test_lint.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.analyze import (
    DEFAULT_BASELINE,
    analyze_paths,
    main,
    update_baseline,
)
from repro.devtools.rules import RULES, load_baseline

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures" / "analyze"

#: every bad-example package and the one rule it must trigger.
FIXTURE_RULES = [
    ("dx1_wall_clock", "DX1"),
    ("dx2_rng", "DX2"),
    ("dx3_env", "DX3"),
    ("dx4_id", "DX4"),
    ("dx5_set_order", "DX5"),
    ("px1_payload", "PX1"),
    ("px2_global", "PX2"),
    ("px3_handle", "PX3"),
    ("hx1_alloc", "HX1"),
    ("hx2_attr", "HX2"),
    ("hx3_try", "HX3"),
]

#: CS findings a fixture also carries, as (path, line, rule): the DX1
#: and DX2 sources are a wall-clock read and an unseeded draw, which
#: CS3 and CS2 gate wherever they appear.
FIXTURE_CS = {
    "dx1_wall_clock": [("dx1_wall_clock/clock.py", 7, "CS3")],
    "dx2_rng": [("dx2_rng/draws.py", 9, "CS2")],
}


def _fixture_findings(package: str, select=None):
    report = analyze_paths([FIXTURES / package], baseline_path=None, select=select)
    return report.findings


@pytest.mark.parametrize("package,rule", FIXTURE_RULES)
def test_fixture_triggers_exactly_its_rule(package, rule):
    findings = _fixture_findings(package)
    family = [f for f in findings if not f.rule.startswith("CS")]
    assert family, f"{package} produced no findings"
    assert {f.rule for f in family} == {rule}, "\n".join(
        str(f) for f in findings
    )
    assert _fixture_findings(package, select=[rule[:2]]) == family
    hygiene = [(f.path, f.line, f.rule) for f in findings if f.rule.startswith("CS")]
    assert hygiene == FIXTURE_CS.get(package, [])


def test_every_analyze_rule_has_a_fixture():
    covered = {rule for _, rule in FIXTURE_RULES}
    # CS1-CS4 share the cs_hygiene fixture (pinned in test_lint.py).
    covered |= {f.rule for f in _fixture_findings("cs_hygiene")}
    # DX0 (parse failure) is exercised by test_syntax_error_is_dx0.
    assert set(RULES) - {"DX0"} == covered


def test_shipped_tree_is_clean_against_baseline():
    report = analyze_paths()
    assert report.findings == [], "\n".join(str(f) for f in report.findings)
    assert report.drift_errors == []
    assert report.stale_entries == []
    assert report.clean


def test_checked_in_baseline_entries_are_justified():
    baseline = load_baseline(DEFAULT_BASELINE)
    assert baseline.entries, "expected deliberate exceptions to be baselined"
    for entry in baseline.entries:
        assert entry.justification.strip(), f"{entry.rule} {entry.symbol}"
        assert "TODO" not in entry.justification, f"{entry.rule} {entry.symbol}"


def test_baseline_round_trip(tmp_path):
    """--update-baseline then analyze exits 0; justifications survive."""
    baseline = tmp_path / "baseline.json"
    fixture = FIXTURES / "px2_global"
    assert main([str(fixture), "--baseline", str(baseline), "--update-baseline"]) == 0
    assert main([str(fixture), "--baseline", str(baseline), "--strict-baseline"]) == 0

    data = json.loads(baseline.read_text())
    assert all(e["justification"] == "TODO: justify" for e in data["entries"])
    data["entries"][0]["justification"] = "deliberate: exercised by tests"
    baseline.write_text(json.dumps(data) + "\n")
    update_baseline([fixture], baseline_path=baseline)
    merged = load_baseline(baseline)
    assert merged.entries[0].justification == "deliberate: exercised by tests"


def test_cross_module_flow_is_invisible_to_lint():
    """The acceptance demo: the file-local CS rules see nothing in the
    sink module, the whole-program pass reports the wall-clock ->
    RunSummary flow."""
    sink = FIXTURES / "dx1_wall_clock" / "sink.py"
    assert analyze_paths([sink], baseline_path=None, select=["CS"]).findings == []
    findings = _fixture_findings("dx1_wall_clock", select=["DX"])
    assert len(findings) == 1
    finding = findings[0]
    assert finding.rule == "DX1"
    assert finding.path.endswith("sink.py")
    assert "time.time()" in finding.message
    assert "RunSummary" in finding.message
    assert "now_stamp" in (finding.detail or "")  # the flow chain


def test_unpicklable_payload_is_detected():
    findings = _fixture_findings("px1_payload")
    assert len(findings) == 1
    assert findings[0].rule == "PX1"
    assert "not picklable" in findings[0].message
    assert "submit" in findings[0].message


def test_inline_allow_suppresses_finding(tmp_path):
    module = tmp_path / "knob.py"
    module.write_text(
        "import os\n"
        "\n"
        "\n"
        "def level():\n"
        "    # repro: allow[DX3]\n"
        '    return os.getenv("REPRO_LEVEL", "0")\n'
    )
    report = analyze_paths([module], baseline_path=None)
    assert report.findings == []
    module.write_text(module.read_text().replace("# repro: allow[DX3]\n", ""))
    report = analyze_paths([module], baseline_path=None)
    assert [f.rule for f in report.findings] == ["DX3"]


def test_family_allow_prefix_suppresses_finding(tmp_path):
    module = tmp_path / "hotloop.py"
    module.write_text(
        "def spin(rows):  # repro: hot\n"
        "    for row in rows:\n"
        "        box = [row]  # repro: allow[HX]\n"
        "    return box\n"
    )
    report = analyze_paths([module], baseline_path=None)
    assert report.findings == []


def test_syntax_error_is_dx0(tmp_path):
    module = tmp_path / "broken.py"
    module.write_text("def oops(:\n")
    report = analyze_paths([module], baseline_path=None)
    assert [f.rule for f in report.findings] == ["DX0"]


def test_baseline_drift_is_fatal(tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps(
            {
                "version": 1,
                "entries": [
                    {
                        "rule": "ZZ9",
                        "path": "dx3_env/knobs.py",
                        "symbol": "dx3_env.knobs.batch_size",
                        "justification": "unknown rule",
                    },
                    {
                        "rule": "DX3",
                        "path": "dx3_env/vanished.py",
                        "symbol": "dx3_env.vanished.gone",
                        "justification": "missing file",
                    },
                ],
            }
        )
    )
    report = analyze_paths([FIXTURES / "dx3_env"], baseline_path=baseline)
    assert len(report.drift_errors) == 2
    assert not report.clean
    assert main([str(FIXTURES / "dx3_env"), "--baseline", str(baseline)]) == 1


def test_vanished_symbol_is_drift(tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps(
            {
                "version": 1,
                "entries": [
                    {
                        "rule": "DX3",
                        "path": "dx3_env/knobs.py",
                        "symbol": "dx3_env.knobs.renamed_away",
                        "justification": "symbol no longer exists",
                    }
                ],
            }
        )
    )
    report = analyze_paths([FIXTURES / "dx3_env"], baseline_path=baseline)
    assert any("vanished symbol" in e for e in report.drift_errors)


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.devtools", "analyze", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_cli_exit_codes():
    clean = _run_cli("--strict-baseline")
    assert clean.returncode == 0, clean.stdout + clean.stderr
    dirty = _run_cli(str(FIXTURES / "px1_payload"), "--no-baseline")
    assert dirty.returncode == 1
    assert "PX1" in dirty.stdout


def test_cli_json_output():
    result = _run_cli(str(FIXTURES / "dx2_rng"), "--no-baseline", "--json")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    # the unseeded draw is a CS2 site, and it reaches job_key (DX2)
    assert [f["rule"] for f in payload["findings"]] == ["CS2", "DX2"]
    assert payload["modules"] == 2  # __init__ + draws
    assert payload["elapsed_s"] >= 0


def test_cli_select_filters_rules():
    # the px1 fixture has only PX findings; selecting DX must be clean.
    result = _run_cli(str(FIXTURES / "px1_payload"), "--no-baseline", "--select", "DX")
    assert result.returncode == 0, result.stdout + result.stderr
