"""Tests for the CS simulation-hygiene rules (ReproCheck's CS pass).

The claims: the shipped tree is clean; the bad-example fixture fires
every rule at exactly the recorded locations; CS2 and DX2 share one
RNG predicate; findings render as clickable locations; the zone
allowances hold inside ``repro``; no inline escape or baseline entry
can excuse a CS finding; and the CLI communicates all of it through
its exit code (the form CI consumes).
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.devtools.analyze import analyze_paths, main
from repro.devtools.rules import (
    Baseline,
    BaselineEntry,
    Finding,
    load_baseline,
    save_baseline,
)

REPRO_PACKAGE = Path(repro.__file__).parent
FIXTURE = Path(__file__).parent / "fixtures" / "analyze" / "cs_hygiene" / "bad_example.py"


def _cs_findings(*paths):
    return analyze_paths(list(paths), baseline_path=None, select=["CS"]).findings


def test_shipped_tree_is_clean():
    findings = _cs_findings(REPRO_PACKAGE)
    assert findings == [], "\n".join(str(f) for f in findings)


def test_fixture_triggers_every_rule():
    findings = _cs_findings(FIXTURE)
    assert [(f.rule, f.line, f.col) for f in findings] == [
        ("CS2", 10, 0),  # from random import randint
        ("CS1", 17, 4),  # evict_way
        ("CS1", 18, 4),  # fill_way
        ("CS1", 19, 4),  # invalidate
        ("CS2", 24, 11),  # random.randint
        ("CS2", 25, 16),  # random.Random() without a seed
        ("CS2", 26, 12),  # numpy.random.rand
        ("CS3", 32, 11),  # time.time
        # += and = on .stats counters, plus the widened packed-layout
        # forms: subscripted core_stats[i] and a *_stats local alias.
        ("CS4", 37, 4),
        ("CS4", 38, 4),
        ("CS4", 44, 4),
        ("CS4", 46, 4),
    ]
    # the whole module is hygiene-only: no DX/PX/HX finding rides along
    report = analyze_paths([FIXTURE], baseline_path=None)
    assert report.findings == findings


def test_cs2_agrees_with_dx2_on_seeded_numpy(tmp_path):
    """CS2 and DX2 share one predicate, so a ``Generator`` construction
    DX2 accepts is clean for CS2 too, while a global-generator draw
    stays flagged."""
    source = tmp_path / "seeded.py"
    source.write_text(
        "import numpy as np\n"
        "rng = np.random.Generator(bit_generator)\n"
        "draws = np.random.rand(4)\n"
    )
    assert [(f.rule, f.line) for f in _cs_findings(source)] == [("CS2", 3)]


def test_violation_rendering_is_clickable():
    finding = Finding("src/x.py", 12, 4, "CS3", "no wall clock")
    assert str(finding) == "src/x.py:12:4: CS3 no wall clock"


def test_zone_allowances_apply_inside_repro():
    # the same staged-mutator calls the fixture trips on are legal in
    # the cache layer itself
    assert _cs_findings(REPRO_PACKAGE / "cache" / "cache.py") == []
    assert _cs_findings(REPRO_PACKAGE / "hierarchy" / "base.py") == []
    # and seeded randomness in workloads is legal
    assert _cs_findings(REPRO_PACKAGE / "workloads" / "synthetic.py") == []


def test_cs_findings_cannot_be_excused(tmp_path):
    """Neither an inline escape nor the baseline hides a CS finding."""
    module = tmp_path / "meddle.py"
    module.write_text(
        "def meddle(llc):\n"
        "    llc.evict_way(0, 0)  # repro: allow[CS1]\n"
        "    # repro: allow[CS]\n"
        "    llc.fill_way(0, 0, 0x40)\n"
    )
    baseline = tmp_path / "baseline.json"
    assert main([str(module), "--baseline", str(baseline), "--update-baseline"]) == 0
    assert load_baseline(baseline).entries == []
    report = analyze_paths([module], baseline_path=baseline)
    assert [(f.rule, f.line) for f in report.findings] == [("CS1", 2), ("CS1", 4)]
    assert main([str(module), "--baseline", str(baseline)]) == 1

    # a hand-written entry for the exact (rule, path, symbol) accepts nothing
    entry = BaselineEntry("CS1", "meddle.py", "meddle.meddle", "hand-written")
    save_baseline(baseline, Baseline(entries=[entry]))
    report = analyze_paths([module], baseline_path=baseline)
    assert report.accepted == []
    assert [f.symbol for f in report.findings] == [entry.symbol, entry.symbol]
    assert report.stale_entries == [entry]
    assert main([str(module), "--baseline", str(baseline)]) == 1


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["--select", "CS"]) == 0
    assert main([str(FIXTURE), "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "CS1" in out and "12 finding(s)" in out
    assert main([str(tmp_path / "missing.py")]) == 2
