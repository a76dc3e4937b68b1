"""The minimal JSON-schema validator and the checked-in schemas."""

from repro.telemetry import (
    CHROME_TRACE_SCHEMA,
    EVENT_SCHEMA,
    RUN_MANIFEST_SCHEMA,
)
from repro.telemetry.__main__ import main as telemetry_main
from repro.telemetry.schema import check, validate_sweep_manifest


class TestCheck:
    def test_valid_event_passes(self):
        record = {"cycle": 10.0, "event": "llc_miss", "core": 0, "line": 64}
        assert check(record, EVENT_SCHEMA) == []

    def test_missing_required_key(self):
        errors = check({"cycle": 1.0}, EVENT_SCHEMA)
        assert any("missing required key 'event'" in error for error in errors)

    def test_wrong_type(self):
        record = {"cycle": "ten", "event": "llc_miss", "core": 0, "line": -1}
        errors = check(record, EVENT_SCHEMA)
        assert any("expected number, got str" in error for error in errors)

    def test_enum_violation(self):
        record = {"cycle": 1.0, "event": "warp_drive", "core": 0, "line": -1}
        errors = check(record, EVENT_SCHEMA)
        assert any("'warp_drive' not one of" in error for error in errors)

    def test_minimum_violation(self):
        record = {"cycle": -1.0, "event": "llc_miss", "core": 0, "line": -1}
        errors = check(record, EVENT_SCHEMA)
        assert any("below minimum" in error for error in errors)

    def test_boolean_is_not_an_integer(self):
        """``bool`` subclasses ``int`` in Python; the schema must not
        accept ``True`` where an integer is pinned."""
        record = {"cycle": 1.0, "event": "llc_miss", "core": True, "line": -1}
        errors = check(record, EVENT_SCHEMA)
        assert any("expected integer, got boolean" in error for error in errors)

    def test_array_items_checked_with_index_paths(self):
        trace = {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {"name": "ok", "ph": "M", "pid": 0, "tid": 0},
                {"name": "bad", "ph": "Z", "pid": 0, "tid": 0},
            ],
        }
        errors = check(trace, CHROME_TRACE_SCHEMA)
        assert len(errors) == 1
        assert errors[0].startswith("$.traceEvents[1].ph")

    def test_manifest_status_enum(self):
        manifest = {
            "schema": 1,
            "jobs": [
                {"key": "k", "label": "l", "status": "maybe", "cached": False}
            ],
        }
        errors = check(manifest, RUN_MANIFEST_SCHEMA)
        assert any("'maybe' not one of" in error for error in errors)

    def test_valid_manifest_passes(self):
        manifest = {
            "schema": 1,
            "settings": {"scale": 0.0625},
            "jobs": [
                {
                    "key": "k",
                    "label": "MIX_10/inclusive/qbs",
                    "status": "done",
                    "cached": False,
                    "attempts": 1,
                    "wall_s": 0.5,
                    "cpu_s": 0.4,
                    "events": 120,
                },
                {"key": "j", "label": "x", "status": "cached", "cached": True},
            ],
        }
        assert check(manifest, RUN_MANIFEST_SCHEMA) == []


class TestSweepManifest:
    """``validate_sweep_manifest`` and ``validate <dir>`` on a cache."""

    GOOD = '{"attempts": 1, "key": "k1", "status": "done"}\n'

    def test_real_manifest_passes(self, tmp_path):
        from repro.experiments import ExperimentSettings, Runner
        from repro.workloads import WorkloadMix

        settings = ExperimentSettings(
            scale=0.0625, quota=2_000, warmup=500, cache_dir=str(tmp_path)
        )
        mix = WorkloadMix("MIX_SCHEMA", ("dea", "pov"))
        Runner(settings).run_many(
            [{"mix": mix}, {"mix": mix, "tla": "qbs"}], jobs=1
        )
        journal = tmp_path / Runner.MANIFEST_NAME
        assert len(journal.read_text().splitlines()) == 2
        assert validate_sweep_manifest(journal) == []
        assert telemetry_main(["validate", str(tmp_path)]) == 0

    def test_torn_last_line_is_tolerated(self, tmp_path):
        journal = tmp_path / "sweep-manifest.jsonl"
        journal.write_text(self.GOOD + '{"key": "k2", "sta')
        assert validate_sweep_manifest(journal) == []

    def test_malformed_middle_line_fails(self, tmp_path):
        journal = tmp_path / "sweep-manifest.jsonl"
        journal.write_text(self.GOOD + '{"key": "k2", "sta\n' + self.GOOD)
        errors = validate_sweep_manifest(journal)
        assert len(errors) == 1 and errors[0].startswith("line 2: invalid JSON")

    def test_claimed_record_fails(self, tmp_path):
        journal = tmp_path / "sweep-manifest.jsonl"
        journal.write_text('{"key": "k1", "status": "claimed", "worker": "w1"}\n')
        errors = validate_sweep_manifest(journal)
        assert errors == [
            "line 1.status: 'claimed' not one of ['done', 'failed', 'cancelled']"
        ]

    def test_validate_dir_exits_1_on_a_bad_manifest(self, tmp_path):
        # a valid artefact beside it: the manifest alone decides the exit
        (tmp_path / "events-k.jsonl").write_text(
            '{"core": 0, "cycle": 1.0, "event": "llc_miss", "line": 1}\n'
        )
        assert telemetry_main(["validate", str(tmp_path)]) == 0
        (tmp_path / "sweep-manifest.jsonl").write_text(
            '{"key": "k1", "status": "reclaimed"}\n'
        )
        assert telemetry_main(["validate", str(tmp_path)]) == 1
