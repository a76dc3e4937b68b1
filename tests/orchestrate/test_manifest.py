"""SweepManifest: append-only journalling that survives crashes."""

from repro.orchestrate import SweepManifest
from repro.orchestrate.manifest import STATUS_DONE, STATUS_FAILED
from repro.telemetry.__main__ import main as telemetry_main


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = SweepManifest(tmp_path / "m.jsonl")
        manifest.record("k1", STATUS_DONE, attempts=1, label="MIX_01/inclusive/none")
        manifest.record("k2", STATUS_FAILED, attempts=3, error="boom")
        statuses = manifest.statuses()
        assert statuses["k1"].status == STATUS_DONE
        assert statuses["k1"].label == "MIX_01/inclusive/none"
        assert statuses["k2"].attempts == 3
        assert statuses["k2"].error == "boom"
        assert manifest.done_keys() == {"k1"}
        assert set(manifest.failed()) == {"k2"}

    def test_last_record_wins(self, tmp_path):
        manifest = SweepManifest(tmp_path / "m.jsonl")
        manifest.record("k", STATUS_FAILED, attempts=1, error="first try")
        manifest.record("k", STATUS_DONE, attempts=2)
        assert manifest.statuses()["k"].status == STATUS_DONE
        assert manifest.failed() == {}

    def test_missing_file_is_empty(self, tmp_path):
        manifest = SweepManifest(tmp_path / "nope.jsonl")
        assert manifest.statuses() == {}
        assert manifest.done_keys() == set()

    def test_truncated_final_line_is_skipped(self, tmp_path):
        """A kill mid-append must not poison the journal on resume."""
        path = tmp_path / "m.jsonl"
        manifest = SweepManifest(path)
        manifest.record("k1", STATUS_DONE)
        manifest.record("k2", STATUS_DONE)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "k3", "stat')  # crash mid-write
        assert manifest.done_keys() == {"k1", "k2"}
        # ...and the journal keeps accepting records afterwards.
        manifest.record("k4", STATUS_DONE)
        assert "k4" in manifest.done_keys()

    def test_resume_cuts_the_torn_tail_and_validates(self, tmp_path):
        """The record after a kill mid-append replaces the torn line, so
        the resumed journal holds whole records and validates."""
        path = tmp_path / "sweep-manifest.jsonl"
        manifest = SweepManifest(path)
        manifest.record("k1", STATUS_DONE)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"attempts": 1, "key": "k2", "sta')  # crash mid-write
        manifest.record("k2", STATUS_DONE)
        assert set(manifest.statuses()) == {"k1", "k2"}
        assert len(path.read_text().splitlines()) == 2
        assert telemetry_main(["validate", str(tmp_path)]) == 0

    def test_garbage_lines_are_skipped(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('null\n[1, 2]\n{"no_key": 1}\n{"key": "k", "status": "done"}\n')
        manifest = SweepManifest(path)
        assert manifest.done_keys() == {"k"}
