"""Orchestrator cancellation and atomic cache publication."""

import json

from repro.orchestrate import (
    STATUS_CANCELLED,
    Orchestrator,
    ResultCache,
    SweepManifest,
)

from .test_scheduler import echo_execute, fake_summary


class TestCancel:
    def test_cancelled_jobs_skip_execution(self):
        calls = []

        def counting(job):
            calls.append(job)
            return fake_summary(job)

        orchestrator = Orchestrator(jobs=1, execute=counting, key_fn=str)
        orchestrator.cancel(["b"])
        results = orchestrator.run(["a", "b", "c"], raise_on_failure=False)
        assert calls == ["a", "c"]
        assert set(results) == {"a", "c"}
        assert set(orchestrator.cancelled) == {"b"}
        assert not orchestrator.failures

    def test_cancel_recorded_in_manifest(self, tmp_path):
        manifest = SweepManifest(tmp_path / "manifest.jsonl")
        orchestrator = Orchestrator(
            jobs=1, execute=echo_execute, key_fn=str, manifest=manifest
        )
        orchestrator.cancel(["x"])
        orchestrator.run(["x", "y"], raise_on_failure=False)
        statuses = {
            entry["key"]: entry["status"]
            for entry in (
                json.loads(line)
                for line in (tmp_path / "manifest.jsonl")
                .read_text()
                .splitlines()
            )
        }
        assert statuses["x"] == STATUS_CANCELLED
        assert statuses["y"] == "done"

    def test_cancel_resets_between_runs(self):
        orchestrator = Orchestrator(jobs=1, execute=echo_execute, key_fn=str)
        orchestrator.cancel(["a"])
        orchestrator.run(["a"], raise_on_failure=False)
        assert set(orchestrator.cancelled) == {"a"}
        # the request is consumed per-run state, not a permanent ban
        orchestrator._cancel_requested.clear()
        results = orchestrator.run(["a"], raise_on_failure=False)
        assert set(results) == {"a"}
        assert not orchestrator.cancelled


class TestAtomicStore:
    def test_store_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.store("k1", fake_summary("one"))
        cache.store("k1", fake_summary("one"))  # overwrite is fine too
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["k1.json"]
        assert cache.load("k1").mix == "one"

    def test_store_replaces_partial_garbage(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        # simulate a previous writer killed mid-write: stale tmp + junk
        (tmp_path / "k2.json").write_text('{"trunc')
        stale = tmp_path / "k2.json.12345.tmp"
        stale.write_text("junk")
        fresh = ResultCache(str(tmp_path))
        assert fresh.load("k2") is None  # corrupt entry -> recompute
        cache.store("k2", fake_summary("two"))
        assert json.loads((tmp_path / "k2.json").read_text())["mix"] == "two"
        assert stale.exists()  # strays are inert, never read
