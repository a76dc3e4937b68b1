"""Atomic cache publication."""

import json

from repro.orchestrate import ResultCache

from .test_scheduler import fake_summary


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
