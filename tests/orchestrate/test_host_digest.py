"""Host-performance digests through the orchestrator.

The digest is pure execution provenance: it must survive the worker
pipe (parallel runs report rates exactly like serial ones), must never
reach the on-disk result cache (byte parity), and must stay out of the
job key (enabling phases cannot re-execute a cached sweep).
"""

import json
from pathlib import Path

from repro.experiments import ExperimentSettings, Runner
from repro.orchestrate import job as job_module
from repro.workloads import mix_by_name

MIXES = ("MIX_00", "MIX_10")


def requests():
    return [
        dict(mix=mix_by_name(name), mode="inclusive", tla=tla)
        for name in MIXES
        for tla in ("none", "qbs")
    ]


def settings(tmp_path, subdir, **kwargs):
    defaults = dict(
        scale=0.0625,
        quota=6_000,
        warmup=1_000,
        sample=4,
        cache_dir=str(tmp_path / subdir),
    )
    defaults.update(kwargs)
    return ExperimentSettings(**defaults)


def assert_valid_digest(host):
    assert host is not None
    assert host["wall_s"] > 0
    assert host["job_wall_s"] >= host["wall_s"]
    assert host["instructions"] > 0
    assert host["instructions_per_s"] > 0
    assert host["accesses_per_s"] > 0


class TestDigestThroughWorkerPipe:
    def test_parallel_summaries_carry_host_digests(self, tmp_path):
        runner = Runner(settings(tmp_path, "pool"))
        results = runner.run_many(requests(), jobs=2)
        assert len(results) == 4
        for summary in results:
            assert_valid_digest(summary.host)

    def test_serial_summaries_carry_host_digests(self, tmp_path):
        runner = Runner(settings(tmp_path, "serial"))
        for summary in runner.run_many(requests(), jobs=1):
            assert_valid_digest(summary.host)

    def test_phase_report_crosses_the_pipe(self, tmp_path):
        runner = Runner(settings(tmp_path, "phases", host_phases=True))
        results = runner.run_many(requests(), jobs=2)
        for summary in results:
            phases = summary.host["phases"]
            assert phases["sim_loop"]["count"] >= 1
            assert phases["execute_job"]["count"] == 1
            assert phases["trace_gen"]["s"] >= 0

    def test_runner_collects_digests_for_aggregation(self, tmp_path):
        runner = Runner(settings(tmp_path, "collect"))
        runner.run_many(requests(), jobs=2)
        assert len(runner.host_digests) == 4


class TestDigestStaysOutOfTheCache:
    def test_cache_files_contain_no_host_key(self, tmp_path):
        runner = Runner(settings(tmp_path, "strip", host_phases=True))
        runner.run_many(requests(), jobs=2)
        files = list(Path(runner.cache.directory).glob("*.json"))
        assert len(files) == 4
        for path in files:
            assert "host" not in json.loads(path.read_text())

    def test_cached_replay_reports_no_host_digest(self, tmp_path):
        runner = Runner(settings(tmp_path, "replay"))
        first = runner.run_many(requests(), jobs=1)
        again = Runner(settings(tmp_path, "replay"))
        second = again.run_many(requests(), jobs=1)
        # Same simulated results, but a replay did no simulation work.
        assert [s.ipcs for s in second] == [s.ipcs for s in first]
        assert all(s.host is None for s in second)


class TestJobKeyStability:
    def test_host_phases_flag_does_not_change_the_key(self, tmp_path):
        from repro.experiments.runner import build_job

        request = requests()[0]
        plain = build_job(settings(tmp_path, "keys"), **request)
        phased = build_job(
            settings(tmp_path, "keys", host_phases=True), **request
        )
        assert plain.host_phases is False
        assert phased.host_phases is True
        assert job_module.job_key(plain) == job_module.job_key(phased)
