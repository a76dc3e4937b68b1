"""Orchestrator correctness: parity with serial runs, dedup, fallback.

The headline guarantee: a grid executed with ``jobs=N`` produces
byte-identical cache entries to the serial path, because workers only
compute summaries and the parent performs every cache write through
the same code path.
"""

from pathlib import Path

from repro.errors import OrchestrationError
from repro.experiments import ExperimentSettings, Runner
from repro.orchestrate import Orchestrator, ResultCache, RunSummary
from repro.workloads import mix_by_name

#: a figure-sized grid: 4 mixes x 3 variants = 12 jobs.
GRID_MIXES = ("MIX_00", "MIX_01", "MIX_05", "MIX_09")
GRID_VARIANTS = (
    ("inclusive", "none"),
    ("inclusive", "qbs"),
    ("non_inclusive", "none"),
)


def grid_requests():
    return [
        dict(mix=mix_by_name(name), mode=mode, tla=tla)
        for name in GRID_MIXES
        for mode, tla in GRID_VARIANTS
    ]


def tiny_settings(tmp_path, subdir, **kwargs):
    defaults = dict(
        scale=0.0625,
        quota=8_000,
        warmup=2_000,
        sample=4,
        cache_dir=str(tmp_path / subdir),
    )
    defaults.update(kwargs)
    return ExperimentSettings(**defaults)


def fake_summary(name: str) -> RunSummary:
    return RunSummary(
        mix=name,
        apps=["dea"],
        mode="inclusive",
        tla="none",
        ipcs=[1.0],
        llc_misses=0,
        llc_accesses=1,
        inclusion_victims=0,
        traffic={},
        max_cycles=1.0,
        instructions=[1],
        mpki=[{}],
    )


def echo_execute(job):
    return fake_summary(str(job))


class _BrokenContext:
    """A multiprocessing context whose processes never start."""

    def Pipe(self):
        import multiprocessing

        return multiprocessing.Pipe()

    def Process(self, *args, **kwargs):
        raise OSError("no processes on this box")


class TestParallelParity:
    def test_parallel_grid_matches_serial_byte_for_byte(self, tmp_path):
        requests = grid_requests()
        serial = Runner(tiny_settings(tmp_path, "serial"))
        serial_results = serial.run_many(requests, jobs=1)
        parallel = Runner(tiny_settings(tmp_path, "parallel"))
        parallel_results = parallel.run_many(requests, jobs=4)

        assert [r.ipcs for r in serial_results] == [
            r.ipcs for r in parallel_results
        ]
        serial_files = {
            p.name: p.read_bytes()
            for p in Path(serial.cache.directory).glob("*.json")
        }
        parallel_files = {
            p.name: p.read_bytes()
            for p in Path(parallel.cache.directory).glob("*.json")
        }
        assert len(serial_files) == len(requests)
        assert serial_files == parallel_files  # same keys, same bytes

    def test_parallel_results_align_with_request_order(self, tmp_path):
        runner = Runner(tiny_settings(tmp_path, "align"))
        requests = grid_requests()
        results = runner.run_many(requests, jobs=2)
        assert len(results) == len(requests)
        for request, summary in zip(requests, results):
            assert summary.mode == request["mode"]
            assert summary.apps == list(request["mix"].apps)


class TestDedupAndCache:
    def test_duplicate_jobs_execute_once(self):
        calls = []

        def counting(job):
            calls.append(job)
            return fake_summary(job)

        orchestrator = Orchestrator(jobs=1, execute=counting, key_fn=str)
        results = orchestrator.run(["a", "b", "a", "a", "b"])
        assert sorted(calls) == ["a", "b"]
        assert set(results) == {"a", "b"}

    def test_cached_jobs_are_not_reexecuted(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.store("a", fake_summary("a"))
        calls = []

        def counting(job):
            calls.append(job)
            return fake_summary(job)

        orchestrator = Orchestrator(
            jobs=1, execute=counting, key_fn=str, cache=cache
        )
        results = orchestrator.run(["a", "b"])
        assert calls == ["b"]
        assert results["a"].mix == "a"

    def test_run_many_shares_cache_with_run(self, tmp_path):
        runner = Runner(tiny_settings(tmp_path, "shared"))
        mix = mix_by_name("MIX_01")
        batched = runner.run_many([dict(mix=mix)], jobs=1)[0]
        # run() must hit the same memo — identical object from memory.
        assert runner.run(mix) is batched


class TestSerialFallback:
    def test_broken_pool_degrades_to_serial(self):
        orchestrator = Orchestrator(
            jobs=4, execute=echo_execute, key_fn=str, context=_BrokenContext()
        )
        results = orchestrator.run(["a", "b", "c"])
        assert set(results) == {"a", "b", "c"}
        assert not orchestrator.failures

    def test_backend_losing_workers_degrades_mid_sweep(self, tmp_path, capsys):
        """A backend past MAX_RESPAWNS is swapped for serial execution
        mid-sweep; the jobs stranded on it are requeued without
        charging the attempt, and the cache matches a serial run."""
        import json
        import threading

        from repro.orchestrate import SweepManifest
        from repro.orchestrate.executor import Executor
        from repro.orchestrate.scheduler import MAX_RESPAWNS

        class DyingExecutor(Executor):
            """Accepts jobs, never reports them, always looks doomed."""

            name = "dying"

            def __init__(self):
                self.submitted = []

            def submit(self, key, job):
                self.submitted.append(key)

            def poll(self, wait=0.05):
                return []

            @property
            def size(self):
                return 2

            @property
            def busy_count(self):
                return len(self.submitted)

            @property
            def respawns(self):
                return MAX_RESPAWNS + 1

        executed = []

        def inline(job):  # records that the job ran on this thread
            executed.append((job, threading.get_ident()))
            return echo_execute(job)

        jobs = ["a", "b", "c", "d"]
        dying = DyingExecutor()
        manifest = SweepManifest(tmp_path / "degraded" / "manifest.jsonl")
        degraded = Orchestrator(
            execute=inline,
            key_fn=str,
            executor=dying,
            cache=ResultCache(str(tmp_path / "degraded")),
            manifest=manifest,
        )
        results = degraded.run(jobs)
        assert dying.submitted == ["a", "b"]  # stranded on the dead backend
        assert set(results) == set(jobs)
        assert not degraded.failures
        assert sorted(executed) == [(job, threading.get_ident()) for job in jobs]
        serial = Orchestrator(
            execute=echo_execute,
            key_fn=str,
            cache=ResultCache(str(tmp_path / "serial")),
        )
        serial.run(jobs)
        for key in jobs:
            name = f"{key}.json"
            assert (tmp_path / "degraded" / name).read_bytes() == (
                tmp_path / "serial" / name
            ).read_bytes()
        assert {
            key: record.attempts for key, record in manifest.statuses().items()
        } == {key: 1 for key in jobs}
        events = [
            json.loads(line)
            for line in capsys.readouterr().err.splitlines()
            if '"executor_degraded"' in line
        ]
        assert [event["requeued"] for event in events] == [2]

    def test_jobs_one_never_spawns(self, monkeypatch):
        import repro.orchestrate.pool as pool_module

        def forbid(*args, **kwargs):
            raise AssertionError("WorkerPool must not be built for jobs=1")

        monkeypatch.setattr(pool_module, "WorkerPool", forbid)
        orchestrator = Orchestrator(jobs=1, execute=echo_execute, key_fn=str)
        assert set(orchestrator.run(["x"])) == {"x"}

    def test_invalid_knobs_rejected(self):
        import pytest

        with pytest.raises(OrchestrationError):
            Orchestrator(retries=-1)
        with pytest.raises(OrchestrationError):
            Orchestrator(backoff=-0.1)
