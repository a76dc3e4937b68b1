"""Executor conformance: one scheduler contract, two backends.

Both backends — ``serial`` (in-process) and ``pool`` (local worker
processes) — must give the scheduler identical semantics: each
submitted job reported exactly once, retry decided by the scheduler,
resume served from the cache, cache entries byte-identical across
backends.

The scripted job strings (``ok:``/``flaky:``/``fail:``/``hang:``)
come from :mod:`tests.orchestrate.test_failures`.
"""

import os
import time

import pytest

from repro.errors import ExecutorConfigError, OrchestrationError
from repro.orchestrate import (
    Orchestrator,
    ResultCache,
    SimJob,
    SweepManifest,
    WorkerPool,
)
from repro.orchestrate.executor import (
    Executor,
    SerialExecutor,
    resolve_executor,
)
from repro.orchestrate.manifest import MANIFEST_FSYNC_ENV
from repro.orchestrate.pool import EVENT_OK

from .test_failures import _slug, attempt_count, scripted_execute

BACKENDS = ("serial", "pool")


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def orchestrator_for(backend, tmp_path, **kwargs):
    """An orchestrator wired to one named backend (scripted jobs)."""
    kwargs.setdefault("execute", scripted_execute)
    kwargs.setdefault("key_fn", _slug)
    kwargs.setdefault("backoff", 0.0)
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("executor", backend)
    return Orchestrator(**kwargs)


def build_executor(backend):
    """A bare executor instance for protocol-level tests."""
    if backend == "serial":
        return SerialExecutor(scripted_execute)
    return WorkerPool(2, scripted_execute)


class TestConformance:
    """The shared contract, asserted per backend."""

    def test_success_exactly_once(self, backend, tmp_path):
        jobs = [f"ok:{tmp_path}:{i}" for i in range(4)]
        orchestrator = orchestrator_for(backend, tmp_path)
        results = orchestrator.run(jobs)
        assert set(results) == {_slug(job) for job in jobs}
        for job in jobs:
            assert attempt_count(tmp_path, job) == 1

    def test_transient_failure_retried_to_success(self, backend, tmp_path):
        flaky = f"flaky:{tmp_path}:1"
        orchestrator = orchestrator_for(backend, tmp_path, retries=2)
        results = orchestrator.run([flaky, f"ok:{tmp_path}"])
        assert results[_slug(flaky)].mix == flaky
        assert attempt_count(tmp_path, flaky) == 2
        assert not orchestrator.failures

    def test_permanent_failure_reported_after_budget(self, backend, tmp_path):
        bad = f"fail:{tmp_path}"
        ok = f"ok:{tmp_path}"
        orchestrator = orchestrator_for(backend, tmp_path, retries=1)
        with pytest.raises(OrchestrationError, match="permanent failure"):
            orchestrator.run([bad, ok])
        assert attempt_count(tmp_path, bad) == 2  # 1 try + 1 retry
        assert _slug(bad) in orchestrator.failures
        assert attempt_count(tmp_path, ok) == 1

    def test_resume_reexecutes_only_unfinished(self, backend, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        done = [f"ok:{tmp_path}:{i}" for i in range(3)]
        flaky = f"flaky:{tmp_path}:1"  # fails once; retries=0 => permanent
        sweep = done + [flaky]
        first = orchestrator_for(
            backend, tmp_path, cache=cache, retries=0
        )
        first.run(sweep, raise_on_failure=False)
        assert _slug(flaky) in first.failures
        second = orchestrator_for(
            backend, tmp_path, cache=cache, retries=0
        )
        results = second.run(sweep)
        assert set(results) == {_slug(job) for job in sweep}
        # finished jobs came from the cache: still exactly one attempt.
        for job in done:
            assert attempt_count(tmp_path, job) == 1
        assert attempt_count(tmp_path, flaky) == 2
        assert second.executed_count == 1

    def test_timeout_kills_and_retries(self, backend, tmp_path):
        if backend == "serial":
            pytest.skip("serial mode (documented) cannot enforce timeouts")
        hang = f"hang:{tmp_path}:60"
        orchestrator = orchestrator_for(
            backend, tmp_path, timeout=1.0, retries=1
        )
        start = time.perf_counter()
        results = orchestrator.run([hang, f"ok:{tmp_path}"])
        assert time.perf_counter() - start < 45.0  # killed, not slept out
        assert results[_slug(hang)].mix == hang
        assert attempt_count(tmp_path, hang) == 2

    def test_each_submission_reported_exactly_once(self, backend, tmp_path):
        executor = build_executor(backend)
        try:
            jobs = {
                _slug(job): job
                for job in (f"ok:{tmp_path}:e{i}" for i in range(4))
            }
            pending = sorted(jobs)
            events = []
            deadline = time.monotonic() + 90.0
            while len(events) < len(jobs) and time.monotonic() < deadline:
                while pending and executor.has_idle:
                    key = pending.pop()
                    executor.submit(key, jobs[key])
                events.extend(executor.poll(0.05))
            assert sorted(key for _, key, _ in events) == sorted(jobs)
            assert {kind for kind, _, _ in events} == {EVENT_OK}
        finally:
            executor.close()


class TestByteIdenticalCache:
    def test_all_backends_produce_identical_cache_entries(self, tmp_path):
        jobs = [
            SimJob(
                mix_name=f"MIX_EXEC_{index}",
                apps=apps,  # job keys hash the app composition
                scale=0.0625,
                quota=2_000,
                warmup=500,
            )
            for index, apps in enumerate([("dea", "pov"), ("bzi", "wrf")])
        ]
        entries = {}
        for backend in BACKENDS:
            cache_dir = tmp_path / f"cache-{backend}"
            orchestrator = Orchestrator(
                jobs=2,
                cache=ResultCache(str(cache_dir)),
                backoff=0.0,
                executor=backend,
            )
            results = orchestrator.run(list(jobs))
            assert len(results) == len(jobs)
            entries[backend] = {
                path.name: path.read_bytes()
                for path in cache_dir.glob("*.json")
            }
        assert len(entries["serial"]) == len(jobs)
        assert entries["serial"] == entries["pool"]


class TestResolveExecutor:
    def test_default_heuristic(self):
        serial = resolve_executor(None, 1, scripted_execute)
        assert isinstance(serial, SerialExecutor)
        pool = resolve_executor(None, 2, scripted_execute)
        try:
            assert isinstance(pool, WorkerPool)
            assert isinstance(pool, Executor) and pool.name == "pool"
        finally:
            pool.close()

    def test_instance_passthrough(self):
        prebuilt = SerialExecutor(scripted_execute)
        assert resolve_executor(prebuilt, 8, scripted_execute) is prebuilt

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExecutorConfigError, match="unknown executor"):
            resolve_executor("quantum", 2, scripted_execute)

    def test_misconfiguration_fails_sweep_loudly(self, tmp_path):
        """An orchestrator built on a misconfigured backend raises at
        run() instead of silently executing the sweep serially."""
        orchestrator = Orchestrator(
            jobs=2, execute=scripted_execute, key_fn=_slug, executor="quantum"
        )
        with pytest.raises(ExecutorConfigError):
            orchestrator.run([f"ok:{tmp_path}:cfg"])


class TestManifestFsync:
    def test_fsync_opt_in_knobs(self, tmp_path, monkeypatch):
        real_fsync = os.fsync
        calls = []

        def counting_fsync(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        monkeypatch.delenv(MANIFEST_FSYNC_ENV, raising=False)
        manifest = SweepManifest(tmp_path / "m.jsonl")
        manifest.record("k1", "done")
        assert calls == []  # default: throughput over power-cut safety
        monkeypatch.setenv(MANIFEST_FSYNC_ENV, "1")
        manifest.record("k2", "done")
        assert len(calls) == 1  # environment opt-in, read at each append
        monkeypatch.delenv(MANIFEST_FSYNC_ENV)
        manifest.record("k3", "done")
        assert len(calls) == 1
        assert set(SweepManifest(tmp_path / "m.jsonl").done_keys()) == {
            "k1", "k2", "k3",
        }
