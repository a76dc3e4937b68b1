"""Executor conformance: one scheduler contract, three backends.

Every backend — ``serial`` (in-process), ``pool`` (local worker
processes), ``bus`` (filesystem spool claimed by independent worker
processes) — must give the scheduler identical semantics: each
submitted job reported exactly once, retry decided by the scheduler,
resume served from the cache, cache entries byte-identical across
backends.  On top of the shared contract, the process backends
support ``max_jobs_per_worker`` recycling, and the bus survives a
SIGKILLed worker mid-sweep via lease reclaim with no job lost or
duplicated.

The scripted job strings (``ok:``/``flaky:``/``fail:``/``hang:``)
come from :mod:`tests.orchestrate.test_failures`; their executor is a
module-level function, so bus workers can import it by reference.
"""

import base64
import json
import os
import pickle
import signal
import threading
import time

import pytest

from repro.errors import ExecutorConfigError, OrchestrationError
from repro.orchestrate import (
    BusExecutor,
    Orchestrator,
    ResultCache,
    SimJob,
    SweepManifest,
    WorkerPool,
)
from repro.orchestrate.bus import (
    BusWorker,
    FileBus,
    execute_ref_of,
    resolve_execute_ref,
)
from repro.orchestrate.executor import (
    Executor,
    SerialExecutor,
    resolve_executor,
)
from repro.orchestrate.manifest import MANIFEST_FSYNC_ENV, STATUS_RECLAIMED
from repro.orchestrate.pool import EVENT_CRASH, EVENT_OK

from .test_failures import _slug, attempt_count, scripted_execute

BACKENDS = ("serial", "pool", "bus")


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
    if backend == "bus":
        kwargs.setdefault("bus_dir", str(tmp_path / "bus"))
        kwargs.setdefault("lease_timeout", 60.0)
    return Orchestrator(**kwargs)


def build_executor(backend, tmp_path, workers=2, spawn_workers=None, **kwargs):
    """A bare executor instance for protocol-level tests."""
    if backend == "serial":
        return SerialExecutor(scripted_execute)
    if backend == "pool":
        return WorkerPool(workers, scripted_execute, **kwargs)
    return BusExecutor(
        tmp_path / "bus",
        execute=scripted_execute,
        spawn_workers=workers if spawn_workers is None else spawn_workers,
        lease_timeout=kwargs.pop("lease_timeout", 60.0),
        **kwargs,
    )


def drain(executor, count, deadline=90.0):
    """Poll until ``count`` terminal events arrived (or the deadline)."""
    events = []
    end = time.monotonic() + deadline
    while len(events) < count and time.monotonic() < end:
        events.extend(executor.poll(0.05))
    return events


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
        executor = build_executor(backend, tmp_path)
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
            kwargs = dict(
                jobs=2,
                cache=ResultCache(str(cache_dir)),
                backoff=0.0,
                executor=backend,
            )
            if backend == "bus":
                kwargs["bus_dir"] = str(tmp_path / "bus")
                kwargs["lease_timeout"] = 60.0
            orchestrator = Orchestrator(**kwargs)
            results = orchestrator.run(list(jobs))
            assert len(results) == len(jobs)
            entries[backend] = {
                path.name: path.read_bytes()
                for path in cache_dir.glob("*.json")
            }
        assert len(entries["serial"]) == len(jobs)
        assert entries["serial"] == entries["pool"] == entries["bus"]


class TestRecycling:
    def test_pool_worker_recycled_after_max_jobs(self, tmp_path):
        executor = WorkerPool(1, scripted_execute, max_jobs_per_worker=2)
        try:
            for index in range(5):
                job = f"ok:{tmp_path}:r{index}"
                executor.submit(_slug(job), job)
                [(kind, _, _)] = drain(executor, 1)
                assert kind == EVENT_OK
            # 5 jobs / cap 2: rotations after jobs 2 and 4, none unplanned.
            assert executor.recycles == 2
            assert executor.respawns == 0
        finally:
            executor.close()

    def test_bus_worker_recycled_after_max_jobs(self, tmp_path):
        executor = BusExecutor(
            tmp_path / "bus",
            execute=scripted_execute,
            spawn_workers=1,
            lease_timeout=60.0,
            max_jobs_per_worker=2,
        )
        try:
            for index in range(5):
                job = f"ok:{tmp_path}:b{index}"
                executor.submit(_slug(job), job)
                events = drain(executor, 1)
                assert [kind for kind, _, _ in events] == [EVENT_OK]
            assert executor.recycles == 2
            assert executor.respawns == 0
        finally:
            executor.close()


class TestBusCrashSafety:
    def test_sigkill_worker_mid_sweep_reclaims_lease(self, tmp_path):
        """SIGKILL one bus worker mid-job: the sweep still completes,
        exactly one lease reclaim happens, and no job is lost or run
        twice."""
        bus_dir = tmp_path / "bus"
        hang = f"hang:{tmp_path}:300"  # sleeps only on attempt 1
        okays = [f"ok:{tmp_path}:s{i}" for i in range(3)]
        executor = BusExecutor(
            bus_dir,
            execute=scripted_execute,
            spawn_workers=2,
            lease_timeout=1.0,
        )
        lease = executor.bus.lease_path(_slug(hang))
        killed = {}

        def assassin():
            # Kill the lease holder only once it is inside execute(),
            # i.e. has recorded attempt 1: killed any earlier, its retry
            # would count as attempt 1 and sleep the whole hang.
            end = time.monotonic() + 60.0
            while time.monotonic() < end:
                try:
                    pid = json.loads(lease.read_text("utf-8"))["pid"]
                    started = attempt_count(tmp_path, hang) >= 1
                except (OSError, ValueError, KeyError):
                    started = False  # ValueError: a file mid-rewrite
                if not started:
                    time.sleep(0.05)
                    continue
                os.kill(pid, signal.SIGKILL)
                killed["pid"] = pid
                return

        thread = threading.Thread(target=assassin)
        thread.start()
        orchestrator = Orchestrator(
            jobs=2,
            execute=scripted_execute,
            key_fn=_slug,
            executor=executor,
            retries=2,
            backoff=0.0,
        )
        results = orchestrator.run([hang] + okays)
        thread.join()
        assert killed, "never saw the hang job's lease"
        assert set(results) == {_slug(job) for job in [hang] + okays}
        assert executor.lease_reclaims == 1
        assert executor.respawns >= 1  # the murdered worker was replaced
        # the reclaimed job ran exactly twice (kill + one retry) ...
        assert attempt_count(tmp_path, hang) == 2
        # ... and no other job was duplicated or dropped.
        for job in okays:
            assert attempt_count(tmp_path, job) == 1
        # Journals are single-writer files: the parent's journal.jsonl
        # holds the reclaim, each worker's journal.<id>.jsonl holds its
        # claims; audits merge the family.
        records = [
            json.loads(line)
            for path in executor.bus.journal_paths()
            for line in path.read_text("utf-8").splitlines()
            if line.strip()
        ]
        assert any(
            record["status"] == STATUS_RECLAIMED
            and record["key"] == _slug(hang)
            for record in records
        )
        parent_records = [
            json.loads(line)
            for line in (bus_dir / "journal.jsonl")
            .read_text("utf-8")
            .splitlines()
            if line.strip()
        ]
        assert all(r["status"] == STATUS_RECLAIMED for r in parent_records)
        assert any(record["status"] == "claimed" for record in records)

    def test_vanished_worker_lease_is_reclaimed(self, tmp_path):
        """A lease whose owner never heartbeats goes stale and is
        journalled as reclaimed (fsynced) before the crash event."""
        executor = BusExecutor(
            tmp_path / "bus",
            execute=scripted_execute,
            spawn_workers=0,
            lease_timeout=0.2,
        )
        job = f"ok:{tmp_path}:ghostjob"
        key = _slug(job)
        executor.submit(key, job)
        ghost = {"worker": "ghost", "pid": None}
        executor.bus.lease_path(key).write_text(json.dumps(ghost))
        events = drain(executor, 1, deadline=10.0)
        assert [kind for kind, _, _ in events] == [EVENT_CRASH]
        assert "ghost" in events[0][2]
        assert executor.lease_reclaims == 1
        assert executor.busy_count == 0
        executor.close()

    @staticmethod
    def _envelope(job, attempt):
        return {
            "schema": 1,
            "key": _slug(job),
            "attempt": attempt,
            "execute": execute_ref_of(scripted_execute),
            "cache_dir": None,
            "label": None,
            "trace_id": None,
            "job": base64.b64encode(pickle.dumps(job)).decode("ascii"),
        }

    def test_superseded_attempt_preserves_successor_records(self, tmp_path):
        """A worker whose lease was reclaimed mid-execution (stalled
        heartbeat, mtime lag) must not delete the re-spooled attempt's
        envelope or the successor worker's lease when it finishes —
        otherwise the new attempt is unclaimable and the sweep hangs."""
        bus = FileBus(tmp_path / "bus")
        bus.ensure()
        worker = BusWorker(bus.root, worker_id="zombie")
        job = f"ok:{tmp_path}:laggard"
        key = _slug(job)
        stale = self._envelope(job, attempt=1)
        # Meanwhile the parent reclaimed the lease, re-spooled the job
        # as attempt 2, and a successor worker claimed it:
        bus.job_path(key).write_text(json.dumps(self._envelope(job, 2)))
        lease = bus.lease_path(key)
        lease.write_text(json.dumps({"worker": "successor", "pid": 1}))
        worker._execute_one(key, stale, lease)
        # the stale attempt published its (ignored) result ...
        assert bus.result_path(key, 1).exists()
        # ... but the successor's envelope and lease survived.
        assert json.loads(bus.job_path(key).read_text())["attempt"] == 2
        assert json.loads(lease.read_text())["worker"] == "successor"
        # claims went to the worker's own single-writer journal file.
        assert bus.worker_journal("zombie").exists()

    def test_clean_completion_withdraws_own_records(self, tmp_path):
        """The guard must not stop normal cleanup: a worker that still
        owns its lease and envelope withdraws both."""
        bus = FileBus(tmp_path / "bus")
        bus.ensure()
        worker = BusWorker(bus.root, worker_id="w1")
        job = f"ok:{tmp_path}:clean"
        key = _slug(job)
        envelope = self._envelope(job, attempt=1)
        bus.job_path(key).write_text(json.dumps(envelope))
        lease = bus.lease_path(key)
        lease.write_text(json.dumps({"worker": "w1", "pid": os.getpid()}))
        worker._execute_one(key, envelope, lease)
        assert bus.result_path(key, 1).exists()
        assert not bus.job_path(key).exists()
        assert not lease.exists()


class TestExecuteRef:
    def test_round_trip(self):
        ref = execute_ref_of(scripted_execute)
        assert resolve_execute_ref(ref) is scripted_execute

    def test_rejects_closures(self):
        with pytest.raises(OrchestrationError, match="module-level"):
            execute_ref_of(lambda job: job)

    def test_rejects_methods(self):
        with pytest.raises(OrchestrationError, match="module-level"):
            execute_ref_of(TestExecuteRef.test_round_trip)


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

    def test_bus_requires_directory(self):
        # a *config* error — callers must raise it, never degrade.
        with pytest.raises(ExecutorConfigError, match="bus"):
            resolve_executor("bus", 2, scripted_execute)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExecutorConfigError, match="unknown executor"):
            resolve_executor("quantum", 2, scripted_execute)

    def test_misconfiguration_fails_sweep_loudly(self, tmp_path):
        """An orchestrator built on a misconfigured backend raises at
        run() instead of silently executing the sweep serially."""
        for kwargs in (
            dict(executor="bus"),  # no bus_dir
            dict(executor="quantum"),
        ):
            orchestrator = Orchestrator(
                jobs=2, execute=scripted_execute, key_fn=_slug, **kwargs
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
        manifest.record("k2", "done", fsync=True)
        assert len(calls) == 1  # per-record override
        monkeypatch.setenv(MANIFEST_FSYNC_ENV, "1")
        manifest.record("k3", "done")
        assert len(calls) == 2  # environment opt-in
        monkeypatch.delenv(MANIFEST_FSYNC_ENV)
        always = SweepManifest(tmp_path / "durable.jsonl", fsync=True)
        always.record("k4", "done")
        assert len(calls) == 3  # constructor opt-in
        assert set(SweepManifest(tmp_path / "m.jsonl").done_keys()) == {
            "k1", "k2", "k3",
        }
