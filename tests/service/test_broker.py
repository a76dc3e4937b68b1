"""JobBroker semantics: dedup tiers, admission control, cancellation.

These tests run the broker in inline mode (``workers=0``) with an
instrumented execute function, so every scheduling decision is
observable without subprocess latency.
"""

import json
import sys
import threading
import time

import pytest

from repro.errors import QueueFullError, QuotaExceededError, SweepSpecError
from repro.metrics.throughput import aggregate_host
from repro.orchestrate import ResultCache, RunSummary, SimJob
from repro.service import JobBroker, ServiceConfig
from repro.telemetry.schema import SERVICE_METRICS_SCHEMA, check


def make_job(mix="MIX_00", tla="none", quota=1_000) -> SimJob:
    return SimJob(
        mix_name=mix,
        apps=("bzi", "wrf"),
        tla=tla,
        scale=0.0625,
        quota=quota,
    )


def fake_summary(job: SimJob) -> RunSummary:
    return RunSummary(
        mix=job.mix_name,
        apps=list(job.apps),
        mode=job.mode,
        tla=job.tla,
        ipcs=[1.0] * len(job.apps),
        llc_misses=0,
        llc_accesses=1,
        inclusion_victims=0,
        traffic={},
        max_cycles=1.0,
        instructions=[1] * len(job.apps),
        mpki=[{} for _ in job.apps],
    )


def make_broker(tmp_path, execute=fake_summary, start=True, **overrides):
    defaults = dict(workers=0, cache_dir=str(tmp_path / "cache"))
    defaults.update(overrides)
    broker = JobBroker(ServiceConfig(**defaults), execute=execute)
    if start:
        broker.start()
    return broker


def wait_terminal(broker, sweep, timeout=10.0):
    deadline = time.perf_counter() + timeout
    while sweep.state == "running":
        if time.perf_counter() > deadline:
            raise AssertionError(f"sweep stuck: {sweep.snapshot()}")
        time.sleep(0.01)
    return sweep


class TestExecutionAndDedup:
    def test_sweep_runs_to_done(self, tmp_path):
        broker = make_broker(tmp_path)
        try:
            sweep = broker.submit([make_job(), make_job(tla="qbs")])
            wait_terminal(broker, sweep)
            assert sweep.state == "done"
            assert sweep.counts() == {"done": 2}
            assert broker.counters["jobs_executed"] == 2
            events = [e["event"] for e in sweep.events]
            assert events[0] == "sweep_submitted"
            assert events.count("job_done") == 2
        finally:
            broker.stop()

    def test_in_sweep_duplicates_collapse(self, tmp_path):
        broker = make_broker(tmp_path)
        try:
            sweep = broker.submit([make_job(), make_job(), make_job()])
            wait_terminal(broker, sweep)
            assert len(sweep.keys) == 1
            assert sweep.snapshot()["total"] == 1
            assert broker.counters["jobs_deduped"] == 2
            assert broker.counters["jobs_executed"] == 1
        finally:
            broker.stop()

    def test_cache_hits_cost_nothing(self, tmp_path):
        broker = make_broker(tmp_path)
        try:
            first = broker.submit([make_job()])
            wait_terminal(broker, first)
            second = broker.submit([make_job()])
            assert second.state == "done"  # terminal at submission
            assert second.counts() == {"cached": 1}
            assert broker.counters["jobs_executed"] == 1
            assert broker.counters["jobs_cached"] == 1
        finally:
            broker.stop()

    def test_concurrent_identical_sweeps_execute_once(self, tmp_path):
        """The headline coalescing guarantee, driven by two threads."""
        release = threading.Event()
        started = threading.Event()

        def gated(job):
            started.set()
            assert release.wait(10)
            return fake_summary(job)

        broker = make_broker(tmp_path, execute=gated)
        try:
            jobs = [make_job(), make_job(tla="qbs")]
            sweeps = []

            def submit():
                sweeps.append(broker.submit(list(jobs)))

            threads = [threading.Thread(target=submit) for _ in range(2)]
            threads[0].start()
            assert started.wait(10)  # first job is mid-execution
            threads[1].start()
            for thread in threads:
                thread.join(10)
            release.set()
            for sweep in sweeps:
                wait_terminal(broker, sweep)
                assert sweep.state == "done"
            assert broker.counters["jobs_executed"] == len(jobs)
            assert broker.counters["jobs_coalesced"] == len(jobs)
        finally:
            release.set()
            broker.stop()

    def test_shared_cache_dir_serves_cli_entries(self, tmp_path):
        from repro.orchestrate import job_key

        job = make_job()
        cache = ResultCache(str(tmp_path / "cache"))
        cache.store(job_key(job), fake_summary(job))

        def explode(job):
            raise AssertionError("cached job must not execute")

        broker = make_broker(tmp_path, execute=explode)
        try:
            sweep = broker.submit([job])
            assert sweep.counts() == {"cached": 1}
        finally:
            broker.stop()


class TestAdmissionControl:
    def test_empty_and_oversized_sweeps_rejected(self, tmp_path):
        broker = make_broker(tmp_path, start=False, max_sweep_jobs=1)
        with pytest.raises(SweepSpecError):
            broker.submit([])
        with pytest.raises(SweepSpecError):
            broker.submit([make_job(), make_job(tla="qbs")])

    def test_queue_full_rejects_whole_sweep(self, tmp_path):
        broker = make_broker(tmp_path, start=False, queue_limit=1)
        broker.submit([make_job()])
        with pytest.raises(QueueFullError) as excinfo:
            broker.submit([make_job(tla="qbs")])
        assert excinfo.value.retry_after > 0
        assert broker.counters["rejected_queue_full"] == 1
        # the refused sweep admitted nothing (counters track admissions)
        assert broker.counters["jobs_submitted"] == 1
        assert len(broker._inflight) == 1

    def test_tenant_job_quota(self, tmp_path):
        broker = make_broker(tmp_path, start=False, tenant_jobs=2)
        broker.submit([make_job(), make_job(tla="qbs")], tenant="alice")
        with pytest.raises(QuotaExceededError):
            broker.submit([make_job(tla="eci")], tenant="alice")
        # a different tenant still has budget
        broker.submit([make_job(tla="eci")], tenant="bob")
        assert broker.counters["rejected_quota"] == 1

    def test_tenant_instruction_quota(self, tmp_path):
        broker = make_broker(
            tmp_path, start=False, tenant_instructions=3_000
        )
        broker.submit([make_job(quota=1_000)])  # 2 cores -> 2000 queued
        with pytest.raises(QuotaExceededError):
            broker.submit([make_job(tla="qbs", quota=1_000)])

    def test_quota_released_after_execution(self, tmp_path):
        broker = make_broker(tmp_path, tenant_jobs=1)
        try:
            first = broker.submit([make_job()], tenant="alice")
            wait_terminal(broker, first)
            # the slot came back; an identical-size sweep admits fine
            second = broker.submit([make_job(tla="qbs")], tenant="alice")
            wait_terminal(broker, second)
            assert second.state == "done"
        finally:
            broker.stop()


class TestCancellation:
    def test_cancel_drains_queued_jobs(self, tmp_path):
        broker = make_broker(tmp_path, start=False)
        sweep = broker.submit([make_job(), make_job(tla="qbs")], tenant="t")
        assert broker.cancel(sweep.id) == 2
        assert sweep.state == "cancelled"
        assert set(sweep.counts()) == {"cancelled"}
        assert broker.counters["jobs_cancelled"] == 2
        # quota refunded
        assert broker._tenant_jobs["t"] == 0
        assert broker._tenant_instr["t"] == 0
        assert not broker._inflight

    def test_cancel_while_queued_is_journalled(self, tmp_path):
        """The journal records a drained job as the CLI's does."""
        broker = make_broker(tmp_path, start=False)
        job = make_job()
        sweep = broker.submit([job], trace_id="c" * 32)
        broker.cancel(sweep.id)
        record = broker.manifest.statuses()[sweep.keys[0]]
        assert record.status == "cancelled"
        assert record.attempts == 0
        assert (record.label, record.category) == (job.label(), job.category)
        assert record.trace_id == "c" * 32

    def test_cancel_unknown_sweep(self, tmp_path):
        broker = make_broker(tmp_path, start=False)
        assert broker.cancel("swp-nope") is None

    def test_cancel_spares_jobs_shared_with_live_sweeps(self, tmp_path):
        broker = make_broker(tmp_path, start=False)
        shared = make_job()
        mine = broker.submit([shared, make_job(tla="qbs")])
        theirs = broker.submit([shared])
        assert broker.cancel(mine.id) == 1  # only the unshared job drains
        assert mine.statuses[mine.keys[1]] == "cancelled"
        assert theirs.state == "running"  # shared job still queued

    def test_draining_a_shared_job_exports_every_sweep_it_finishes(
        self, tmp_path
    ):
        broker = make_broker(tmp_path, start=False)
        first = broker.submit([make_job()])
        second = broker.submit([make_job()])  # coalesces onto first's job
        assert broker.cancel(first.id) == 0  # second still waits on it
        assert broker.cancel(second.id) == 1
        assert first.state == second.state == "cancelled"
        obs = tmp_path / "cache" / "obs"
        for sweep in (first, second):
            assert (obs / f"spans-{sweep.id}.jsonl").exists()
        assert len(broker.spans) == 0

    def test_drained_job_is_charged_to_the_tenant_that_queued_it(
        self, tmp_path
    ):
        broker = make_broker(tmp_path, start=False)
        alice = broker.submit([make_job()], tenant="alice")
        bob = broker.submit([make_job()], tenant="bob")  # coalesces
        assert broker.cancel(alice.id) == 0  # bob still waits on it
        assert broker.cancel(bob.id) == 1
        assert broker._tenant_jobs["alice"] == 0  # alice's slot came back
        completed = broker.m_completed
        assert completed.value(tenant="alice", status="cancelled") == 1
        assert completed.value(tenant="bob", status="cancelled") == 0

    def test_cancelled_jobs_never_execute(self, tmp_path):
        executed = []

        def recording(job):
            executed.append(job.tla)
            return fake_summary(job)

        broker = make_broker(tmp_path, execute=recording, start=False)
        sweep = broker.submit([make_job(), make_job(tla="qbs")])
        broker.cancel(sweep.id)
        broker.start()
        try:
            follow_up = broker.submit([make_job(tla="eci")])
            wait_terminal(broker, follow_up)
            assert executed == ["eci"]
        finally:
            broker.stop()


class TestObservability:
    def test_metrics_snapshot_validates_against_schema(self, tmp_path):
        broker = make_broker(tmp_path)
        try:
            sweep = broker.submit([make_job()])
            wait_terminal(broker, sweep)
            snapshot = broker.metrics_snapshot()
            assert check(snapshot, SERVICE_METRICS_SCHEMA) == []
            assert snapshot["jobs"]["jobs_executed"] == 1
            assert snapshot["sweeps"] == {"total": 1, "active": 0}
        finally:
            broker.stop()

    def test_host_section_equals_aggregate_over_executed_digests(
        self, tmp_path
    ):
        executed = []

        def with_host(job):
            summary = fake_summary(job)
            summary.host = {
                "instructions": 3 * job.quota,
                "accesses": job.quota + 7,
                "job_wall_s": job.quota / 30_011.0,
            }
            executed.append(summary.host)
            return summary

        broker = make_broker(tmp_path, execute=with_host)
        try:
            sweep = broker.submit([make_job(quota=1_000 + n) for n in range(6)])
            wait_terminal(broker, sweep)
            host = broker.metrics_snapshot()["host"]
        finally:
            broker.stop()
        assert host["jobs"] == 6
        assert host == aggregate_host(executed, wall_s=host["wall_s"])

    def test_wait_events_streams_progress(self, tmp_path):
        broker = make_broker(tmp_path)
        try:
            sweep = broker.submit([make_job()])
            seen = []
            cursor = 0
            deadline = time.perf_counter() + 10
            while time.perf_counter() < deadline:
                batch = broker.wait_events(sweep.id, cursor, timeout=0.2)
                seen.extend(batch)
                cursor += len(batch)
                if sweep.state != "running" and len(sweep.events) <= cursor:
                    break
            names = [event["event"] for event in seen]
            assert names[0] == "sweep_submitted"
            assert "job_started" in names
            assert names[-1] == "job_done"
            assert [event["seq"] for event in seen] == list(range(len(seen)))
        finally:
            broker.stop()

    def test_wait_events_unknown_sweep(self, tmp_path):
        broker = make_broker(tmp_path, start=False)
        assert broker.wait_events("swp-nope", 0, timeout=0.0) is None

    def test_failed_job_reported_with_error(self, tmp_path):
        def failing(job):
            raise ValueError("synthetic failure")

        broker = make_broker(tmp_path, execute=failing, retries=0)
        try:
            sweep = broker.submit([make_job()])
            wait_terminal(broker, sweep)
            assert sweep.state == "failed"
            key = sweep.keys[0]
            assert "synthetic failure" in sweep.errors[key]
            assert broker.counters["jobs_failed"] == 1
        finally:
            broker.stop()

    def test_outcomes_are_journalled_with_category(self, tmp_path):
        """Failed and done jobs reach ``sweep-manifest.jsonl`` with the
        label, category and trace id the CLI orchestrator journals."""

        def failing_qbs(job):
            if job.tla == "qbs":
                raise ValueError("synthetic failure")
            return fake_summary(job)

        broker = make_broker(tmp_path, execute=failing_qbs, retries=0)
        try:
            good, bad = make_job(), make_job(tla="qbs")
            sweep = broker.submit([good, bad], trace_id="d" * 32)
            wait_terminal(broker, sweep)
        finally:
            broker.stop()
        good_key, bad_key = sweep.keys
        [failed] = broker.manifest.failed().values()
        assert failed.key == bad_key
        assert failed.attempts == 1
        assert "synthetic failure" in failed.error
        assert (failed.label, failed.category) == (bad.label(), bad.category)
        assert failed.trace_id == "d" * 32
        done = broker.manifest.statuses()[good_key]
        assert (done.status, done.category) == ("done", good.category)


class TestSpanExport:
    def test_export_races_request_return_without_loss(self, tmp_path):
        """A sweep exports exactly once, with its ingress span, whether
        its last job or its request's return comes second; all 120
        share one client trace id."""
        broker = make_broker(tmp_path)
        sweeps = []
        lock = threading.Lock()

        def client(offset):
            for index in range(offset, 120, 4):
                ingress = broker.spans.begin("ingress", "e" * 32)
                sweep = broker.submit(
                    [make_job(quota=1_000 + index)],
                    trace_id="e" * 32,
                    parent_span=ingress.span_id,
                )
                if index % 2:  # the job finishes before the request
                    wait_terminal(broker, sweep)
                broker.spans.end(ingress)
                broker.request_returned(sweep)
                with lock:
                    sweeps.append(sweep)

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(n,)) for n in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert not any(thread.is_alive() for thread in threads)
            for sweep in sweeps:
                wait_terminal(broker, sweep)
            deadline = time.perf_counter() + 10
            while len(broker.spans) and time.perf_counter() < deadline:
                time.sleep(0.01)
        finally:
            sys.setswitchinterval(saved)
            broker.stop()
        assert len(sweeps) == 120
        assert len(broker.spans) == 0 and broker.spans.dropped == 0
        obs = tmp_path / "cache" / "obs"
        for sweep in sweeps:
            path = obs / f"spans-{sweep.id}.jsonl"
            names = [json.loads(l)["name"] for l in path.read_text().splitlines()]
            assert sorted(names) == ["admission", "execute", "ingress", "queue"]


class TestDegradeRequeue:
    def test_inflight_jobs_requeued_when_backend_degrades(self, tmp_path):
        """When respawns exceed the budget the broker swaps to serial;
        entries already dispatched to the dead backend must be drained
        back onto the queue — not left in JOB_RUNNING forever with
        their sweeps stuck and the running count leaked."""
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
                time.sleep(0.01)
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

        dying = DyingExecutor()
        broker = make_broker(tmp_path, start=False)
        broker._make_executor = lambda: dying
        broker.start()
        try:
            sweep = broker.submit([make_job(), make_job(tla="qbs")])
            wait_terminal(broker, sweep, timeout=30.0)
            assert sweep.state == "done"
            assert dying.submitted  # the doomed backend really held them
            metrics = broker.metrics_snapshot()
            assert metrics["executor"]["backend"] == "serial"
            assert metrics["queue"]["running"] == 0
            assert metrics["queue"]["depth"] == 0
            # requeue re-charged quota, execution released it again.
            for counts in metrics["tenants"].values():
                assert counts["queued_jobs"] == 0
                assert counts["queued_instructions"] == 0
            # a later submission of the same key is served, not
            # coalesced onto a dead entry.
            again = broker.submit([make_job()])
            wait_terminal(broker, again, timeout=10.0)
            assert again.state == "done"
        finally:
            broker.stop()

