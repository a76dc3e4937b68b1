"""``/v1/metrics``: both views render one state, read from the registry.

``TestPinnedScenario`` drives one broker through the HTTP layer along
every way a job or a request can end — a miss, an in-flight coalesce,
an in-sweep dedup, a cache hit, a queue-full and a quota reject, a
cancel, a retry then success, a permanent failure, a 400 and a 404 —
and pins the ``jobs``, ``requests`` and ``host`` sections of the JSON
body plus every counter sample of the Prometheus text.  All requests
share one kept-alive connection, so the server has finished with each
request before it reads the next one.

``TestFreshGauges`` scrapes ``?format=prometheus`` with no JSON call
before it: the point-in-time gauges must still read the live queue.
``TestConcurrentCounting`` has more clients than cores submit and
scrape at once; every count must survive.
"""

import http.client
import json
import sys
import threading
import time

from repro.service import job_to_dict

from .test_broker import fake_summary, make_job
from .test_http import LiveService

#: the host digest every executed job of the scenario reports.
HOST = {"instructions": 2_000, "accesses": 700, "job_wall_s": 0.25}

GATED = make_job()  # held running until the gate opens
SECOND = make_job(tla="qbs")
CANCELLED = make_job(quota=1_003)
REFUSED = make_job(quota=1_004)
FLAKY = make_job(quota=1_001)  # fails its first attempt only
BROKEN = make_job(quota=1_002)  # fails every attempt

#: every counter sample of the scrape that ends the scenario (the
#: executor health counters have no series under the serial backend).
PINNED_COUNTERS = {
    'repro_admission_rejects_total{tenant="alice",reason="queue_full"}': 1,
    'repro_admission_rejects_total{tenant="bob",reason="quota"}': 1,
    'repro_http_requests_total{route="DELETE /v1/sweeps/{id}",'
    'status="200",tenant="alice"}': 1,
    'repro_http_requests_total{route="GET /v1/metrics",'
    'status="200",tenant="public"}': 1,
    'repro_http_requests_total{route="GET /v1/sweeps/{id}",'
    'status="404",tenant="public"}': 1,
    'repro_http_requests_total{route="POST /v1/sweeps",'
    'status="201",tenant="alice"}': 4,
    'repro_http_requests_total{route="POST /v1/sweeps",'
    'status="201",tenant="bob"}': 2,
    'repro_http_requests_total{route="POST /v1/sweeps",'
    'status="400",tenant="public"}': 1,
    'repro_http_requests_total{route="POST /v1/sweeps",'
    'status="429",tenant="alice"}': 1,
    'repro_http_requests_total{route="POST /v1/sweeps",'
    'status="429",tenant="bob"}': 1,
    'repro_job_retries_total{tenant="alice"}': 1,
    'repro_job_retries_total{tenant="bob"}': 1,
    'repro_jobs_admitted_total{tenant="alice",outcome="cached"}': 1,
    'repro_jobs_admitted_total{tenant="alice",outcome="coalesced"}': 0,
    'repro_jobs_admitted_total{tenant="alice",outcome="deduped"}': 0,
    'repro_jobs_admitted_total{tenant="alice",outcome="queued"}': 3,
    'repro_jobs_admitted_total{tenant="bob",outcome="cached"}': 0,
    'repro_jobs_admitted_total{tenant="bob",outcome="coalesced"}': 1,
    'repro_jobs_admitted_total{tenant="bob",outcome="deduped"}': 1,
    'repro_jobs_admitted_total{tenant="bob",outcome="queued"}': 2,
    'repro_jobs_completed_total{tenant="alice",status="cancelled"}': 1,
    'repro_jobs_completed_total{tenant="alice",status="done"}': 2,
    'repro_jobs_completed_total{tenant="bob",status="done"}': 1,
    'repro_jobs_completed_total{tenant="bob",status="failed"}': 1,
}

PINNED_JOBS = {
    "sweeps_submitted": 6,
    "sweeps_cancelled": 1,
    "jobs_submitted": 8,
    "jobs_deduped": 1,
    "jobs_cached": 1,
    "jobs_coalesced": 1,
    "jobs_executed": 3,
    "jobs_failed": 1,
    "jobs_cancelled": 1,
    "jobs_retried": 2,
    "rejected_queue_full": 1,
    "rejected_quota": 1,
}

PINNED_REQUESTS = {
    "DELETE /v1/sweeps/{id} 200": 1,
    "GET /v1/sweeps/{id} 404": 1,
    "POST /v1/sweeps 201": 6,
    "POST /v1/sweeps 400": 1,
    "POST /v1/sweeps 429": 2,
}


class Connection:
    """One kept-alive client connection to a :class:`LiveService`."""

    def __init__(self, live):
        self.http = http.client.HTTPConnection(
            "127.0.0.1", live.port, timeout=10
        )

    def call(self, method, path, body=None, tenant=None):
        headers = {"Content-Type": "application/json"}
        if tenant:
            headers["X-Repro-Tenant"] = tenant
        raw = body if isinstance(body, bytes) else (
            json.dumps(body).encode() if body is not None else None
        )
        self.http.request(method, path, body=raw, headers=headers)
        response = self.http.getresponse()
        payload = response.read()
        if response.getheader("Content-Type", "").startswith("text/plain"):
            return response.status, payload.decode()
        return response.status, json.loads(payload)

    def submit(self, tenant, *jobs):
        return self.call(
            "POST",
            "/v1/sweeps",
            {"jobs": [job_to_dict(job) for job in jobs]},
            tenant=tenant,
        )

    def close(self):
        self.http.close()


def wait_terminal(broker, sweep_id, timeout=10.0):
    """Wait on the broker itself, so waiting sends no request."""
    deadline = time.perf_counter() + timeout
    while broker.sweep(sweep_id).state == "running":
        assert time.perf_counter() < deadline, f"sweep {sweep_id} stuck"
        time.sleep(0.01)


def samples(text, kind):
    """``{'name{labels}': value}`` for every sample of ``kind`` families."""
    families = {
        line.split()[2]
        for line in text.splitlines()
        if line.startswith("# TYPE ") and line.split()[3] == kind
    }
    found = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, value = line.rsplit(" ", 1)
        if series.split("{", 1)[0] in families:
            found[series] = float(value)
    return found


class TestPinnedScenario:
    def test_every_outcome_counts_once_in_both_views(self, tmp_path):
        gate = threading.Event()
        started = threading.Event()
        attempts = {}

        def execute(job):
            if job.quota == GATED.quota and job.tla == GATED.tla:
                started.set()
                assert gate.wait(10)
            attempts[job.quota] = attempts.get(job.quota, 0) + 1
            if job.quota == BROKEN.quota or (
                job.quota == FLAKY.quota and attempts[job.quota] == 1
            ):
                raise RuntimeError("synthetic failure")
            summary = fake_summary(job)
            summary.host = dict(HOST)
            return summary

        live = LiveService(
            tmp_path,
            execute=execute,
            queue_limit=2,
            tenant_jobs=1,
            retries=1,
            backoff=0.0,
        ).start()
        client = Connection(live)
        broker = live.broker
        try:
            status, first = client.submit("alice", GATED)  # a miss
            assert status == 201
            assert started.wait(10)
            # coalesces onto the running job; the duplicate dedups
            status, second = client.submit("bob", GATED, SECOND, SECOND)
            assert status == 201
            status, _ = client.submit("alice", CANCELLED, REFUSED)
            assert status == 429  # 1 queued + 2 > queue_limit
            status, _ = client.submit("bob", CANCELLED)
            assert status == 429  # bob already holds one queued job
            status, doomed = client.submit("alice", CANCELLED)
            assert status == 201
            doomed_id = doomed["sweep"]["id"]
            status, body = client.call(
                "DELETE", f"/v1/sweeps/{doomed_id}", tenant="alice"
            )
            assert (status, body["cancelled"]) == (200, 1)
            gate.set()
            for sweep in (first, second):
                wait_terminal(broker, sweep["sweep"]["id"])
            status, hit = client.submit("alice", GATED)
            assert (status, hit["sweep"]["counts"]) == (201, {"cached": 1})
            status, flaky = client.submit("alice", FLAKY)
            assert status == 201
            wait_terminal(broker, flaky["sweep"]["id"])
            status, broken = client.submit("bob", BROKEN)
            assert status == 201
            wait_terminal(broker, broken["sweep"]["id"])
            assert broker.sweep(flaky["sweep"]["id"]).state == "done"
            assert broker.sweep(broken["sweep"]["id"]).state == "failed"
            status, _ = client.call("POST", "/v1/sweeps", b"not json")
            assert status == 400
            status, _ = client.call("GET", "/v1/sweeps/swp-nope")
            assert status == 404

            status, metrics = client.call("GET", "/v1/metrics")
            assert status == 200
            assert metrics["jobs"] == PINNED_JOBS
            assert metrics["requests"] == PINNED_REQUESTS
            host = metrics["host"]
            assert (host["jobs"], host["instructions"], host["accesses"]) == (
                3, 6_000, 2_100,
            )
            status, text = client.call("GET", "/v1/metrics?format=prometheus")
            assert status == 200
            counters = samples(text, "counter")
            counters = {
                series: value
                for series, value in counters.items()
                if not series.startswith("repro_result_cache_requests_total")
            }
            assert counters == PINNED_COUNTERS
        finally:
            gate.set()
            client.close()
            live.stop()


class TestFreshGauges:
    def test_scrape_without_json_call_reads_the_live_queue(self, tmp_path):
        gate = threading.Event()
        started = threading.Event()

        def execute(job):
            started.set()
            assert gate.wait(10)
            return fake_summary(job)

        live = LiveService(tmp_path, execute=execute).start()
        client = Connection(live)
        broker = live.broker
        try:
            status, body = client.submit(
                "alice", make_job(), make_job(tla="qbs"), make_job(tla="eci")
            )
            assert status == 201
            assert started.wait(10)
            status, text = client.call("GET", "/v1/metrics?format=prometheus")
            assert status == 200
            gauges = samples(text, "gauge")
            assert gauges.get("repro_queue_depth") == broker._queued_count == 2
            assert gauges.get("repro_jobs_running") == broker._running_count == 1
            gate.set()
            wait_terminal(broker, body["sweep"]["id"])
            _, text = client.call("GET", "/v1/metrics?format=prometheus")
            gauges = samples(text, "gauge")
            assert gauges.get("repro_queue_depth") == 0
            assert gauges.get("repro_jobs_running") == 0
        finally:
            gate.set()
            client.close()
            live.stop()


class TestHealthz:
    def test_answers_without_building_the_metrics_snapshot(
        self, tmp_path, monkeypatch
    ):
        live = LiveService(tmp_path).start()
        client = Connection(live)

        def refuse():
            raise AssertionError("healthz built the /v1/metrics snapshot")

        monkeypatch.setattr(live.broker, "metrics_snapshot", refuse)
        try:
            status, body = client.call("GET", "/v1/healthz")
            assert status == 200
            assert body["status"] == "ok"
            assert body["uptime_s"] >= 0
        finally:
            client.close()
            live.stop()

    def test_workers_and_queue_depth_match_metrics(self, tmp_path):
        gate = threading.Event()
        started = threading.Event()

        def execute(job):
            started.set()
            assert gate.wait(10)
            return fake_summary(job)

        live = LiveService(tmp_path, execute=execute).start()
        client = Connection(live)
        try:
            status, _ = client.submit(
                "alice", make_job(), make_job(tla="qbs"), make_job(tla="eci")
            )
            assert status == 201
            assert started.wait(10)
            status, health = client.call("GET", "/v1/healthz")
            assert status == 200
            _, metrics = client.call("GET", "/v1/metrics")
            assert health["queue_depth"] == metrics["queue"]["depth"] == 2
            assert health["workers"] == metrics["workers"]
        finally:
            gate.set()
            client.close()
            live.stop()


class TestConcurrentCounting:
    def test_concurrent_clients_lose_no_count(self, tmp_path):
        clients, rounds = 8, 10
        live = LiveService(tmp_path).start()
        broker = live.broker

        def client(n):
            connection = Connection(live)
            try:
                for i in range(rounds):
                    job = make_job(quota=1_000 + rounds * n + i)
                    assert connection.submit(f"t{n}", job)[0] == 201
                    status, _ = connection.call(
                        "GET", "/v1/metrics?format=prometheus"
                    )
                    assert status == 200
            finally:
                connection.close()

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(n,))
                for n in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(saved)
        total = clients * rounds
        try:
            deadline = time.perf_counter() + 30
            while broker.counters["jobs_executed"] < total:
                assert time.perf_counter() < deadline
                time.sleep(0.01)
            client = Connection(live)
            status, metrics = client.call("GET", "/v1/metrics")
            client.close()
        finally:
            live.stop()
        assert metrics["requests"] == {
            "POST /v1/sweeps 201": total,
            "GET /v1/metrics 200": total,
        }
        assert metrics["jobs"]["sweeps_submitted"] == total
        assert metrics["jobs"]["jobs_submitted"] == total
        assert metrics["jobs"]["jobs_executed"] == total
        assert metrics["queue"]["depth"] == metrics["queue"]["running"] == 0


class TestExecutorSection:
    """Both backends report the same four liveness fields, and the
    scrape carries no lease-reclaim or recycle family."""

    def test_liveness_fields_and_families(self, tmp_path):
        for workers, backend in ((0, "serial"), (1, "pool")):
            live = LiveService(tmp_path / backend, workers=workers).start()
            client = Connection(live)
            try:
                status, metrics = client.call("GET", "/v1/metrics")
                assert status == 200
                assert metrics["executor"] == {
                    "backend": backend, "workers": 1, "busy": 0, "respawns": 0,
                }
                status, text = client.call("GET", "/v1/metrics?format=prometheus")
                assert status == 200
                families = {
                    line.split()[2]
                    for line in text.splitlines()
                    if line.startswith("# TYPE ")
                }
                assert "repro_worker_respawns_total" in families
                assert not families & {
                    "repro_lease_reclaims_total", "repro_worker_recycles_total",
                }
            finally:
                client.close()
                live.stop()
