"""End-to-end HTTP tests against a live server on an ephemeral port.

A real ``ThreadingHTTPServer`` is booted on port 0 with an inline
(``workers=0``) broker and an instrumented execute function; requests
go through ``urllib`` exactly as external clients would.
"""

import http.client
import json
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.orchestrate import RunSummary, SimJob
from repro.service import JobBroker, ServiceConfig, create_server
from repro.service.app import MAX_REPORT_RESAMPLES
from repro.telemetry.schema import (
    EVAL_REPORT_SCHEMA,
    SERVICE_METRICS_SCHEMA,
    check,
)

from .test_broker import fake_summary, make_job


class LiveService:
    """A running server + broker pair with urllib convenience calls."""

    def __init__(self, tmp_path, execute=fake_summary, **overrides):
        defaults = dict(port=0, workers=0, cache_dir=str(tmp_path / "cache"))
        defaults.update(overrides)
        self.config = ServiceConfig(**defaults)
        self.broker = JobBroker(self.config, execute=execute)
        self.server = create_server(self.config, broker=self.broker)
        self.port = self.server.server_address[1]
        self.base = f"http://127.0.0.1:{self.port}"
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )

    def start(self):
        self.broker.start()
        self.thread.start()
        return self

    def stop(self):
        self.server.shutdown()
        self.server.server_close()
        self.broker.stop()
        self.thread.join(5)

    def request(self, method, path, body=None, tenant=None):
        """Returns ``(status, parsed-or-raw body)``; never raises on 4xx."""
        headers = {"Content-Type": "application/json"}
        if tenant:
            headers["X-Repro-Tenant"] = tenant
        request = urllib.request.Request(
            self.base + path,
            data=json.dumps(body).encode() if body is not None else None,
            headers=headers,
            method=method,
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                raw = response.read()
                status, headers = response.status, response.headers
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            status, headers = exc.code, exc.headers
        try:
            return status, json.loads(raw), headers
        except ValueError:
            return status, raw, headers

    def wait_done(self, sweep_id, timeout=10.0):
        deadline = time.perf_counter() + timeout
        while True:
            status, body, _ = self.request("GET", f"/v1/sweeps/{sweep_id}")
            assert status == 200
            if body["sweep"]["state"] != "running":
                return body["sweep"]
            if time.perf_counter() > deadline:
                raise AssertionError(f"sweep stuck: {body}")
            time.sleep(0.02)


@pytest.fixture
def service(tmp_path):
    live = LiveService(tmp_path).start()
    yield live
    live.stop()


def job_spec(*jobs):
    from repro.service import job_to_dict

    return {"jobs": [job_to_dict(job) for job in jobs]}


class TestLifecycle:
    def test_healthz(self, service):
        status, body, _ = service.request("GET", "/v1/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["workers"] == 0

    def test_keep_alive_responses_do_not_stall(self, service):
        """Header and body are separate writes: with Nagle on, each
        response on a kept-alive connection waited ~40 ms for the
        client's delayed ACK."""
        connection = http.client.HTTPConnection(
            "127.0.0.1", service.port, timeout=10
        )
        try:
            latencies = []
            for _ in range(7):
                began = time.perf_counter()
                connection.request("GET", "/v1/healthz")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
                latencies.append(time.perf_counter() - began)
        finally:
            connection.close()
        assert statistics.median(latencies) < 0.020, latencies

    def test_submit_poll_fetch_result(self, service):
        job = make_job()
        status, body, _ = service.request("POST", "/v1/sweeps", job_spec(job))
        assert status == 201
        sweep = body["sweep"]
        # the instant fake execute may finish before the snapshot
        assert sweep["state"] in ("running", "done")
        final = service.wait_done(sweep["id"])
        assert final["counts"] == {"done": 1}
        key = final["jobs"][0]["key"]
        status, result, _ = service.request("GET", f"/v1/jobs/{key}/result")
        assert status == 200
        assert result["mix"] == job.mix_name
        assert "host" not in result  # the cache's own stripped shape

    def test_events_backlog(self, service):
        job = make_job(tla="qbs")
        _, body, _ = service.request("POST", "/v1/sweeps", job_spec(job))
        sweep_id = body["sweep"]["id"]
        service.wait_done(sweep_id)
        status, raw, headers = service.request(
            "GET", f"/v1/sweeps/{sweep_id}/events?follow=0"
        )
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        events = [json.loads(line) for line in raw.decode().splitlines()]
        names = [event["event"] for event in events]
        assert names[0] == "sweep_submitted"
        assert names[-1] == "job_done"

    def test_events_follow_streams_to_completion(self, service):
        job = make_job(tla="eci")
        _, body, _ = service.request("POST", "/v1/sweeps", job_spec(job))
        sweep_id = body["sweep"]["id"]
        # follow=1 (default): the response ends once the sweep is done
        status, raw, _ = service.request(
            "GET", f"/v1/sweeps/{sweep_id}/events"
        )
        assert status == 200
        events = [json.loads(line) for line in raw.decode().splitlines()]
        assert events[-1]["event"] == "job_done"

    def test_cancel_endpoint(self, tmp_path):
        live = LiveService(tmp_path)  # broker not started: jobs stay queued
        live.thread.start()
        try:
            _, body, _ = live.request(
                "POST", "/v1/sweeps", job_spec(make_job(), make_job(tla="qbs"))
            )
            sweep_id = body["sweep"]["id"]
            status, result, _ = live.request(
                "DELETE", f"/v1/sweeps/{sweep_id}"
            )
            assert status == 200
            assert result["cancelled"] == 2
            assert result["sweep"]["state"] == "cancelled"
        finally:
            live.server.shutdown()
            live.server.server_close()

    def test_concurrent_identical_submissions_execute_once(self, tmp_path):
        """Two HTTP clients race the same sweep; one execution happens."""
        release = threading.Event()

        def gated(job):
            assert release.wait(10)
            return fake_summary(job)

        live = LiveService(tmp_path, execute=gated).start()
        try:
            spec = job_spec(make_job(), make_job(tla="qbs"))
            responses = []

            def submit():
                responses.append(live.request("POST", "/v1/sweeps", spec))

            threads = [threading.Thread(target=submit) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
            release.set()
            sweep_ids = set()
            for status, body, _ in responses:
                assert status == 201
                sweep_ids.add(body["sweep"]["id"])
            assert len(sweep_ids) == 2  # distinct sweeps...
            for sweep_id in sweep_ids:
                assert live.wait_done(sweep_id)["state"] == "done"
            _, metrics, _ = live.request("GET", "/v1/metrics")
            # ...but exactly one execution per unique job key
            assert metrics["jobs"]["jobs_executed"] == 2
            assert (
                metrics["jobs"]["jobs_coalesced"]
                + metrics["jobs"]["jobs_cached"]
                == 2
            )
        finally:
            release.set()
            live.stop()


class TestFailurePaths:
    def test_bad_spec_is_400(self, service):
        status, body, _ = service.request(
            "POST", "/v1/sweeps", {"jobs": [{"apps": ["bzi"]}]}
        )
        assert status == 400
        assert "mix_name" in body["error"]

    def test_invalid_json_is_400(self, service):
        request = urllib.request.Request(
            service.base + "/v1/sweeps",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_unknown_sweep_is_404(self, service):
        for method, path in [
            ("GET", "/v1/sweeps/swp-nope"),
            ("DELETE", "/v1/sweeps/swp-nope"),
            ("GET", "/v1/sweeps/swp-nope/events"),
            ("GET", f"/v1/jobs/{'0' * 40}/result"),
            ("GET", "/v1/not-a-route"),
        ]:
            status, _, _ = service.request(method, path)
            assert status == 404, (method, path)

    def test_wrong_method_is_405(self, service):
        status, _, headers = service.request("DELETE", "/v1/metrics")
        assert status == 405
        assert "GET" in headers["Allow"]

    def test_queue_full_is_429_with_retry_after(self, tmp_path):
        live = LiveService(tmp_path, queue_limit=1)  # broker never started
        live.thread.start()
        try:
            status, _, _ = live.request(
                "POST", "/v1/sweeps", job_spec(make_job())
            )
            assert status == 201
            status, body, headers = live.request(
                "POST", "/v1/sweeps", job_spec(make_job(tla="qbs"))
            )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert "queue full" in body["error"]
        finally:
            live.server.shutdown()
            live.server.server_close()

    def test_tenant_quota_is_429(self, tmp_path):
        live = LiveService(tmp_path, tenant_jobs=1)
        live.thread.start()
        try:
            status, _, _ = live.request(
                "POST", "/v1/sweeps", job_spec(make_job()), tenant="alice"
            )
            assert status == 201
            status, body, _ = live.request(
                "POST",
                "/v1/sweeps",
                job_spec(make_job(tla="qbs")),
                tenant="alice",
            )
            assert status == 429
            assert "alice" in body["error"]
            # an untouched tenant is unaffected
            status, _, _ = live.request(
                "POST", "/v1/sweeps", job_spec(make_job(tla="eci")), tenant="bob"
            )
            assert status == 201
        finally:
            live.server.shutdown()
            live.server.server_close()


class TestMetricsEndpoint:
    def test_metrics_validate_against_schema(self, service):
        _, body, _ = service.request("POST", "/v1/sweeps", job_spec(make_job()))
        service.wait_done(body["sweep"]["id"])
        status, metrics, _ = service.request("GET", "/v1/metrics")
        assert status == 200
        assert check(metrics, SERVICE_METRICS_SCHEMA) == []
        assert metrics["requests"]["POST /v1/sweeps 201"] == 1
        assert metrics["queue"]["limit"] == service.config.queue_limit


def policy_sensitive_summary(job: SimJob) -> RunSummary:
    """Like ``fake_summary`` but with a TLA-dependent IPC, so A/B
    reports computed over these runs have non-zero deltas."""
    summary = fake_summary(job)
    summary.ipcs = [
        1.0 + (0.25 if job.tla != "none" else 0.0)
    ] * len(job.apps)
    return summary


class TestReportEndpoint:
    def test_report_over_a_two_policy_sweep(self, tmp_path):
        live = LiveService(tmp_path, execute=policy_sensitive_summary).start()
        try:
            spec = job_spec(make_job(), make_job(tla="qbs"))
            _, body, _ = live.request("POST", "/v1/sweeps", spec)
            sweep_id = body["sweep"]["id"]
            live.wait_done(sweep_id)
            status, report, _ = live.request(
                "GET", f"/v1/sweeps/{sweep_id}/report?resamples=200"
            )
            assert status == 200
            assert check(report, EVAL_REPORT_SCHEMA) == []
            [comparison] = report["comparisons"]
            assert comparison["policy"] == "inclusive/qbs"
            assert comparison["num_pairs"] == 1
            all_throughput = [
                cell
                for cell in comparison["cells"]
                if cell["metric"] == "throughput" and cell["slice"] == "All"
            ]
            assert all_throughput[0]["mean_delta"] == pytest.approx(0.5)
            # Markdown flavour of the same document.
            status, rendered, headers = live.request(
                "GET", f"/v1/sweeps/{sweep_id}/report?format=md&resamples=200"
            )
            assert status == 200
            assert headers["Content-Type"].startswith("text/markdown")
            assert b"Policy A/B evaluation" in rendered
        finally:
            live.stop()

    def test_single_policy_sweep_is_409(self, service):
        _, body, _ = service.request(
            "POST", "/v1/sweeps", job_spec(make_job())
        )
        sweep_id = body["sweep"]["id"]
        service.wait_done(sweep_id)
        status, body, _ = service.request(
            "GET", f"/v1/sweeps/{sweep_id}/report"
        )
        assert status == 409
        assert "baseline" in body["error"] or "policy" in body["error"]

    def test_unknown_sweep_is_404(self, service):
        status, _, _ = service.request("GET", "/v1/sweeps/nope/report")
        assert status == 404

    @pytest.mark.parametrize(
        "resamples", ["0", "-5", str(MAX_REPORT_RESAMPLES + 1), "many"]
    )
    def test_resamples_out_of_range_is_400(self, service, resamples):
        _, body, _ = service.request(
            "POST", "/v1/sweeps", job_spec(make_job())
        )
        sweep_id = body["sweep"]["id"]
        service.wait_done(sweep_id)
        status, body, _ = service.request(
            "GET", f"/v1/sweeps/{sweep_id}/report?resamples={resamples}"
        )
        assert status == 400
        assert "resamples" in body["error"]

    def test_resamples_lower_bound_is_accepted(self, tmp_path):
        live = LiveService(tmp_path, execute=policy_sensitive_summary).start()
        try:
            spec = job_spec(make_job(), make_job(tla="qbs"))
            _, body, _ = live.request("POST", "/v1/sweeps", spec)
            sweep_id = body["sweep"]["id"]
            live.wait_done(sweep_id)
            status, report, _ = live.request(
                "GET", f"/v1/sweeps/{sweep_id}/report?resamples=1"
            )
            assert status == 200
            assert report["resamples"] == 1
        finally:
            live.stop()
