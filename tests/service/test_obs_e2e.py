"""End-to-end observability: one trace id joins every artifact.

Boots the real server with the real ``execute_job`` on a tiny job
(quota small enough to finish in well under a second) and checks the
acceptance chain: the trace id minted at HTTP ingress shows up in the
structured access log, in the exported span file (with the ingress →
admission → queue → execute → sim-phase nesting), and in the sweep
manifest — while the cached result bytes stay byte-identical to an
untraced run.  The sim phases are sampled on a worker's main thread,
so the tests that read them run a one-worker pool service; a serial
service runs jobs on its broker thread and reports none.
"""

import io
import json
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.obs import Span, check_exposition, span_tree, spans_to_chrome_trace
from repro.orchestrate import SimJob, job_key
from repro.service import JobBroker, ServiceConfig, create_server
from repro.service.app import access_log
from repro.telemetry import validate_spans_jsonl
from repro.telemetry.schema import (
    CHROME_TRACE_SCHEMA,
    SERVICE_METRICS_SCHEMA,
    check,
)

from ..obs.test_tracing import assert_lanes_nest
from .test_broker import fake_summary, make_job


def tiny_job(**overrides) -> SimJob:
    """A real-simulation job small enough for a unit-test budget."""
    fields = dict(
        mix_name="MIX_OBS",
        apps=("bzi", "wrf"),
        tla="none",
        scale=0.0625,
        quota=2_000,
        warmup=500,
    )
    fields.update(overrides)
    return SimJob(**fields)


class LiveService:
    """A real-execute server on an ephemeral port (serial unless
    ``workers`` is set)."""

    def __init__(self, tmp_path, **overrides):
        defaults = dict(port=0, workers=0, cache_dir=str(tmp_path / "cache"))
        defaults.update(overrides)
        self.config = ServiceConfig(**defaults)
        self.broker = JobBroker(self.config)
        self.server = create_server(self.config, broker=self.broker)
        self.base = f"http://127.0.0.1:{self.server.server_address[1]}"
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )

    def __enter__(self):
        self.broker.start()
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
        self.broker.stop()
        self.thread.join(5)

    def request(self, method, path, body=None, headers=None):
        request = urllib.request.Request(
            self.base + path,
            data=json.dumps(body).encode() if body is not None else None,
            headers={"Content-Type": "application/json", **(headers or {})},
            method=method,
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), response.headers

    def wait_spans_file(self, sweep_id, timeout=30.0):
        """The sweep's exported span file, once the broker writes it."""
        path = Path(self.config.cache_dir) / "obs" / f"spans-{sweep_id}.jsonl"
        deadline = time.perf_counter() + timeout
        while not path.exists():
            assert time.perf_counter() < deadline, f"{path} never written"
            time.sleep(0.02)
        return path

    def wait_done(self, sweep_id, timeout=30.0):
        deadline = time.perf_counter() + timeout
        while True:
            _, body, _ = self.request("GET", f"/v1/sweeps/{sweep_id}")
            if body["sweep"]["state"] != "running":
                return body["sweep"]
            assert time.perf_counter() < deadline, "sweep stuck"
            time.sleep(0.05)


@pytest.fixture
def captured_access_log():
    """Divert the shared access logger into a buffer for one test."""
    buffer = io.StringIO()
    saved = access_log._stream
    access_log._stream = buffer
    try:
        yield buffer
    finally:
        access_log._stream = saved


def job_body(*jobs):
    from repro.service import job_to_dict

    return {"jobs": [job_to_dict(job) for job in jobs]}


CLIENT_TRACE = "f" * 32


class TestTracePropagation:
    def test_one_trace_id_joins_every_artifact(
        self, tmp_path, captured_access_log
    ):
        with LiveService(tmp_path, workers=1) as service:
            status, body, headers = service.request(
                "POST",
                "/v1/sweeps",
                job_body(tiny_job()),
                headers={"X-Repro-Trace": CLIENT_TRACE},
            )
            assert status == 201
            assert headers["X-Repro-Trace"] == CLIENT_TRACE
            sweep = body["sweep"]
            assert sweep["trace_id"] == CLIENT_TRACE
            final = service.wait_done(sweep["id"])
            assert final["state"] == "done"

            # -- access log: the submission line carries the trace id.
            lines = [
                json.loads(line)
                for line in captured_access_log.getvalue().splitlines()
            ]
            submits = [l for l in lines if l["method"] == "POST"]
            assert submits and submits[0]["trace_id"] == CLIENT_TRACE
            assert submits[0]["status"] == 201
            assert submits[0]["path"] == "/v1/sweeps"
            assert submits[0]["latency_s"] >= 0
            # every line has the full access-log shape
            for line in lines:
                assert {"method", "path", "status", "tenant", "trace_id",
                        "latency_s"} <= set(line)

            # -- span export: full chain under one trace, correctly
            #    nested ingress → admission → queue → execute → phases.
            _, trace_doc, _ = service.request(
                "GET", f"/v1/sweeps/{sweep['id']}/trace"
            )
            assert trace_doc["trace_id"] == CLIENT_TRACE
            spans = trace_doc["spans"]
            assert {s["trace_id"] for s in spans} == {CLIENT_TRACE}
            by_name = {s["name"]: s for s in spans}
            assert by_name["ingress"]["kind"] == "server"
            assert "parent_id" not in by_name["ingress"]
            assert (
                by_name["admission"]["parent_id"]
                == by_name["ingress"]["span_id"]
            )
            assert by_name["queue"]["kind"] == "queue"
            assert (
                by_name["queue"]["parent_id"]
                == by_name["admission"]["span_id"]
            )
            assert by_name["execute"]["kind"] == "worker"
            assert (
                by_name["execute"]["parent_id"]
                == by_name["queue"]["span_id"]
            )
            phases = [s for s in spans if s["kind"] == "phase"]
            assert phases, "execute must have simulated-phase children"
            assert {p["parent_id"] for p in phases} == {
                by_name["execute"]["span_id"]
            }
            assert {"sim_loop", "execute_job"} <= {p["name"] for p in phases}
            for span in spans:
                assert span["end"] >= span["start"]

            # -- span artifact on disk validates against the schema.
            spans_file = (
                tmp_path / "cache" / "obs" / f"spans-{sweep['id']}.jsonl"
            )
            assert spans_file.exists()
            assert validate_spans_jsonl(spans_file) == []

            # -- manifest: the done record joins via the same trace id.
            manifest = tmp_path / "cache" / "sweep-manifest.jsonl"
            entries = [
                json.loads(line)
                for line in manifest.read_text().splitlines()
            ]
            done = [e for e in entries if e.get("status") == "done"]
            assert done and done[0]["trace_id"] == CLIENT_TRACE
            assert done[0]["key"] == job_key(tiny_job())

    def test_minted_trace_when_client_sends_none(self, tmp_path):
        with LiveService(tmp_path) as service:
            _, body, headers = service.request(
                "POST", "/v1/sweeps", job_body(tiny_job())
            )
            trace_id = body["sweep"]["trace_id"]
            assert len(trace_id) == 32
            assert headers["X-Repro-Trace"] == trace_id

    def test_malformed_client_trace_is_replaced(self, tmp_path):
        with LiveService(tmp_path) as service:
            _, body, _ = service.request(
                "POST",
                "/v1/sweeps",
                job_body(tiny_job()),
                headers={"X-Repro-Trace": "not-hex!"},
            )
            assert body["sweep"]["trace_id"] != "not-hex!"
            assert len(body["sweep"]["trace_id"]) == 32


class TestOneTimeline:
    def test_one_trace_id_opens_one_timeline(self, tmp_path):
        """A sweep's spans render through the one Chrome-trace writer
        as one process whose lanes nest, from ingress to the host
        phases, which share their execute span's lane."""
        with LiveService(tmp_path, workers=1) as service:
            _, body, _ = service.request(
                "POST", "/v1/sweeps", job_body(tiny_job())
            )
            sweep_id = body["sweep"]["id"]
            service.wait_done(sweep_id)
            lines = service.wait_spans_file(sweep_id).read_text().splitlines()
        doc = spans_to_chrome_trace([Span(**json.loads(l)) for l in lines])
        assert check(doc, CHROME_TRACE_SCHEMA) == []
        # one process, named by the whole trace id the access log and
        # the manifest carry
        [process] = [
            e for e in doc["traceEvents"] if e["name"] == "process_name"
        ]
        assert process["args"]["name"] == f"trace {body['sweep']['trace_id']}"
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"]: e for e in slices}
        chain = ["ingress", "admission", "queue", "execute"]
        phases = [e for e in slices if e["cat"] == "phase"]
        assert {"sim_loop", "execute_job"} <= {e["name"] for e in phases}
        assert set(chain) <= set(by_name)
        assert_lanes_nest(doc)
        execute = by_name["execute"]
        assert {(e["pid"], e["tid"]) for e in phases} == {
            (execute["pid"], execute["tid"])
        }
        for phase in phases:
            assert phase["args"]["parent_id"] == execute["args"]["span_id"]
            assert phase["ts"] >= execute["ts"]
            assert (
                phase["ts"] + phase["dur"]
                <= execute["ts"] + execute["dur"] + 1.0  # µs rounding
            )


class TestSerialBackend:
    def test_serial_execute_has_no_phase_children(self, tmp_path):
        """A job run on the broker thread cannot be sampled: its execute
        span has no phase children, and its cache entry is the bytes a
        sampled pool worker stores."""
        job = tiny_job()
        key = job_key(job)
        for name, workers in (("serial", 0), ("pool", 1)):
            with LiveService(tmp_path / name, workers=workers) as service:
                _, body, _ = service.request("POST", "/v1/sweeps", job_body(job))
                sweep_id = body["sweep"]["id"]
                service.wait_done(sweep_id)
                _, trace_doc, _ = service.request(
                    "GET", f"/v1/sweeps/{sweep_id}/trace"
                )
            kinds = {span["kind"] for span in trace_doc["spans"]}
            assert "worker" in kinds
            assert ("phase" in kinds) is (name == "pool")
        serial = (tmp_path / "serial" / "cache" / f"{key}.json").read_bytes()
        pool = (tmp_path / "pool" / "cache" / f"{key}.json").read_bytes()
        assert serial == pool


class TestSpanBookStaysBounded:
    def test_sequential_sweeps_export_whole_chains_and_free_the_book(
        self, tmp_path
    ):
        """Each finished sweep moves its spans from the book to its
        file, so a book capped just above one sweep never drops; an
        all-cached re-POST exports after its request ends, ingress
        included."""
        def chain(path):
            assert validate_spans_jsonl(path) == []
            spans = [json.loads(l) for l in path.read_text().splitlines()]
            tree = span_tree([Span(**span) for span in spans])
            [root] = tree[None]
            assert root.name == "ingress"
            return {span["name"] for span in spans}

        with LiveService(tmp_path, workers=1) as service:
            book = service.broker.spans
            first = service.request(
                "POST", "/v1/sweeps", job_body(tiny_job())
            )[1]["sweep"]["id"]
            service.wait_done(first)
            book.max_spans = len(
                service.wait_spans_file(first).read_text().splitlines()
            ) + 1
            cold = {"ingress", "admission", "queue", "execute", "sim_loop"}
            for job, cached in (
                (tiny_job(quota=2_100), False),
                (tiny_job(), True),  # the all-cached re-POST
                (tiny_job(quota=2_200), False),
            ):
                sweep_id = service.request(
                    "POST", "/v1/sweeps", job_body(job)
                )[1]["sweep"]["id"]
                final = service.wait_done(sweep_id)
                names = chain(service.wait_spans_file(sweep_id))
                if cached:
                    assert final["counts"] == {"cached": 1}
                    assert names == {"ingress", "admission"}
                else:
                    assert cold <= names
                assert book.dropped == 0
            assert len(book) == 0
            # an exported sweep's /trace is served from its file
            _, trace_doc, _ = service.request(
                "GET", f"/v1/sweeps/{first}/trace"
            )
            assert {s["name"] for s in trace_doc["spans"]} >= cold


class TestMetricsSurface:
    def test_per_tenant_histograms_and_schema(self, tmp_path):
        with LiveService(tmp_path) as service:
            _, body, _ = service.request(
                "POST",
                "/v1/sweeps",
                job_body(tiny_job()),
                headers={"X-Repro-Tenant": "acme"},
            )
            service.wait_done(body["sweep"]["id"])
            _, metrics, _ = service.request("GET", "/v1/metrics")
            assert check(metrics, SERVICE_METRICS_SCHEMA, "metrics") == []
            assert metrics["schema"] == 4
            assert metrics["executor"]["backend"] == "serial"
            exec_hist = metrics["metrics"]["repro_job_exec_seconds"]
            [sample] = exec_hist["samples"]
            assert sample["labels"] == {"tenant": "acme"}
            assert sample["count"] == 1
            assert sum(sample["counts"]) == 1
            wait_hist = metrics["metrics"]["repro_queue_wait_seconds"]
            assert [s["labels"]["tenant"] for s in wait_hist["samples"]] == [
                "acme"
            ]
            assert metrics["limits"]["tenant_jobs"] == (
                service.config.tenant_jobs
            )

    def test_prometheus_view_passes_checker(self, tmp_path):
        with LiveService(tmp_path) as service:
            _, body, _ = service.request(
                "POST", "/v1/sweeps", job_body(tiny_job())
            )
            service.wait_done(body["sweep"]["id"])
            with urllib.request.urlopen(
                f"{service.base}/v1/metrics?format=prometheus", timeout=10
            ) as response:
                assert response.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4"
                )
                text = response.read().decode()
            assert check_exposition(text) == []
            assert "repro_jobs_completed_total" in text
            assert 'repro_job_exec_seconds_bucket' in text


class TestDisabledIsFree:
    def test_cache_bytes_identical_traced_and_untraced(self, tmp_path):
        job = tiny_job()
        key = job_key(job)
        with LiveService(tmp_path / "on", tracing=True) as service:
            _, body, _ = service.request("POST", "/v1/sweeps", job_body(job))
            service.wait_done(body["sweep"]["id"])
        with LiveService(tmp_path / "off", tracing=False) as service:
            _, body, _ = service.request("POST", "/v1/sweeps", job_body(job))
            service.wait_done(body["sweep"]["id"])
            # trace ids still flow (they back the access log) but no
            # spans may be recorded or exported.
            assert len(service.broker.spans) == 0
        traced = (tmp_path / "on" / "cache" / f"{key}.json").read_bytes()
        untraced = (tmp_path / "off" / "cache" / f"{key}.json").read_bytes()
        assert traced == untraced

    def test_no_spans_when_tracing_disabled(self, tmp_path):
        with LiveService(tmp_path, tracing=False) as service:
            _, body, _ = service.request(
                "POST", "/v1/sweeps", job_body(tiny_job())
            )
            service.wait_done(body["sweep"]["id"])
            assert len(service.broker.spans) == 0
            assert not (tmp_path / "cache" / "obs").exists()


class TestCacheCounters:
    def test_hit_miss_coalesce_account_for_every_submission(self, tmp_path):
        """Satellite invariant: every unique submitted job is exactly
        one of hit / coalesced / miss in the registry."""
        gate = threading.Event()

        def gated(job):
            gate.wait(5)
            return fake_summary(job)

        broker = JobBroker(
            ServiceConfig(
                workers=0, cache_dir=str(tmp_path / "cache")
            ),
            execute=gated,
        ).start()
        try:
            first = make_job()
            # miss, then coalesce onto the in-flight entry, then dedup
            # inside one sweep (deduped jobs are not cache requests;
            # jobs are keyed by app composition + config, so the
            # distinct second key needs a different TLA policy).
            broker.submit([first])
            broker.submit([first])
            broker.submit([make_job(tla="qbs"), make_job(tla="qbs")])
            gate.set()
            deadline = time.perf_counter() + 10
            while broker.counters["jobs_executed"] < 2:
                assert time.perf_counter() < deadline
                time.sleep(0.01)
            # a fresh sweep for an already-cached key: a hit.
            done = broker.submit([first])
            assert done.state == "done"

            admitted = broker.m_admitted.sum_by("outcome")
            hit = admitted["cached"]
            coalesced = admitted["coalesced"]
            miss = admitted["queued"]
            submitted = broker.counters["jobs_submitted"]
            deduped = broker.counters["jobs_deduped"]
            assert (hit, coalesced, miss) == (1, 1, 2)
            assert hit + coalesced + miss == submitted - deduped
        finally:
            broker.stop()
