"""The ops view: snapshot reduction, rendering, and the polling loop.

All driven with canned ``/v1/metrics`` documents and injected
fetch/clock/sleep — no server, no real time.
"""

import io

import pytest

from repro.errors import ServiceError
from repro.obs.top import OpsTop, derive_view, render_dashboard, render_report


def snapshot(completed=4.0, requests=10.0, queued=3):
    """A minimal but schema-v2-shaped /v1/metrics body."""
    return {
        "schema": 2,
        "uptime_s": 60.0,
        "workers": 2,
        "queue": {"depth": queued, "running": 1, "limit": 256},
        "jobs": {"jobs_executed": int(completed)},
        "sweeps": {"total": 2, "active": 1},
        "tenants": {
            "acme": {"queued_jobs": queued, "queued_instructions": 6000}
        },
        "limits": {"tenant_jobs": 128, "tenant_instructions": 500_000_000},
        "metrics": {
            "repro_http_requests_total": {
                "type": "counter",
                "help": "h",
                "labels": ["route", "status", "tenant"],
                "samples": [
                    {
                        "labels": {
                            "route": "GET /v1/metrics",
                            "status": "200",
                            "tenant": "acme",
                        },
                        "value": requests,
                    }
                ],
            },
            "repro_jobs_completed_total": {
                "type": "counter",
                "help": "h",
                "labels": ["tenant", "status"],
                "samples": [
                    {
                        "labels": {"tenant": "acme", "status": "done"},
                        "value": completed,
                    }
                ],
            },
            "repro_jobs_admitted_total": {
                "type": "counter",
                "help": "h",
                "labels": ["tenant", "outcome"],
                "samples": [
                    {
                        "labels": {"tenant": "acme", "outcome": "cached"},
                        "value": 2.0,
                    },
                    {
                        "labels": {"tenant": "acme", "outcome": "queued"},
                        "value": 5.0,
                    },
                ],
            },
            "repro_http_request_seconds": {
                "type": "histogram",
                "help": "h",
                "labels": ["route"],
                "buckets": [0.1, 1.0],
                "samples": [
                    {
                        "labels": {"route": "GET /v1/metrics"},
                        "counts": [50, 50, 0],
                        "sum": 30.0,
                        "count": 100,
                    }
                ],
            },
            "repro_job_exec_seconds": {
                "type": "histogram",
                "help": "h",
                "labels": ["tenant"],
                "buckets": [1.0, 2.0],
                "samples": [
                    {
                        "labels": {"tenant": "acme"},
                        "counts": [4, 0, 0],
                        "sum": 2.0,
                        "count": 4,
                    }
                ],
            },
            "repro_workers_busy": {
                "type": "gauge",
                "help": "h",
                "labels": [],
                "samples": [{"labels": {}, "value": 1.0}],
            },
        },
    }


class TestDeriveView:
    def test_single_snapshot_has_no_rates(self):
        view = derive_view(snapshot())
        assert view["requests_per_s"] is None
        assert view["jobs_per_s"] is None

    def test_rates_from_counter_deltas(self):
        view = derive_view(
            snapshot(completed=10.0, requests=30.0),
            previous=snapshot(completed=4.0, requests=10.0),
            dt=2.0,
        )
        assert view["jobs_per_s"] == pytest.approx(3.0)
        assert view["requests_per_s"] == pytest.approx(10.0)

    def test_quantiles_recovered_from_buckets(self):
        view = derive_view(snapshot())
        # 50 obs in (0, 0.1], 50 in (0.1, 1]: p50 is the first bound.
        assert view["http_p50"] == pytest.approx(0.1)
        assert view["http_p99"] == pytest.approx(0.982)

    def test_events_stream_left_out_of_http_quantiles(self):
        # One followed events stream lasts its sweep's whole run; merged
        # in, it would be the p99 of a hundred 0.1-1 s requests.
        body = snapshot()
        body["metrics"]["repro_http_request_seconds"]["samples"].append(
            {
                "labels": {"route": "GET /v1/sweeps/{id}/events"},
                "counts": [0, 0, 1],
                "sum": 41.0,
                "count": 1,
            }
        )
        view = derive_view(body)
        assert view["http_p50"] == pytest.approx(0.1)
        assert view["http_p99"] == pytest.approx(0.982)
        assert "events stream excluded" in render_dashboard(view)
        assert "HTTP latency (events stream excluded)" in render_report(view)

    def test_tenant_headroom_against_limits(self):
        [row] = derive_view(snapshot(queued=3))["tenants"]
        assert row["tenant"] == "acme"
        assert row["job_headroom"] == 125
        assert row["instruction_headroom"] == 500_000_000 - 6000
        assert row["completed"] == 4.0
        assert row["exec_p50"] is not None

    def test_cache_outcomes_surface(self):
        view = derive_view(snapshot())
        assert view["cache"] == {"hit": 2.0, "coalesced": 0.0, "miss": 5.0}

    def test_pre_v2_body_rejected(self):
        body = snapshot()
        del body["metrics"]
        with pytest.raises(ServiceError, match="schema v2"):
            derive_view(body)


class TestRendering:
    def test_dashboard_mentions_the_essentials(self):
        text = render_dashboard(derive_view(snapshot()), "http://x")
        assert "http://x" in text
        assert "3 queued" in text
        assert "acme" in text
        assert "workers 1/2" in text

    def test_report_is_markdown(self):
        text = render_report(derive_view(snapshot()), "http://x")
        assert text.startswith("# repro.service ops report")
        assert "| acme | 3 " in text

    def test_empty_histogram_quantiles_render_as_em_dash(self):
        # The canned snapshot has no per-tenant exec-latency histogram,
        # so those quantiles are None — shown as an em dash, never as a
        # fabricated 0.0ms.
        body = snapshot()
        body["metrics"].pop("repro_job_exec_seconds", None)
        view = derive_view(body)
        row = view["tenants"][0]
        assert row["exec_p50"] is None and row["exec_p99"] is None
        dash_row = [
            line for line in render_dashboard(view).splitlines()
            if line.startswith("acme")
        ][0]
        assert dash_row.count("—") == 2
        report_row = [
            line for line in render_report(view).splitlines()
            if line.startswith("| acme")
        ][0]
        assert report_row.endswith("| — | — |")

    def test_empty_tenant_table_renders(self):
        body = snapshot()
        body["tenants"] = {}
        assert "no tenants" in render_dashboard(derive_view(body))
        assert "_none_" in render_report(derive_view(body))


class TestOpsTop:
    def test_loop_derives_rates_between_frames(self):
        snapshots = iter(
            [snapshot(completed=4.0), snapshot(completed=10.0)]
        )
        clock = iter([0.0, 2.0])
        slept = []
        top = OpsTop(
            "http://x",
            interval=2.0,
            fetch=lambda: next(snapshots),
            clock=lambda: next(clock),
            sleep=slept.append,
        )
        stream = io.StringIO()
        assert top.run(stream, iterations=2) == 0
        assert slept == [2.0]
        frames = stream.getvalue()
        assert "jobs    " in frames or "jobs" in frames
        assert "3.00/s" in frames  # (10-4)/2s on the second frame

    def test_fetch_errors_keep_the_loop_alive(self):
        calls = []

        def fetch():
            calls.append(True)
            if len(calls) == 1:
                raise ServiceError("down")
            return snapshot()

        top = OpsTop(
            "http://x", fetch=fetch, clock=lambda: 0.0, sleep=lambda _: None
        )
        stream = io.StringIO()
        top.run(stream, iterations=2)
        assert "down" in stream.getvalue()
        assert "acme" in stream.getvalue()
