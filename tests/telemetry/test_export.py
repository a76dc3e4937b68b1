"""Exporters: JSONL event logs, Chrome traces, run manifests."""

import json

from repro.obs import spans_to_chrome_trace
from repro.telemetry import (
    RunTelemetry,
    TelemetryConfig,
    TraceEvent,
    write_events_jsonl,
)
from repro.telemetry.__main__ import validate_dir
from repro.telemetry.schema import (
    check,
    CHROME_TRACE_SCHEMA,
    validate_chrome_trace,
    validate_events_jsonl,
    validate_run_manifest,
)


class TestEventsJsonl:
    def test_round_trip_and_schema(self, tmp_path):
        events = [
            TraceEvent(10.0, "llc_miss", 0, 0x40),
            TraceEvent(12.5, "back_invalidate", 1, 0x80, {"dirty": True}),
        ]
        path = write_events_jsonl(tmp_path / "events-k.jsonl", events)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["extra"] == {"dirty": True}
        assert validate_events_jsonl(path) == []

    def test_validation_catches_bad_lines(self, tmp_path):
        path = tmp_path / "events-bad.jsonl"
        path.write_text('{"cycle": 1.0}\nnot json\n')
        errors = validate_events_jsonl(path)
        assert any("missing required key" in error for error in errors)
        assert any("invalid JSON" in error for error in errors)


def _chrome_trace(telemetry):
    return spans_to_chrome_trace(telemetry.spans.snapshot())


def _job_slices(trace):
    return [
        event
        for event in trace["traceEvents"]
        if event["ph"] == "X" and event.get("cat") == "job"
    ]


class TestLaneAssignment:
    def test_overlapping_spans_get_distinct_lanes(self):
        telemetry = RunTelemetry(TelemetryConfig(enabled=True))
        for key, start, end in (
            ("a", 0.0, 2.0),
            ("b", 1.0, 3.0),  # overlaps the first
            ("c", 2.5, 4.0),  # fits after the first
        ):
            telemetry.note_executed(key, key, "done", 1, start=start, end=end)
        lanes = {
            event["args"]["key"]: event["tid"]
            for event in _job_slices(_chrome_trace(telemetry))
        }
        assert lanes == {"a": 0, "b": 1, "c": 0}


def _telemetry_with_jobs():
    telemetry = RunTelemetry(TelemetryConfig(enabled=True))
    telemetry.note_cached("cachedkey", "MIX_01/inclusive/none")
    telemetry.note_executed(
        "execkey",
        "MIX_10/inclusive/qbs",
        "done",
        attempts=1,
        start=0.0,
        end=1.5,
        telemetry={
            "recorded": 42,
            "counts": {"qbs_query": 42},
            "max_cycles": 20_000.0,
            "core_phases": [
                {"core": 0, "warmup_cycles": 5_000.0, "quota_cycles": 18_000.0},
                {"core": 1, "warmup_cycles": 4_000.0, "quota_cycles": 20_000.0},
            ],
        },
        host={"cpu_s": 1.2},
    )
    telemetry.note_executed(
        "failkey",
        "MIX_11/inclusive/eci",
        "failed",
        attempts=3,
        start=0.5,
        end=2.0,
        error="boom",
    )
    return telemetry


class TestChromeTrace:
    def test_sweep_lane_and_simulated_processes(self):
        telemetry = _telemetry_with_jobs()
        trace = _chrome_trace(telemetry)
        sweep_spans = _job_slices(trace)
        assert {span["pid"] for span in sweep_spans} == {0}
        # Cached jobs never appear as spans; both executed jobs do.
        assert {span["name"] for span in sweep_spans} == {
            "MIX_10/inclusive/qbs",
            "MIX_11/inclusive/eci",
        }
        qbs = next(s for s in sweep_spans if "qbs" in s["name"])
        assert qbs["ts"] == 0.0
        assert qbs["dur"] == 1.5e6  # seconds rendered as microseconds
        names = {
            event["pid"]: event["args"]["name"]
            for event in trace["traceEvents"]
            if event["name"] == "process_name"
        }
        assert names[0] == f"trace {telemetry.trace_id}"

    def test_traced_job_gets_per_core_phase_spans(self):
        trace = _chrome_trace(_telemetry_with_jobs())
        job_events = [
            event for event in trace["traceEvents"] if event["pid"] == 1
        ]
        phases = [event for event in job_events if event["ph"] == "X"]
        # Two cores x (warmup + measure).
        assert len(phases) == 4
        core1_measure = next(
            p for p in phases if p["tid"] == 1 and p["name"] == "measure"
        )
        assert core1_measure["ts"] == 4_000.0
        assert core1_measure["dur"] == 16_000.0
        threads = {
            event["tid"]: event["args"]["name"]
            for event in job_events
            if event["name"] == "thread_name"
        }
        assert threads == {0: "core 0", 1: "core 1"}
        # the untraced failed job has no simulated-cycle process
        assert {event["pid"] for event in trace["traceEvents"]} == {0, 1}

    def test_output_validates_against_pinned_schema(self):
        trace = _chrome_trace(_telemetry_with_jobs())
        assert check(trace, CHROME_TRACE_SCHEMA) == []

    def test_host_phase_sub_spans_nest_inside_the_job_span(self):
        telemetry = RunTelemetry(TelemetryConfig(enabled=True))
        telemetry.note_executed(
            "hostkey",
            "MIX_10/inclusive/none",
            "done",
            attempts=1,
            start=2.0,
            end=3.0,
            host={
                "wall_s": 0.9,
                "phases": {
                    "sim_loop": {"s": 0.2, "count": 1},
                    "l1_access": {"s": 0.6, "count": 40_000},
                    # no sample, but a count: a zero-width slice
                    "replacement": {"s": 0.0, "count": 12},
                    "idle_phase": {"s": 0.0, "count": 0},  # zero: dropped
                },
            },
        )
        trace = _chrome_trace(telemetry)
        host_spans = [
            event
            for event in trace["traceEvents"]
            if event.get("cat") == "phase" and event["pid"] == 0
        ]
        # Widest phase first, laid back to back from the job start.
        assert [span["name"] for span in host_spans] == [
            "l1_access", "sim_loop", "replacement",
        ]
        assert host_spans[0]["ts"] == 2.0e6
        assert host_spans[0]["dur"] == 0.6e6
        assert host_spans[1]["ts"] == 2.6e6
        assert host_spans[0]["args"]["count"] == 40_000
        assert host_spans[2]["dur"] == 0
        assert host_spans[2]["args"]["count"] == 12
        [job_span] = _job_slices(trace)
        # Same lane as the job, and contained within its span.
        assert {span["tid"] for span in host_spans} == {job_span["tid"]}
        total = sum(span["dur"] for span in host_spans)
        assert total <= job_span["dur"]
        assert check(trace, CHROME_TRACE_SCHEMA) == []


class TestWriteAndValidate:
    def test_write_emits_both_artefacts_and_they_validate(self, tmp_path):
        telemetry = _telemetry_with_jobs()
        telemetry.out_dir = tmp_path
        paths = telemetry.write(settings={"scale": 0.0625, "jobs": 2})
        assert validate_chrome_trace(paths["trace"]) == []
        assert validate_run_manifest(paths["manifest"]) == []
        manifest = json.loads(paths["manifest"].read_text())
        statuses = {job["key"]: job["status"] for job in manifest["jobs"]}
        assert statuses == {
            "cachedkey": "cached",
            "execkey": "done",
            "failkey": "failed",
        }
        executed = next(j for j in manifest["jobs"] if j["key"] == "execkey")
        assert executed["cpu_s"] == 1.2
        assert executed["events"] == 42
        failed = next(j for j in manifest["jobs"] if j["key"] == "failkey")
        assert failed["error"] == "boom"
        # the manifest's span ids name the job slices in trace.json
        trace = json.loads(paths["trace"].read_text())
        assert {job["span_id"] for job in manifest["jobs"] if "span_id" in job} == {
            event["args"]["span_id"] for event in _job_slices(trace)
        }

    def test_validate_dir_cli_helper(self, tmp_path):
        telemetry = _telemetry_with_jobs()
        telemetry.out_dir = tmp_path
        telemetry.write()
        write_events_jsonl(
            tmp_path / "events-k.jsonl", [TraceEvent(1.0, "llc_miss", 0, 1)]
        )
        assert validate_dir(tmp_path) == 0

    def test_validate_dir_flags_empty_and_broken_dirs(self, tmp_path):
        assert validate_dir(tmp_path) == 1
        (tmp_path / "trace.json").write_text('{"nope": 1}')
        assert validate_dir(tmp_path) >= 1
