"""End-to-end traced smoke run: the ISSUE's acceptance criteria.

One sanitized-size 2-core QBS simulation runs twice — once traced,
once plain — pinning that (a) tracing perturbs nothing, (b) the traced
run emits schema-valid artefacts, (c) the interval series reproduces
the aggregate Section V.B rate exactly, and (d) telemetry stays out of
the cache identity and cache bytes of untraced runs.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.config import tla_preset
from repro.orchestrate import ResultCache, SimJob, execute_job, job_key
from repro.telemetry.schema import validate_events_jsonl

SCALE = 0.0625
QUOTA = 40_000
WARMUP = 10_000


def _job(**overrides):
    fields = dict(
        mix_name="MIX_10",
        apps=("lib", "sje"),
        mode="inclusive",
        tla="qbs",
        tla_config=tla_preset("qbs"),
        scale=SCALE,
        quota=QUOTA,
        warmup=WARMUP,
    )
    fields.update(overrides)
    return SimJob(**fields)


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("traces")


@pytest.fixture(scope="module")
def traced(trace_dir):
    job = _job(trace=True, trace_out=str(trace_dir))
    return job, execute_job(job)


@pytest.fixture(scope="module")
def plain():
    job = _job()
    return job, execute_job(job)


class TestNoPerturbation:
    def test_traced_run_statistics_identical_to_plain(self, traced, plain):
        _, with_trace = traced
        _, without = plain
        assert with_trace.ipcs == without.ipcs
        assert with_trace.traffic == without.traffic
        assert with_trace.llc_misses == without.llc_misses
        assert with_trace.inclusion_victims == without.inclusion_victims
        assert with_trace.max_cycles == without.max_cycles

    def test_plain_run_carries_no_telemetry(self, plain):
        _, summary = plain
        assert summary.intervals is None
        assert summary.telemetry is None


class TestTracedArtefacts:
    def test_qbs_events_were_traced(self, traced):
        _, summary = traced
        counts = summary.telemetry["counts"]
        assert counts["qbs_query"] > 0
        assert counts["llc_miss"] > 0
        assert summary.telemetry["recorded"] > 0

    def test_events_jsonl_written_and_schema_valid(self, traced, trace_dir):
        job, summary = traced
        path = trace_dir / f"events-{job_key(job)}.jsonl"
        assert str(path) == summary.host["events_path"]
        assert path.exists()
        assert validate_events_jsonl(path) == []

    def test_event_cycles_are_simulated_time(self, traced):
        _, summary = traced
        path = summary.host["events_path"]
        with open(path, encoding="utf-8") as handle:
            cycles = [json.loads(line)["cycle"] for line in handle]
        assert cycles
        assert max(cycles) <= summary.max_cycles


class TestIntervalAcceptance:
    def test_interval_series_spans_the_whole_run(self, traced):
        _, summary = traced
        series = summary.interval_series()
        assert series.total_cycles == summary.max_cycles

    def test_mean_window_rate_equals_aggregate_rate(self, traced):
        """The ISSUE's pinned criterion: the per-1000-cycle
        back-invalidate-class series means out to exactly the
        aggregate-counter computation."""
        _, summary = traced
        series = summary.interval_series()
        aggregate = (
            1000.0
            * (
                summary.traffic["back_invalidate"]
                + summary.traffic["eci_invalidate"]
            )
            / summary.max_cycles
        )
        assert series.mean_back_invalidate_class_per_kcycle() == pytest.approx(
            aggregate, rel=1e-12
        )

    def test_window_sums_equal_aggregate_counters(self, traced):
        _, summary = traced
        series = summary.interval_series()
        for key in ("back_invalidate", "qbs_query", "llc_request"):
            assert series.total(key) == summary.traffic[key]
        assert series.total("inclusion_victims") == summary.inclusion_victims


class TestCacheIdentity:
    def test_telemetry_knobs_do_not_touch_untraced_keys(self):
        job = _job()
        explicit_defaults = dataclasses.replace(
            job, intervals=0, trace=False, trace_sample=1, trace_categories=()
        )
        assert job_key(job) == job_key(explicit_defaults)

    def test_traced_runs_cache_under_their_own_key(self):
        assert job_key(_job()) != job_key(_job(trace=True))
        assert job_key(_job()) != job_key(_job(intervals=5_000))

    def test_trace_out_is_not_identity(self):
        assert job_key(_job(trace=True, trace_out="a")) == job_key(
            _job(trace=True, trace_out="b")
        )

    def test_untraced_cache_entries_have_no_telemetry_keys(
        self, plain, tmp_path
    ):
        job, summary = plain
        cache = ResultCache(str(tmp_path))
        cache.store(job_key(job), summary)
        data = json.loads(cache.path_for(job_key(job)).read_text())
        assert "intervals" not in data
        assert "telemetry" not in data

    def test_traced_reruns_store_identical_bytes(self, traced, tmp_path):
        """CPU time and the event log's path are host provenance, not
        simulated output: a second traced run of the job, logging
        elsewhere, stores the same bytes under the same key."""
        job, first = traced
        rerun = dataclasses.replace(job, trace_out=str(tmp_path / "elsewhere"))
        assert job_key(rerun) == job_key(job)
        second = execute_job(rerun)
        entries = []
        for name, summary in (("one", first), ("two", second)):
            cache = ResultCache(str(tmp_path / name))
            cache.store(job_key(job), summary)
            entries.append(cache.path_for(job_key(job)).read_bytes())
        assert entries[0] == entries[1]
        for run, summary in ((job, first), (rerun, second)):
            path = Path(run.trace_out) / f"events-{job_key(job)}.jsonl"
            assert summary.host["events_path"] == str(path)
            assert path.exists()
