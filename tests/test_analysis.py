"""Tests for the analysis sinks (victim forensics, set pressure)."""

import dataclasses
import hashlib

import pytest

from repro import CMPSimulator, SimConfig, baseline_hierarchy
from repro.analysis import SetPressureProfiler, VictimReuseAnalyzer
from repro.hierarchy import build_hierarchy
from repro.telemetry import Tracer
from repro.workloads import mix_by_name
from tests.conftest import tiny_hierarchy

LINE = 64


def addr(line: int) -> int:
    return line * LINE


def hot_line_scenario(sink=None):
    """The canonical victim loop: hot line 8 vs a stream in LLC set 0."""
    h = build_hierarchy(tiny_hierarchy("inclusive", num_cores=1))
    h.tracer = sink
    h.access(0, addr(8))
    for i in range(2, 120):
        h.access(0, addr(i * 8))
        h.access(0, addr(8))
    return h


class TestVictimReuseAnalyzer:
    def test_counts_match_hierarchy(self):
        analyzer = VictimReuseAnalyzer()
        h = hot_line_scenario(analyzer)
        analyzer.finalize()
        assert analyzer.total_victims == h.total_inclusion_victims

    def test_hot_line_victims_are_harmful(self):
        analyzer = VictimReuseAnalyzer()
        hot_line_scenario(analyzer)
        analyzer.finalize()
        harmful_lines = {r.line_addr for r in analyzer.harmful_victims}
        assert 8 in harmful_lines  # the hot line bounced back

    def test_dead_victims_detected(self):
        """A phase change leaves stale core-resident lines: victims
        that never bounce back (harmless evictions)."""
        from repro.access import AccessType

        analyzer = VictimReuseAnalyzer()
        h = build_hierarchy(tiny_hierarchy("inclusive", num_cores=1))
        h.tracer = analyzer
        # Phase 1: a code loop becomes L1I-resident...
        code_lines = (8, 16, 24, 32)
        for _ in range(4):
            for line in code_lines:
                h.access(0, addr(line), AccessType.IFETCH)
        # Phase 2: ...the program moves on; a data stream thrashes
        # the same LLC sets.  The code lines are victimised (still
        # L1I-resident) but never fetched again: dead victims.
        for i in range(5, 200):
            h.access(0, addr(i * 8))
        analyzer.finalize()
        assert analyzer.total_victims > 0
        dead_lines = {r.line_addr for r in analyzer.dead_victims}
        assert dead_lines & set(code_lines)

    def test_refetch_distance_histogram(self):
        analyzer = VictimReuseAnalyzer()
        hot_line_scenario(analyzer)
        analyzer.finalize()
        histogram = analyzer.refetch_distance_histogram(bucket=8)
        assert sum(histogram.values()) == len(analyzer.harmful_victims)
        # The hot line is re-fetched promptly: small buckets dominate.
        if histogram:
            assert min(histogram) <= 8

    def test_victims_per_core(self):
        analyzer = VictimReuseAnalyzer()
        hot_line_scenario(analyzer)
        analyzer.finalize()
        per_core = analyzer.victims_per_core()
        assert set(per_core) == {0}

    def test_summary_keys(self):
        analyzer = VictimReuseAnalyzer()
        hot_line_scenario(analyzer)
        analyzer.finalize()
        summary = analyzer.summary()
        assert summary["total_victims"] > 0
        assert 0.0 <= summary["harmful_fraction"] <= 1.0


class TestSetPressureProfiler:
    def test_pressure_lands_on_thrashed_set(self):
        h = build_hierarchy(tiny_hierarchy("inclusive", num_cores=1))
        profiler = SetPressureProfiler(h.llc)
        h.tracer = profiler
        for i in range(120):
            h.access(0, addr(i * 8))  # everything in LLC set 0
        assert profiler.hottest_sets(1) == [0]
        assert profiler.evictions_per_set[0] == profiler.total_evictions
        assert profiler.pressure_skew() == float(h.llc.num_sets)

    def test_uniform_stream_spreads_pressure(self):
        h = build_hierarchy(tiny_hierarchy("inclusive", num_cores=1))
        profiler = SetPressureProfiler(h.llc)
        h.tracer = profiler
        for i in range(2000):
            h.access(0, addr(i))
        assert profiler.total_fills >= 2000 - h.llc.config.num_lines
        assert profiler.pressure_skew() < 2.0

    def test_no_events_before_eviction_pressure(self):
        h = build_hierarchy(tiny_hierarchy("inclusive", num_cores=1))
        profiler = SetPressureProfiler(h.llc)
        h.tracer = profiler
        h.access(0, addr(0))
        assert profiler.total_fills == 1
        assert profiler.total_evictions == 0

    def test_observers_do_not_change_behaviour(self):
        plain = hot_line_scenario()
        observed = hot_line_scenario(VictimReuseAnalyzer())
        assert (
            plain.total_inclusion_victims == observed.total_inclusion_victims
        )
        assert plain.llc.stats.fills == observed.llc.stats.fills


# -- equivalence with the retired observer hooks ------------------------------

SCALE = 0.0625
QUOTA = 40_000
WARMUP = 40_000


def _digest(values) -> str:
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()[:16]


#: victim-cache entries -> what the analyzers reported for MIX_10 at the
#: settings above when they were hierarchy observers notified from
#: ``_fill_llc`` and ``_back_invalidate``.  ``records`` and the per-set
#: digests hash every victim record and every per-set count.
PINNED = {
    0: {
        "summary": {
            "total_victims": 127.0,
            "harmful_victims": 81.0,
            "harmful_fraction": 81 / 127,
            "median_refetch_distance": 5.0,
        },
        "per_core": {0: 15, 1: 112},
        "histogram": {
            0: 61, 64: 1, 128: 1, 192: 3, 256: 6, 384: 1, 448: 2, 512: 1,
            704: 1, 768: 2, 896: 1, 1024: 1,
        },
        "records": "d212dd4e30808c0b",
        "fills_per_set": "2638da8b2e5ad559",
        "evictions_per_set": "469d4cdcc9a94cd5",
        "rescues": 0,
    },
    32: {
        "summary": {
            "total_victims": 127.0,
            "harmful_victims": 80.0,
            "harmful_fraction": 80 / 127,
            "median_refetch_distance": 4.0,
        },
        "per_core": {0: 15, 1: 112},
        "histogram": {
            0: 62, 64: 3, 128: 5, 192: 1, 256: 1, 320: 2, 448: 1, 576: 1,
            640: 2, 768: 1, 960: 1,
        },
        "records": "9989e3cde2f06379",
        "fills_per_set": "63fc4537a6ba0611",
        "evictions_per_set": "583f2ad3ee87cfc9",
        "rescues": 62,
    },
}


class _Tee:
    """Fans one hierarchy's events out to several sinks."""

    def __init__(self, *sinks):
        self.sinks = sinks

    def emit(self, *args, **kwargs):
        for sink in self.sinks:
            sink.emit(*args, **kwargs)


@pytest.fixture(scope="module", params=sorted(PINNED))
def mix10_run(request):
    """One MIX_10 run with live analyzers and a full event recording."""
    entries = request.param
    reference = baseline_hierarchy(2, scale=SCALE)
    config = SimConfig(
        hierarchy=dataclasses.replace(
            baseline_hierarchy(2, scale=SCALE), victim_cache_entries=entries
        ),
        instruction_quota=QUOTA,
        warmup_instructions=WARMUP,
    )
    hierarchy = build_hierarchy(config.hierarchy)
    analyzer = VictimReuseAnalyzer()
    profiler = SetPressureProfiler(hierarchy.llc)
    tracer = Tracer(categories=("llc", "inclusion"))
    hierarchy.tracer = _Tee(analyzer, profiler, tracer)
    CMPSimulator(
        config, mix_by_name("MIX_10").traces(reference), hierarchy=hierarchy
    ).run()
    analyzer.finalize()
    return entries, hierarchy, analyzer, profiler, tracer


def _replayed(hierarchy, tracer):
    analyzer = VictimReuseAnalyzer()
    profiler = SetPressureProfiler(hierarchy.llc)
    for event in tracer.events:
        analyzer.emit(*event)
        profiler.emit(*event)
    analyzer.finalize()
    return analyzer, profiler


def _assert_pinned(pinned, hierarchy, analyzer, profiler):
    assert analyzer.summary() == pinned["summary"]
    assert dict(analyzer.victims_per_core()) == pinned["per_core"]
    assert dict(analyzer.refetch_distance_histogram(64)) == pinned["histogram"]
    assert _digest(
        (r.line_addr, r.core_id, r.victimised_at_fill, r.refetched_at_fill)
        for r in analyzer.records
    ) == pinned["records"]
    assert _digest(profiler.fills_per_set) == pinned["fills_per_set"]
    assert _digest(profiler.evictions_per_set) == pinned["evictions_per_set"]
    assert analyzer.total_victims == hierarchy.total_inclusion_victims
    assert profiler.total_fills == hierarchy.llc.stats.fills
    assert profiler.total_evictions == hierarchy.llc.stats.evictions


class TestObserverEquivalence:
    """Live sinks and replayed logs reproduce the observer-era results,
    on the plain inclusive LLC and on its victim-cache rescue path."""

    def test_run_exercises_victims_and_rescues(self, mix10_run):
        entries, hierarchy, _, _, tracer = mix10_run
        assert hierarchy.total_inclusion_victims > 0
        assert tracer.count("victim_cache_rescue") == PINNED[entries]["rescues"]

    def test_live_sink_matches_pinned(self, mix10_run):
        entries, hierarchy, analyzer, profiler, _ = mix10_run
        _assert_pinned(PINNED[entries], hierarchy, analyzer, profiler)

    def test_replayed_log_matches_pinned(self, mix10_run):
        entries, hierarchy, _, _, tracer = mix10_run
        assert tracer.dropped == tracer.sampled_out == 0
        _assert_pinned(PINNED[entries], hierarchy, *_replayed(hierarchy, tracer))
