"""Prometheus text exposition: renderer and CI checker agree."""

import pytest

from repro.obs import MetricsRegistry, check_exposition, render_registry


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    reg.counter("repro_req_total", "Requests.", ["route", "tenant"]).inc(
        3, route="GET /x", tenant="a"
    )
    reg.gauge("repro_depth", "Queue depth.").set(7)
    h = reg.histogram("repro_lat_seconds", "Latency.", buckets=[0.1, 1])
    h.observe(0.05)
    h.observe(0.5)
    h.observe(5.0)
    return reg


class TestRender:
    def test_families_have_help_and_type(self, registry):
        text = render_registry(registry)
        assert "# HELP repro_req_total Requests." in text
        assert "# TYPE repro_req_total counter" in text
        assert "# TYPE repro_lat_seconds histogram" in text

    def test_counter_sample_with_labels(self, registry):
        text = render_registry(registry)
        assert 'repro_req_total{route="GET /x",tenant="a"} 3' in text

    def test_histogram_buckets_are_cumulative(self, registry):
        text = render_registry(registry)
        assert 'repro_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="1"} 2' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_lat_seconds_count 3" in text
        assert "repro_lat_seconds_sum 5.55" in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", "x", ["p"]).inc(p='a"b\\c\nd')
        text = render_registry(reg)
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        assert check_exposition(text) == []

    def test_rendered_output_passes_checker(self, registry):
        assert check_exposition(render_registry(registry)) == []


class TestChecker:
    def test_bad_metric_name(self):
        assert check_exposition("9bad_name 1\n")

    def test_sample_without_type(self):
        problems = check_exposition("repro_x_total 1\n")
        assert any("TYPE" in p for p in problems)

    def test_non_cumulative_buckets_flagged(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            'repro_h_bucket{le="2"} 3\n'
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_sum 1\n"
            "repro_h_count 5\n"
        )
        assert any("cumulative" in p for p in check_exposition(text))

    def test_missing_inf_bucket_flagged(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            "repro_h_sum 1\n"
            "repro_h_count 5\n"
        )
        assert any("+Inf" in p for p in check_exposition(text))

    def test_count_disagreeing_with_inf_flagged(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_sum 1\n"
            "repro_h_count 7\n"
        )
        assert any("_count" in p for p in check_exposition(text))

    def test_unparseable_value_flagged(self):
        assert check_exposition(
            "# TYPE repro_x counter\nrepro_x not-a-number\n"
        )

    def test_inf_and_nan_values_accepted(self):
        text = (
            "# TYPE repro_x gauge\n"
            "repro_x{a=\"i\"} +Inf\n"
            "repro_x{a=\"n\"} NaN\n"
        )
        assert check_exposition(text) == []
