"""The labeled metrics registry: counters, gauges, histograms.

The histogram correctness tests pin the quantile math with data placed
exactly on bucket boundaries, where linear interpolation is exact —
the dashboard's p50/p99 numbers are only as good as these invariants.
"""

import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    quantile_from_buckets,
)


class TestCounter:
    def test_inc_and_value_per_label_set(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total", "x", ["tenant"])
        c.inc(tenant="a")
        c.inc(2, tenant="a")
        c.inc(tenant="b")
        assert c.value(tenant="a") == 3
        assert c.value(tenant="b") == 1
        assert c.value(tenant="missing") == 0
        assert c.total() == 4

    def test_sum_by_groups_series_on_the_named_labels(self):
        c = MetricsRegistry().counter(
            "repro_x_total", "x", ["route", "status", "tenant"]
        )
        c.inc(route="GET /a", status=200, tenant="t1")
        c.inc(2, route="GET /a", status=200, tenant="t2")
        c.inc(route="GET /a", status=404, tenant="t1")
        assert c.sum_by("route", "status") == {
            "GET /a 200": 3, "GET /a 404": 1,
        }
        assert c.sum_by("tenant") == {"t1": 2, "t2": 2}
        assert c.sum_by() == {"": 4}

    def test_counters_only_go_up(self):
        c = MetricsRegistry().counter("repro_x_total", "x")
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_undeclared_label_rejected(self):
        c = MetricsRegistry().counter("repro_x_total", "x", ["tenant"])
        with pytest.raises(ConfigurationError):
            c.inc(tenant="a", route="nope")
        with pytest.raises(ConfigurationError):
            c.inc()  # missing the declared label

    def test_concurrent_increments_lose_nothing(self):
        c = MetricsRegistry().counter("repro_x_total", "x", ["t"])

        def spin():
            for _ in range(1000):
                c.inc(t="a")

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value(t="a") == 4000


class TestGauge:
    def test_set_add_value(self):
        g = MetricsRegistry().gauge("repro_depth", "d")
        g.set(5)
        g.add(-2)
        assert g.value() == 3


class TestHistogram:
    def test_bucket_counts_sum_to_observations(self):
        h = MetricsRegistry().histogram(
            "repro_h_seconds", "h", buckets=[1, 2, 5]
        )
        values = [0.5, 1.0, 1.5, 2.0, 3.0, 10.0, 100.0]
        for v in values:
            h.observe(v)
        series = h.series()
        assert sum(series["counts"]) == len(values) == series["count"]
        assert series["sum"] == pytest.approx(sum(values))

    def test_overflow_lands_in_inf_bucket(self):
        h = MetricsRegistry().histogram(
            "repro_h_seconds", "h", buckets=[1, 2]
        )
        h.observe(99)
        # counts has one slot per bound plus the +Inf overflow slot.
        assert h.series()["counts"] == [0, 0, 1]

    def test_boundary_value_goes_to_lower_bucket(self):
        h = MetricsRegistry().histogram(
            "repro_h_seconds", "h", buckets=[1, 2]
        )
        h.observe(1.0)  # le="1" is inclusive, Prometheus-style
        assert h.series()["counts"] == [1, 0, 0]

    def test_quantile_exact_on_boundary_data(self):
        # 50 observations at 1.0 and 50 at 2.0: the p50 rank lands
        # exactly at the top of the first bucket and the p100 rank at
        # the top of the second, so interpolation recovers the
        # boundaries with no error.
        h = MetricsRegistry().histogram(
            "repro_h_seconds", "h", buckets=[1, 2]
        )
        for _ in range(50):
            h.observe(1.0)
            h.observe(2.0)
        assert h.quantile(0.5) == pytest.approx(1.0)
        assert h.quantile(1.0) == pytest.approx(2.0)

    def test_quantile_interpolates_within_bucket(self):
        # 50 in (0,1], 50 in (1,2] → p50 = 1.0 and p75 halfway into
        # the second bucket.
        assert quantile_from_buckets([1, 2], [50, 50, 0], 0.5) == (
            pytest.approx(1.0)
        )
        assert quantile_from_buckets([1, 2], [50, 50, 0], 0.75) == (
            pytest.approx(1.5)
        )

    def test_quantile_overflow_clamps_to_last_bound(self):
        assert quantile_from_buckets([1, 2], [0, 0, 10], 0.5) == 2.0

    def test_quantile_empty_and_bad_q(self):
        # An empty histogram has no quantiles: None, not a fake 0.0.
        assert quantile_from_buckets([1], [0, 0], 0.5) is None
        # No buckets at all must not crash either.
        assert quantile_from_buckets([], [5], 0.5) is None
        h = MetricsRegistry().histogram("repro_h_seconds", "h")
        assert h.quantile(0.5) is None
        with pytest.raises(ConfigurationError):
            quantile_from_buckets([1], [1, 0], 1.5)

    def test_bad_buckets_rejected(self):
        reg = MetricsRegistry()
        for bad in ([], [2, 1], [1, 1]):
            with pytest.raises(ConfigurationError):
                reg.histogram(f"repro_h{len(bad)}_seconds", "h", buckets=bad)

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))


class TestRegistry:
    def test_identical_redeclaration_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_x_total", "x", ["t"])
        b = reg.counter("repro_x_total", "x", ["t"])
        assert a is b

    def test_conflicting_redeclaration_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", "x", ["t"])
        with pytest.raises(ConfigurationError):
            reg.gauge("repro_x_total", "x", ["t"])
        with pytest.raises(ConfigurationError):
            reg.counter("repro_x_total", "x", ["other"])

    def test_to_dict_shape(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", "x", ["t"]).inc(t="a")
        reg.histogram("repro_h_seconds", "h", buckets=[1]).observe(0.5)
        data = reg.to_dict()
        assert data["repro_x_total"]["samples"] == [
            {"labels": {"t": "a"}, "value": 1.0}
        ]
        assert data["repro_h_seconds"]["buckets"] == [1.0]
        assert data["repro_h_seconds"]["samples"][0]["counts"] == [1, 0]
