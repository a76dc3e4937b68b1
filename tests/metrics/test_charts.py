"""Unit tests for the ASCII chart helpers."""

from repro.config import HierarchyConfig, TLAConfig
from repro.metrics import (
    describe_hierarchy,
    format_barchart,
    format_grouped_barchart,
)


class TestBarchart:
    def test_empty(self):
        assert format_barchart({}) == "(no data)"
        assert format_barchart({}, title="T") == "T"

    def test_positive_bars_right_of_axis(self):
        out = format_barchart({"qbs": 1.05}, baseline=1.0)
        line = out.splitlines()[-1]
        assert "+" in line
        assert line.index("|") < line.index("+")

    def test_negative_bars_left_of_axis(self):
        out = format_barchart({"bad": 0.95}, baseline=1.0)
        line = out.splitlines()[-1]
        assert "-" in line
        assert line.index("-") < line.index("|")

    def test_values_printed(self):
        out = format_barchart({"a": 1.234}, fmt="{:.2f}")
        assert "1.23" in out

    def test_scaling_is_relative(self):
        out = format_barchart({"big": 1.2, "small": 1.1}, baseline=1.0)
        big_line, small_line = out.splitlines()
        assert big_line.count("+") > small_line.count("+")

    def test_grouped(self):
        out = format_grouped_barchart(
            {"MIX_10": {"qbs": 1.1}, "MIX_01": {"qbs": 1.0}},
            title="Fig",
        )
        assert out.splitlines()[0] == "Fig"
        assert "[MIX_10]" in out
        assert "[MIX_01]" in out


class TestDescribeHierarchy:
    def test_baseline_description(self):
        text = describe_hierarchy(HierarchyConfig())
        assert "cores=2" in text
        assert "LLC=2048KB/16w (nru)" in text
        assert "core:LLC=1:3.2" in text

    def test_tla_mentioned(self):
        config = HierarchyConfig(tla=TLAConfig(policy="qbs", levels=("il1",)))
        assert "TLA=qbs(il1)" in describe_hierarchy(config)

    def test_victim_cache_mentioned(self):
        config = HierarchyConfig(victim_cache_entries=32)
        assert "victim cache=32 entries" in describe_hierarchy(config)
