"""PhaseTimer unit tests with an injected deterministic clock."""

import pytest

from repro.errors import SimulationError
from repro.perf import (
    ORCHESTRATOR_PHASES,
    SIMULATOR_PHASES,
    PhaseTimer,
    merge_phase_reports,
)


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


class TestExclusiveAttribution:
    def test_flat_phase(self, clock):
        timer = PhaseTimer(clock=clock)
        timer.enter("a")
        clock.advance(2.0)
        timer.exit()
        assert timer.totals["a"] == pytest.approx(2.0)
        assert timer.counts["a"] == 1

    def test_nested_time_goes_to_innermost(self, clock):
        timer = PhaseTimer(clock=clock)
        timer.enter("outer")
        clock.advance(1.0)
        timer.enter("inner")
        clock.advance(3.0)
        timer.exit()
        clock.advance(0.5)
        timer.exit()
        # Exclusive: the outer phase is charged only its own 1.5s.
        assert timer.totals["outer"] == pytest.approx(1.5)
        assert timer.totals["inner"] == pytest.approx(3.0)

    def test_totals_sum_to_measured_span(self, clock):
        timer = PhaseTimer(clock=clock)
        timer.enter("a")
        clock.advance(1.0)
        timer.enter("b")
        clock.advance(2.0)
        timer.enter("c")
        clock.advance(4.0)
        timer.exit()
        clock.advance(8.0)
        timer.exit()
        clock.advance(16.0)
        timer.exit()
        # Every moment between first enter and final exit is charged
        # to exactly one phase.
        assert sum(timer.totals.values()) == pytest.approx(31.0)

    def test_reentering_a_phase_accumulates(self, clock):
        timer = PhaseTimer(clock=clock)
        for _ in range(3):
            timer.enter("hot")
            clock.advance(1.0)
            timer.exit()
            clock.advance(10.0)  # outside any phase: unattributed
        assert timer.totals["hot"] == pytest.approx(3.0)
        assert timer.counts["hot"] == 3
        assert sum(timer.totals.values()) == pytest.approx(3.0)

    def test_depth_tracks_nesting(self, clock):
        timer = PhaseTimer(clock=clock)
        assert timer.depth == 0
        timer.enter("a")
        timer.enter("b")
        assert timer.depth == 2
        timer.exit()
        assert timer.depth == 1

    def test_exit_without_enter_raises(self, clock):
        timer = PhaseTimer(clock=clock)
        with pytest.raises(SimulationError):
            timer.exit()

    def test_unknown_phase_total_is_zero(self, clock):
        assert PhaseTimer(clock=clock).totals["never"] == 0.0


class TestContextManager:
    def test_phase_context_enters_and_exits(self, clock):
        timer = PhaseTimer(clock=clock)
        with timer.phase("scoped"):
            clock.advance(2.5)
        assert timer.totals["scoped"] == pytest.approx(2.5)
        assert timer.depth == 0

    def test_phase_context_exits_on_exception(self, clock):
        timer = PhaseTimer(clock=clock)
        with pytest.raises(ValueError):
            with timer.phase("scoped"):
                clock.advance(1.0)
                raise ValueError("boom")
        assert timer.depth == 0
        assert timer.totals["scoped"] == pytest.approx(1.0)


class TestReport:
    def test_report_shape(self, clock):
        timer = PhaseTimer(clock=clock)
        timer.enter("b")
        clock.advance(1.0)
        timer.exit()
        timer.enter("a")
        clock.advance(2.0)
        timer.exit()
        report = timer.report()
        assert list(report) == ["a", "b"]  # sorted for stable artifacts
        assert report["a"] == {"s": pytest.approx(2.0), "count": 1}
        assert report["b"] == {"s": pytest.approx(1.0), "count": 1}

    def test_phase_name_constants_are_disjoint(self):
        assert not set(SIMULATOR_PHASES) & set(ORCHESTRATOR_PHASES)


class TestMergePhaseReports:
    def test_merge_sums_seconds_and_counts(self):
        merged = merge_phase_reports(
            [
                {"a": {"s": 1.0, "count": 2}},
                {"a": {"s": 0.5, "count": 1}, "b": {"s": 3.0, "count": 4}},
            ]
        )
        assert merged == {
            "a": {"s": 1.5, "count": 3},
            "b": {"s": 3.0, "count": 4},
        }

    def test_merge_skips_none_and_empty(self):
        merged = merge_phase_reports([None, {}, {"a": {"s": 1.0, "count": 1}}])
        assert merged == {"a": {"s": 1.0, "count": 1}}

    def test_merge_of_nothing_is_empty(self):
        assert merge_phase_reports([]) == {}
