"""Tracer: exact counts, filters, sampling, caps."""

from repro.telemetry import (
    EVENT_BACK_INVALIDATE,
    EVENT_LLC_MISS,
    EVENT_QBS_QUERY,
    Tracer,
)


class TestRecording:
    def test_events_recorded_in_emission_order(self):
        tracer = Tracer()
        tracer.emit(10.0, EVENT_LLC_MISS, core=0, line=0x40)
        tracer.emit(12.0, EVENT_BACK_INVALIDATE, core=1, line=0x80)
        assert [event.event for event in tracer.events] == [
            EVENT_LLC_MISS,
            EVENT_BACK_INVALIDATE,
        ]
        assert tracer.events[0].cycle == 10.0
        assert tracer.events[1].core == 1

    def test_counts_are_exact(self):
        tracer = Tracer()
        for _ in range(7):
            tracer.emit(0.0, EVENT_LLC_MISS)
        for _ in range(3):
            tracer.emit(0.0, EVENT_QBS_QUERY)
        assert tracer.count(EVENT_LLC_MISS) == 7
        assert tracer.count(EVENT_QBS_QUERY) == 3
        assert tracer.count(EVENT_BACK_INVALIDATE) == 0
        assert tracer.total_events() == 10


class TestCategoryFilter:
    def test_filter_thins_recorded_but_not_counts(self):
        tracer = Tracer(categories=("tla",))
        tracer.emit(0.0, EVENT_LLC_MISS)  # category "llc": filtered
        tracer.emit(1.0, EVENT_QBS_QUERY)  # category "tla": kept
        assert [event.event for event in tracer.events] == [EVENT_QBS_QUERY]
        # Exact aggregates survive the filter.
        assert tracer.count(EVENT_LLC_MISS) == 1


class TestSampling:
    def test_one_in_n_keeps_first_of_each_stride(self):
        tracer = Tracer(sample=4)
        for cycle in range(10):
            tracer.emit(float(cycle), EVENT_LLC_MISS)
        # Eligible events 1, 5, 9 (1-in-4 stride starting at the first).
        assert [event.cycle for event in tracer.events] == [0.0, 4.0, 8.0]
        assert tracer.sampled_out == 7
        assert tracer.count(EVENT_LLC_MISS) == 10

    def test_sampling_is_deterministic(self):
        def run():
            tracer = Tracer(sample=3)
            for cycle in range(50):
                tracer.emit(float(cycle), EVENT_LLC_MISS, line=cycle)
            return tracer.events

        assert run() == run()


class TestMaxEvents:
    def test_cap_drops_but_still_counts(self):
        tracer = Tracer(max_events=5)
        for cycle in range(8):
            tracer.emit(float(cycle), EVENT_LLC_MISS)
        assert len(tracer.events) == 5
        assert tracer.dropped == 3
        assert tracer.count(EVENT_LLC_MISS) == 8


class TestSummary:
    def test_summary_is_compact_and_complete(self):
        tracer = Tracer(sample=2, max_events=2)
        for cycle in range(6):
            tracer.emit(float(cycle), EVENT_LLC_MISS)
        summary = tracer.summary()
        assert summary == {
            "counts": {EVENT_LLC_MISS: 6},
            "recorded": 2,
            "dropped": 1,
            "sampled_out": 3,
        }
