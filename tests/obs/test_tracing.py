"""SpanBook semantics: ids, nesting, bounds, exports, disabled-is-free."""

import io
import json

from repro.obs import (
    SpanBook,
    new_span_id,
    new_trace_id,
    parse_trace_header,
    span_tree,
    spans_to_chrome_trace,
)


def assert_lanes_nest(doc, slack_us=1.0):
    """Every Chrome thread of ``doc`` holds properly nested slices,
    up to ``slack_us`` of µs rounding."""
    lanes = {}
    for event in doc["traceEvents"]:
        if event["ph"] == "X":
            lanes.setdefault((event["pid"], event["tid"]), []).append(event)
    for lane, slices in lanes.items():
        open_ends = []
        for event in sorted(slices, key=lambda e: (e["ts"], -e["dur"])):
            while open_ends and open_ends[-1] <= event["ts"] + slack_us:
                open_ends.pop()
            end = event["ts"] + event["dur"]
            assert not open_ends or end <= open_ends[-1] + slack_us, (
                f"{event['name']} overlaps an open slice on lane {lane}"
            )
            open_ends.append(end)


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t

    def tick(self, dt=1.0):
        self.t += dt


class TestIds:
    def test_id_shapes(self):
        assert len(new_trace_id()) == 32
        assert len(new_span_id()) == 16
        int(new_trace_id(), 16)  # hex

    def test_parse_trace_header(self):
        good = "AB" * 16
        assert parse_trace_header(good) == good.lower()
        assert parse_trace_header(f"  {good}  ") == good.lower()
        for bad in (None, "", "short", "zz" * 16, "ab" * 17):
            assert parse_trace_header(bad) is None


class TestSpanBook:
    def test_begin_end_records_with_relative_times(self):
        clock = FakeClock()
        book = SpanBook(clock=clock)
        trace = new_trace_id()
        span = book.begin("ingress", trace, kind="server", tenant="a")
        clock.tick(2.0)
        book.end(span, status=200)
        [recorded] = book.snapshot()
        assert recorded.start == 0.0
        assert recorded.end == 2.0
        assert recorded.duration == 2.0
        assert recorded.attrs == {"tenant": "a", "status": 200}

    def test_open_spans_are_not_in_the_book(self):
        book = SpanBook()
        book.begin("open", new_trace_id())
        assert len(book) == 0

    def test_none_attrs_are_dropped(self):
        book = SpanBook()
        span = book.begin("s", new_trace_id(), tenant=None)
        book.end(span, status=None)
        assert book.snapshot()[0].attrs == {}

    def test_parent_child_nesting(self):
        book = SpanBook()
        trace = new_trace_id()
        parent = book.begin("parent", trace)
        child = book.begin("child", trace, parent_id=parent.span_id)
        book.end(child)
        book.end(parent)
        tree = span_tree(book.snapshot(trace))
        assert [s.name for s in tree[None]] == ["parent"]
        assert [s.name for s in tree[parent.span_id]] == ["child"]

    def test_add_records_pretimed_span(self):
        book = SpanBook()
        trace = new_trace_id()
        span = book.add("phase", trace, start=1.0, end=3.5, kind="phase")
        assert span.duration == 2.5
        assert book.snapshot(trace)[0].name == "phase"

    def test_capacity_drops_newest_and_counts(self):
        book = SpanBook(max_spans=2)
        trace = new_trace_id()
        for index in range(4):
            book.end(book.begin(f"s{index}", trace))
        assert len(book) == 2
        assert book.dropped == 2
        assert [s.name for s in book.snapshot()] == ["s0", "s1"]

    def test_snapshot_filters_by_trace_and_pop_removes(self):
        book = SpanBook()
        keep, take = new_trace_id(), new_trace_id()
        book.end(book.begin("a", keep))
        root = book.begin("b", take)
        book.end(book.begin("c", take, parent_id=root.span_id))
        book.end(root)
        assert [s.name for s in book.snapshot(take)] == ["b", "c"]
        popped = book.pop_tree(root.span_id)
        assert [s.name for s in popped] == ["b", "c"]
        assert [s.name for s in book.snapshot()] == ["a"]

    def test_pop_tree_leaves_a_sibling_tree_of_the_same_trace(self):
        """Two sweeps may share a client's trace id; exporting one
        must not take the other's spans."""
        book = SpanBook()
        trace = new_trace_id()
        first, second = book.begin("first", trace), book.begin("second", trace)
        for parent in (first, second):
            book.end(book.begin("child", trace, parent_id=parent.span_id))
            book.end(parent)
        assert len(book.pop_tree(first.span_id)) == 2
        assert {s.parent_id for s in book.snapshot()} == {None, second.span_id}

    def test_add_phases_widest_first_back_to_back(self):
        """A phase no sample landed in keeps its count as a zero-width
        span; only a phase with neither seconds nor count is dropped."""
        clock = FakeClock()
        book = SpanBook(clock=clock)
        parent = book.begin("execute", new_trace_id())
        clock.tick(1.0)
        book.end(parent)
        book.add_phases(
            parent,
            {
                "sim_loop": {"s": 0.25, "count": 1},
                "l1_access": {"s": 0.5, "count": 9},
                "replacement": {"s": 0.0, "count": 7},
                "back_invalidate": {"s": 0.0, "count": 0},
            },
        )
        phases = [s for s in book.snapshot() if s.parent_id == parent.span_id]
        assert [(s.name, s.start, s.end) for s in phases] == [
            ("l1_access", 0.0, 0.5),
            ("sim_loop", 0.5, 0.75),
            ("replacement", 0.75, 0.75),
        ]
        assert {s.kind for s in phases} == {"phase"}
        assert phases[0].attrs == {"count": 9}
        assert phases[2].attrs == {"count": 7}

    def test_clock_serialised_only_off_the_wall(self):
        book = SpanBook()
        trace = new_trace_id()
        wall = book.add("job", trace, 0.0, 1.0)
        cycles = book.add("measure", trace, 10.0, 20.0, clock="cycles")
        assert "clock" not in wall.to_json_dict()
        assert cycles.to_json_dict()["clock"] == "cycles"

    def test_disabled_book_is_free(self):
        book = SpanBook(enabled=False)
        span = book.begin("s", new_trace_id(), tenant="a")
        book.end(span, status=200)
        assert book.add("p", new_trace_id(), 0.0, 1.0) is None
        assert len(book) == 0
        assert book.now() == 0.0


class TestExports:
    def _book(self):
        clock = FakeClock()
        book = SpanBook(clock=clock)
        trace = new_trace_id()
        parent = book.begin("parent", trace)
        clock.tick()
        child = book.begin("child", trace, parent_id=parent.span_id)
        clock.tick()
        book.end(child)
        book.end(parent)
        return book, trace, parent

    def test_write_jsonl_round_trips(self):
        book, trace, parent = self._book()
        buffer = io.StringIO()
        assert book.write_jsonl(buffer) == 2
        lines = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert {line["name"] for line in lines} == {"parent", "child"}
        child_line = next(l for l in lines if l["name"] == "child")
        assert child_line["parent_id"] == parent.span_id
        assert child_line["trace_id"] == trace
        assert child_line["end"] >= child_line["start"]

    def test_chrome_trace_shape(self):
        book, trace, parent = self._book()
        doc = spans_to_chrome_trace(book.snapshot())
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        assert len(meta) == 1  # one process lane per trace
        assert {e["name"] for e in slices} == {"parent", "child"}
        parent_slice = next(e for e in slices if e["name"] == "parent")
        assert parent_slice["ts"] == 0.0
        assert parent_slice["dur"] == 2e6
        # the child rides its parent's process and lane
        assert {(e["pid"], e["tid"]) for e in slices} == {(0, 0)}

    def test_two_worker_sweep_nests_on_every_lane(self):
        """A service sweep's tree does not nest by time: both queue
        spans outlive admission, one outlives ingress, and the two
        workers' execute spans overlap.  Each lane must still nest,
        with every execute's phases on its lane."""
        book = SpanBook()
        trace = new_trace_id()
        ingress = book.add("ingress", trace, 0.0, 6.0, kind="server")
        admission = book.add(
            "admission", trace, 0.2, 0.8, parent_id=ingress.span_id
        )
        executes = []
        for dispatched, done in ((1.0, 5.0), (3.0, 8.0)):
            queue = book.add(
                "queue", trace, 0.7, dispatched, parent_id=admission.span_id
            )
            execute = book.add(
                "execute", trace, dispatched, done, parent_id=queue.span_id
            )
            book.add_phases(
                execute,
                {"sim_loop": {"s": 2.0, "count": 1}, "execute_job": {"s": 1.0}},
            )
            executes.append(execute)
        doc = spans_to_chrome_trace(book.snapshot())
        assert_lanes_nest(doc)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in slices} == {0}
        lane = {e["args"]["span_id"]: e["tid"] for e in slices}
        assert lane[executes[0].span_id] != lane[executes[1].span_id]
        for execute in executes:
            phases = [
                e["tid"]
                for e in slices
                if e["args"].get("parent_id") == execute.span_id
            ]
            assert phases == [lane[execute.span_id]] * 2
