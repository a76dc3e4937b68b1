"""Request-scoped tracing: trace/span identifiers and the span book.

A *trace* is the full life of one request — an HTTP sweep submission
or a CLI run — and a *span* is one named stage inside it (ingress,
admission, queue wait, execution, a CLI job, a host or simulated
phase).  Identifiers are random hex from :func:`uuid.uuid4` (not
:mod:`random`, so simulation RNG streams are untouched and the
determinism analyzer stays quiet); the trace id travels in the
``X-Repro-Trace`` header, through broker queue entries, and into
manifest records, which is what lets one id join the access log, the
span export, and the run manifest.

:class:`SpanBook` is the recorder.  It is deliberately dumb: spans are
appended to a bounded in-memory list when they *end* (never while
open), snapshots copy under a lock, and exports are plain JSONL plus
:func:`spans_to_chrome_trace`, the one Chrome-trace writer.  Like the
phase timer it is disabled-is-free — a disabled book's ``begin``
returns a no-op span and records nothing, so hook sites stay
unguarded.

Every span carries a clock domain.  ``wall`` spans are
:func:`time.perf_counter` offsets from the book's
origin, never wall clock (repo rule CS3): span files from one process
are internally consistent and diffable, at the cost of not being
comparable across processes — the worker pipe therefore ships phase
*durations* (from ``RunSummary.host``), and the parent process lays
them out inside its own clock domain.  ``cycles`` spans are simulated
cycles (a CLI job's per-core warmup/measure phases).
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Optional, Tuple


def new_trace_id() -> str:
    """A fresh 32-hex-char trace identifier."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A fresh 16-hex-char span identifier."""
    return uuid.uuid4().hex[:16]


def _is_hex(value: str) -> bool:
    try:
        int(value, 16)
    except ValueError:
        return False
    return True


def parse_trace_header(value: Optional[str]) -> Optional[str]:
    """Validate an ``X-Repro-Trace`` header; None when absent/invalid.

    Malformed ids are dropped rather than erroring — a bad tracing
    header must never fail a request that would otherwise succeed.
    """
    if not value:
        return None
    value = value.strip().lower()
    if len(value) == 32 and _is_hex(value):
        return value
    return None


@dataclass
class Span:
    """One named stage of a trace; mutable until :meth:`SpanBook.end`.

    ``start``/``end`` are seconds relative to the owning book's origin
    for ``clock="wall"`` spans, and simulated cycles for
    ``clock="cycles"`` spans.  ``attrs`` carries join keys
    (``job_key``, ``tenant``, ``sweep_id``, ``core``) and must stay
    JSON-scalar-valued.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    start: float = 0.0
    end: Optional[float] = None
    kind: str = "internal"
    attrs: Dict[str, Any] = field(default_factory=dict)
    clock: str = "wall"

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_json_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "start": self.start,
            "end": self.end if self.end is not None else self.start,
            "kind": self.kind,
        }
        if self.parent_id is not None:
            data["parent_id"] = self.parent_id
        if self.attrs:
            data["attrs"] = dict(self.attrs)
        if self.clock != "wall":
            data["clock"] = self.clock
        return data


class _NoopSpan(Span):
    """What a disabled book hands out: accepts the same calls, keeps
    nothing.  A single shared instance per book is enough because the
    noop never stores per-call state."""

    def __init__(self) -> None:
        super().__init__(name="", trace_id="", span_id="")


class SpanBook:
    """Bounded, thread-safe recorder for finished spans.

    ``begin`` opens a span stamped with the current clock; ``end``
    stamps the close time and appends it to the book.  ``add`` records
    a pre-timed span, and ``add_phases`` replays a worker's host-phase
    durations into the parent's clock domain.  When the book is full
    the newest spans are dropped and counted — dropping history would
    orphan parents.
    """

    def __init__(
        self,
        enabled: bool = True,
        max_spans: int = 20_000,
        clock=time.perf_counter,
    ) -> None:
        self.enabled = enabled
        self.max_spans = max_spans
        self._clock = clock
        self._origin = clock() if enabled else 0.0
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self.dropped = 0
        self._noop = _NoopSpan()

    def now(self) -> float:
        """Seconds since the book's origin (0.0 when disabled)."""
        if not self.enabled:
            return 0.0
        return self._clock() - self._origin

    def begin(
        self,
        name: str,
        trace_id: str,
        parent_id: Optional[str] = None,
        kind: str = "internal",
        **attrs: Any,
    ) -> Span:
        if not self.enabled:
            return self._noop
        return Span(
            name=name,
            trace_id=trace_id,
            span_id=new_span_id(),
            parent_id=parent_id,
            start=self.now(),
            kind=kind,
            attrs={k: v for k, v in attrs.items() if v is not None},
        )

    def end(self, span: Span, **attrs: Any) -> Span:
        if not self.enabled or span is self._noop:
            return span
        span.end = self.now()
        for key, value in attrs.items():
            if value is not None:
                span.attrs[key] = value
        self._record(span)
        return span

    def add(
        self,
        name: str,
        trace_id: str,
        start: float,
        end: float,
        parent_id: Optional[str] = None,
        kind: str = "internal",
        clock: str = "wall",
        **attrs: Any,
    ) -> Optional[Span]:
        """Record a span whose timing is already known."""
        if not self.enabled:
            return None
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=new_span_id(),
            parent_id=parent_id,
            start=start,
            end=end,
            kind=kind,
            attrs={k: v for k, v in attrs.items() if v is not None},
            clock=clock,
        )
        self._record(span)
        return span

    def add_phases(self, parent: Span, phases: Dict[str, Dict[str, Any]]) -> None:
        """Replay a host-phase digest (``{name: {"s", "count"}}``) as
        ``parent``'s children.  Workers ship phase *durations*, so the
        phases are laid back to back from the parent's start, widest
        first; only their widths are meaningful, not their order.  A
        phase is dropped only when both its seconds and its count are
        zero: a phase no sample landed in still carries its count, as
        a zero-width span."""
        offset = parent.start
        for name, digest in sorted(
            phases.items(), key=lambda kv: -float(kv[1].get("s", 0.0))
        ):
            seconds = float(digest.get("s", 0.0))
            count = int(digest.get("count", 0))
            if seconds <= 0.0 and not count:
                continue
            self.add(
                name,
                parent.trace_id,
                start=offset,
                end=offset + seconds,
                parent_id=parent.span_id,
                kind="phase",
                count=count,
            )
            offset += seconds

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                return
            self._spans.append(span)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def snapshot(self, trace_id: Optional[str] = None) -> List[Span]:
        """Finished spans, oldest first; optionally one trace only."""
        with self._lock:
            spans = list(self._spans)
        if trace_id is not None:
            spans = [span for span in spans if span.trace_id == trace_id]
        return sorted(spans, key=lambda span: (span.start, span.span_id))

    def pop_tree(self, root_id: str) -> List[Span]:
        """Remove and return span ``root_id`` and all its descendants,
        oldest first.  A sweep's export frees its slots this way, so a
        long-lived broker never reaches the cap; popping by tree rather
        than by trace id keeps two sweeps sharing a client's trace id
        apart."""
        with self._lock:
            children = span_tree(self._spans)
            taken_ids = {root_id}
            stack = [root_id]
            while stack:
                for child in children.get(stack.pop(), ()):
                    taken_ids.add(child.span_id)
                    stack.append(child.span_id)
            taken = [s for s in self._spans if s.span_id in taken_ids]
            self._spans = [s for s in self._spans if s.span_id not in taken_ids]
        return sorted(taken, key=lambda span: (span.start, span.span_id))

    def write_jsonl(self, stream: IO[str], spans: Optional[List[Span]] = None) -> int:
        """One span per line, sorted keys — the span artifact format."""
        spans = self.snapshot() if spans is None else spans
        for span in spans:
            stream.write(json.dumps(span.to_json_dict(), sort_keys=True))
            stream.write("\n")
        return len(spans)


def spans_to_chrome_trace(spans: List[Span]) -> Dict[str, Any]:
    """The Chrome ``trace.json`` view of a span list (load in Perfetto).

    Each trace is one process, named by its trace id.  Wall spans take
    thread lanes on which slices nest, because service spans do not (a
    ``queue`` span outlives ``admission``, two workers' ``execute``
    spans overlap) and Perfetto mis-draws slices that overlap without
    nesting.  Visited by start time, longer first on ties, a span
    joins its parent's lane if it ends no later than the innermost
    slice still open there; otherwise it takes the lowest lane with no
    open slice (never one where an unrelated slice would read as its
    parent), or a new one.  ``cycles`` spans get one process per
    parent span, numbered after the trace processes that precede it,
    with one named thread per ``core`` attr.  Wall seconds render as
    µs, and so does one cycle.
    """
    ids = {span.span_id for span in spans}
    children = span_tree(spans)
    events: List[Dict[str, Any]] = []
    pids: Dict[Any, int] = {}
    threads = set()
    wall: List[Tuple[int, Span, Dict[str, Any]]] = []  # a parent precedes its children

    def process(key: Any, name: str) -> int:
        if key not in pids:
            pids[key] = len(pids)
            events.append(_meta("process_name", pids[key], 0, name))
        return pids[key]

    def emit(span: Span, pid: int) -> None:
        wall.append((pid, span, _slice(span, pid, 0)))
        events.append(wall[-1][2])
        for child in children.get(span.span_id, ()):
            if child.clock == "wall":
                emit(child, pid)
                continue
            sim = process(("cycles", span.span_id), f"{span.name} (simulated cycles)")
            core = int(child.attrs.get("core", 0))
            if (sim, core) not in threads:
                threads.add((sim, core))
                events.append(_meta("thread_name", sim, core, f"core {core}"))
            events.append(_slice(child, sim, core))

    for span in sorted(spans, key=lambda span: (span.start, span.span_id)):
        if span.parent_id not in ids:
            emit(span, process(span.trace_id, f"trace {span.trace_id}"))
    lanes: Dict[str, int] = {}
    open_ends: Dict[int, List[List[float]]] = {}  # pid -> lane -> slice ends
    for pid, span, event in sorted(wall, key=lambda w: (w[1].start, -w[1].duration)):
        stacks = open_ends.setdefault(pid, [])
        for stack in stacks:
            while stack and stack[-1] <= span.start:
                stack.pop()
        end = span.start + span.duration
        lane = lanes.get(span.parent_id)
        if lane is None or (stacks[lane] and end > stacks[lane][-1]):
            lane = next((i for i, stack in enumerate(stacks) if not stack), len(stacks))
            if lane == len(stacks):
                stacks.append([])
        stacks[lane].append(end)
        lanes[span.span_id] = event["tid"] = lane
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs", "note": "1 cycle renders as 1 us"},
    }


def _meta(kind: str, pid: int, tid: int, name: str) -> Dict[str, Any]:
    return {"name": kind, "ph": "M", "pid": pid, "tid": tid, "args": {"name": name}}


def _slice(span: Span, pid: int, tid: int) -> Dict[str, Any]:
    scale = 1e6 if span.clock == "wall" else 1.0  # to µs
    args: Dict[str, Any] = {"span_id": span.span_id}
    if span.parent_id:
        args["parent_id"] = span.parent_id
    args.update(span.attrs)
    return {
        "name": span.name,
        "cat": span.kind,
        "ph": "X",
        "pid": pid,
        "tid": tid,
        "ts": round(span.start * scale, 3),
        "dur": round(max(span.duration, 0.0) * scale, 3),
        "args": args,
    }


def span_tree(spans: List[Span]) -> Dict[Optional[str], List[Span]]:
    """Index spans by parent_id — the shape nesting assertions want."""
    children: Dict[Optional[str], List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    return children
