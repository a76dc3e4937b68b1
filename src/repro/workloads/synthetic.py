"""Synthetic trace generators.

The generic building block is :func:`mixture_trace`: an infinite,
deterministic stream of :class:`~repro.workloads.trace.TraceRecord`
built from

* an instruction-fetch stream walking a code region (sequential with
  occasional branches), and
* a data stream drawn from a weighted mixture of *regions*, each of
  which is accessed randomly (working-set behaviour) or sequentially
  (streaming behaviour).

Region sizes are expressed in cache lines, so callers size them
relative to a reference hierarchy and the resulting trace lands in a
chosen cache level by construction.  Simpler single-pattern
generators (:func:`looping_trace`, :func:`strided_trace`,
:func:`random_trace`) are provided for tests and examples.
"""

from __future__ import annotations

import os
import random
import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain, repeat, starmap
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from ..access import AccessType
from ..errors import TraceError
from .trace import TraceRecord

try:  # numpy accelerates batch generation ~4x; plain Python works too.
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

#: Default byte bases keeping code, and each data region, far apart.
CODE_BASE = 0x0000_1000_0000
DATA_BASE = 0x0010_0000_0000
REGION_STRIDE = 0x0001_0000_0000

#: records per numpy batch.
BATCH_RECORDS = 4096

#: records the per-process trace-batch memo may hold over all streams;
#: a stored record costs 17 bytes (int64 gap and address, int8 kind
#: code), so the memo stays near 1 MiB.
MEMO_RECORDS = 1 << 16

#: access kind by the numpy engine's kind code.
_KIND_BY_CODE = (AccessType.LOAD, AccessType.STORE, AccessType.IFETCH)


def _exponential_mean_for_floored(target_mean: float) -> float:
    """Exponential mean whose *floored* samples average ``target_mean``.

    Gaps are integer instruction counts drawn as ``int(Exp(m))``;
    flooring shrinks the mean (E[floor(Exp(m))] = 1/(e^(1/m)-1)), so
    the continuous mean is inflated to compensate and instruction
    rates land on target.
    """
    import math

    if target_mean <= 0:
        return 0.0
    return 1.0 / math.log(1.0 + 1.0 / target_mean)


@dataclass(frozen=True)
class RegionSpec:
    """One component of a data-access mixture.

    Attributes:
        lines: region size in cache lines (must be positive).
        weight: relative probability of a data access landing here.
        sequential: walk the region line by line (streaming) instead
            of sampling uniformly (working-set reuse).
        burst: consecutive accesses issued to the same line each time
            the region is selected — models spatial locality within a
            line (several elements touched per visit), which makes the
            visit's later accesses L1 hits.
    """

    lines: int
    weight: float
    sequential: bool = False
    burst: int = 1

    def __post_init__(self) -> None:
        if self.lines <= 0:
            raise TraceError("region must contain at least one line")
        if self.weight < 0:
            raise TraceError("region weight must be non-negative")
        if self.burst <= 0:
            raise TraceError("burst must be positive")


@dataclass(frozen=True)
class MixtureProfile:
    """Full parameterisation of :func:`mixture_trace`.

    Attributes:
        code_lines: instruction-footprint size in lines.
        regions: the data mixture.
        data_per_instruction: loads+stores per instruction (~0.375 for
            SPEC-like code).
        ifetch_per_instruction: new-line fetch rate; 1/16 models 64 B
            lines of 4 B instructions.
        write_fraction: fraction of data accesses that are stores.
        branch_probability: chance an ifetch jumps to a random code
            line instead of the next one.
        line_size: bytes per line (addresses are line-aligned bytes).
    """

    code_lines: int
    regions: Tuple[RegionSpec, ...]
    data_per_instruction: float = 0.375
    ifetch_per_instruction: float = 1.0 / 16.0
    write_fraction: float = 0.3
    branch_probability: float = 0.02
    line_size: int = 64

    def __post_init__(self) -> None:
        if self.code_lines <= 0:
            raise TraceError("code region must contain at least one line")
        if not self.regions:
            raise TraceError("mixture needs at least one data region")
        if sum(r.weight for r in self.regions) <= 0:
            raise TraceError("mixture weights must sum to a positive value")
        if not 0 < self.data_per_instruction <= 1:
            raise TraceError("data_per_instruction must be in (0, 1]")
        if not 0 < self.ifetch_per_instruction <= 1:
            raise TraceError("ifetch_per_instruction must be in (0, 1]")
        if not 0 <= self.write_fraction <= 1:
            raise TraceError("write_fraction must be in [0, 1]")


def mixture_trace(
    profile: MixtureProfile,
    seed: int = 0,
    base_address: int = 0,
    engine: str = "auto",
) -> Iterator[TraceRecord]:
    """Infinite deterministic trace following ``profile``.

    ``base_address`` shifts the whole address space (give each core a
    disjoint base via
    :func:`repro.workloads.trace.core_address_offset`).

    ``engine`` selects the generator implementation: ``"numpy"``
    (batched, ~4x faster), ``"python"`` (stdlib only), or ``"auto"``
    (numpy when available).  Both engines are deterministic for a
    given seed, but their streams differ from each other.
    """
    if engine not in ("auto", "numpy", "python"):
        raise TraceError(f"unknown engine {engine!r}")
    if engine == "numpy" and _np is None:
        raise TraceError("numpy engine requested but numpy is not installed")
    if engine in ("auto", "numpy") and _np is not None:
        return _mixture_trace_numpy(profile, seed, base_address)
    return _mixture_trace_python(profile, seed, base_address)


def mixture_feed(
    profile: MixtureProfile,
    seed: int = 0,
    base_address: int = 0,
) -> Iterator[Tuple[int, AccessType, int]]:
    """The simulator's view of :func:`mixture_trace`: plain tuples.

    Yields the same ``(gap, kind, address)`` values, in the same
    order, as ``mixture_trace(profile, seed, base_address)``, but as
    bare tuples zipped straight out of the numpy engine's batches.  A
    core unpacks each record at once, and ``zip`` reuses its result
    tuple when nothing else holds it, so no per-record object is
    built.  The batches come through this process's trace-batch memo,
    so the feeds of one stream share one generation (see
    :class:`_BatchMemo`).  Without numpy the Python engine's records
    are the feed.
    """
    if _np is None:
        return _mixture_trace_python(profile, seed, base_address)
    return chain.from_iterable(
        starmap(zip, _batch_lists(_MEMO.replay((profile, seed, base_address))))
    )


def _mixture_trace_python(
    profile: MixtureProfile,
    seed: int,
    base_address: int,
) -> Iterator[TraceRecord]:
    """Reference stdlib implementation of :func:`mixture_trace`."""
    rng = random.Random(seed)
    line = profile.line_size
    code_base = base_address + CODE_BASE
    region_bases = [
        base_address + DATA_BASE + i * REGION_STRIDE
        for i in range(len(profile.regions))
    ]
    # Cumulative weights for component selection.
    total_weight = sum(r.weight for r in profile.regions)
    cumulative: List[float] = []
    acc = 0.0
    for region in profile.regions:
        acc += region.weight / total_weight
        cumulative.append(acc)
    cumulative[-1] = 1.0  # guard against float drift

    records_per_instruction = (
        profile.data_per_instruction + profile.ifetch_per_instruction
    )
    mean_gap = max(0.0, 1.0 / records_per_instruction - 1.0)
    exp_mean = _exponential_mean_for_floored(mean_gap)
    p_ifetch = profile.ifetch_per_instruction / records_per_instruction

    code_cursor = 0
    stream_cursors = [0] * len(profile.regions)
    burst_address = 0
    burst_left = 0

    while True:
        gap = int(rng.expovariate(1.0 / exp_mean)) if exp_mean > 0 else 0
        if rng.random() < p_ifetch:
            if rng.random() < profile.branch_probability:
                code_cursor = rng.randrange(profile.code_lines)
            address = code_base + code_cursor * line
            code_cursor = (code_cursor + 1) % profile.code_lines
            yield TraceRecord(gap, AccessType.IFETCH, address)
            continue
        if burst_left > 0:
            burst_left -= 1
            address = burst_address
        else:
            pick = rng.random()
            index = 0
            while cumulative[index] < pick:
                index += 1
            region = profile.regions[index]
            if region.sequential:
                offset = stream_cursors[index]
                stream_cursors[index] = (offset + 1) % region.lines
            else:
                offset = rng.randrange(region.lines)
            address = region_bases[index] + offset * line
            if region.burst > 1:
                burst_address = address
                burst_left = region.burst - 1
        kind = (
            AccessType.STORE
            if rng.random() < profile.write_fraction
            else AccessType.LOAD
        )
        yield TraceRecord(gap, kind, address)


#: one numpy batch: int64 gaps, int8 kind codes, int64 addresses.
_Batch = Tuple[Any, Any, Any]
#: a stream's identity in the trace-batch memo.
_StreamKey = Tuple[MixtureProfile, int, int]


def _mixture_trace_numpy(
    profile: MixtureProfile,
    seed: int,
    base_address: int,
) -> Iterator[TraceRecord]:
    """Record view of :func:`_mixture_batches_numpy`.

    Each batch becomes :class:`TraceRecord` objects through a C-level
    ``map`` feeding ``tuple.__new__``, so no per-record Python
    bytecode runs (``TraceRecord._make`` is a Python-level classmethod
    and would cost a frame per record).  Every record view generates
    its own batches: it never goes through the trace-batch memo.
    """
    record_new = tuple.__new__
    record_cls = repeat(TraceRecord)
    for gaps, kinds, addresses in _batch_lists(
        _mixture_batches_numpy(profile, seed, base_address)
    ):
        yield from map(record_new, record_cls, zip(gaps, kinds, addresses))


def _batch_lists(
    batches: Iterator[_Batch],
) -> Iterator[Tuple[List[int], List[AccessType], List[int]]]:
    """``(gaps, kinds, addresses)`` lists of each array batch.

    ``tolist`` and a ``take`` from the kind table do the conversion in
    C, so a replayed batch yields exactly what its generation did.
    """
    kind_take = _np.array(_KIND_BY_CODE, dtype=object).take
    for gaps, codes, addresses in batches:
        yield gaps.tolist(), kind_take(codes).tolist(), addresses.tolist()


def _mixture_batches_numpy(
    profile: MixtureProfile,
    seed: int,
    base_address: int,
) -> Iterator[_Batch]:
    """Batched numpy core of :func:`mixture_trace` and :func:`mixture_feed`.

    An endless run of :func:`_numpy_batch_maker`'s batches.  The body
    lives in that helper, so while suspended this generator keeps only
    the helper's RNG and cursors, not the last batch's arrays.
    """
    next_batch = _numpy_batch_maker(profile, seed, base_address)
    while True:
        yield next_batch()


def _numpy_batch_maker(
    profile: MixtureProfile,
    seed: int,
    base_address: int,
) -> Callable[[], _Batch]:
    """The numpy engine's batch body: a closure returning the next batch.

    Each call draws random variates in blocks of :data:`BATCH_RECORDS`
    and returns the block as ``(gaps, codes, addresses)`` arrays (int64,
    int8 kind codes, int64), built with vectorised integer arithmetic;
    behaviourally equivalent to the Python engine (same distributions),
    though the exact streams differ.  The stream is bit-identical to
    the historical scalar numpy loop (the golden regression digests
    depend on it); ``tests/workloads/test_synthetic_vector.py`` keeps a
    copy of that scalar loop and asserts equivalence.

    The batch is assembled in three passes:

    1. the instruction-fetch cursor is reconstructed in closed form —
       between branches it just counts up modulo the code footprint,
       so each ifetch's cursor is ``(anchor + distance) % code_lines``
       where the anchor is the most recent branch target;
    2. data addresses are gathered in closed form when every region
       has ``burst == 1`` (random offsets by a vectorised multiply,
       sequential streams by a per-region ``arange`` — no Python loop
       at all); bursty mixtures fall back to a *visit* loop with one
       Python iteration per region visit (not per record) and burst
       continuations filled by a C-level slice assignment;
    3. access kinds are coded 0 = load, 1 = store, 2 = ifetch;
       :func:`_batch_lists` gathers the :class:`AccessType` members
       from those codes, so every list comes out of numpy's ``tolist``
       with no per-record Python bytecode.
    """
    rng = _np.random.RandomState(seed & 0x7FFF_FFFF)
    line = profile.line_size
    code_base = base_address + CODE_BASE
    regions = profile.regions
    region_bases = [
        base_address + DATA_BASE + i * REGION_STRIDE for i in range(len(regions))
    ]
    region_lines = [r.lines for r in regions]
    region_sequential = [r.sequential for r in regions]
    region_burst = [r.burst for r in regions]

    total_weight = sum(r.weight for r in regions)
    cumulative = _np.cumsum([r.weight / total_weight for r in regions])
    cumulative[-1] = 1.0

    records_per_instruction = (
        profile.data_per_instruction + profile.ifetch_per_instruction
    )
    mean_gap = max(0.0, 1.0 / records_per_instruction - 1.0)
    exp_mean = _exponential_mean_for_floored(mean_gap)
    p_ifetch = profile.ifetch_per_instruction / records_per_instruction
    p_branch = profile.branch_probability
    p_write = profile.write_fraction
    code_lines = profile.code_lines

    code_cursor = 0
    stream_cursors = [0] * len(regions)
    burst_address = 0
    burst_left = 0
    batch = BATCH_RECORDS

    # Burst-free mixtures (the common case) admit a fully vectorised
    # data pass; only bursty profiles need the per-visit Python loop.
    all_single_visit = all(b == 1 for b in region_burst)
    lines_arr = _np.array(region_lines, dtype=_np.int64)
    bases_arr = _np.array(region_bases, dtype=_np.int64)
    seq_regions = [i for i, s in enumerate(region_sequential) if s]

    # Per-batch bindings hoisted out of the batch body (HX2/HX1):
    # bound methods and dtype objects are immutable, and the zero-gap
    # array of a gap-free profile is only ever read, so one shared
    # instance is safe.
    np_int64 = _np.int64
    np_int8 = _np.int8
    np_where = _np.where
    np_flatnonzero = _np.flatnonzero
    np_accumulate = _np.maximum.accumulate
    random_sample = rng.random_sample
    zero_gaps = _np.zeros(batch, dtype=np_int64) if exp_mean <= 0 else None

    def next_batch() -> _Batch:
        nonlocal code_cursor, burst_address, burst_left
        if exp_mean > 0:
            gaps = rng.exponential(exp_mean, batch).astype(np_int64)
        else:
            gaps = zero_gaps
        u_type = random_sample(batch)
        u_branch = random_sample(batch)
        picks = _np.searchsorted(cumulative, random_sample(batch), side="left")
        u_offset = random_sample(batch)
        u_write = random_sample(batch)

        is_ifetch = u_type < p_ifetch
        addresses = _np.empty(batch, dtype=np_int64)

        # -- pass 1: instruction fetches, fully vectorised ------------------
        ifetch_pos = np_flatnonzero(is_ifetch)
        count = len(ifetch_pos)
        if count:
            branched = u_branch[ifetch_pos] < p_branch
            # Branch targets (the scalar loop computes int(u * lines)
            # only on branches; computing it everywhere draws nothing
            # extra and keeps the gather below branch-free).
            targets = (u_offset[ifetch_pos] * code_lines).astype(np_int64)
            idx = _np.arange(count)
            anchor = np_accumulate(np_where(branched, idx, -1))
            has_anchor = anchor >= 0
            base = np_where(
                has_anchor, targets[_np.maximum(anchor, 0)], code_cursor
            )
            rel = np_where(has_anchor, idx - anchor, idx)
            # A branch target is int(u * code_lines) with u < 1, which
            # float rounding can land exactly on code_lines; the scalar
            # loop then emits that out-of-range cursor once and wraps
            # to 0 on the next fetch.  Reproduce both cases exactly.
            cursors = np_where(
                rel == 0,
                base,
                np_where(
                    base >= code_lines,
                    (rel - 1) % code_lines,
                    (base + rel) % code_lines,
                ),
            )
            addresses[ifetch_pos] = code_base + cursors * line
            code_cursor = int(cursors[-1]) + 1
            if code_cursor >= code_lines:
                code_cursor = 0

        # -- pass 2: data accesses ------------------------------------------
        data_pos = _np.flatnonzero(~is_ifetch)
        total = len(data_pos)
        if total and all_single_visit:
            # Closed form: every visit emits exactly one record, so the
            # random offsets are a single vectorised multiply (the same
            # float64 product the scalar loop truncates with ``int``)
            # and each sequential stream is a modular ``arange`` from
            # its carried cursor.
            picks_d = picks[data_pos]
            offsets = (u_offset[data_pos] * lines_arr[picks_d]).astype(
                _np.int64
            )
            for index in seq_regions:
                sel = _np.flatnonzero(picks_d == index)
                visits = len(sel)
                if visits:
                    start = stream_cursors[index]
                    nlines = region_lines[index]
                    offsets[sel] = (start + _np.arange(visits)) % nlines
                    stream_cursors[index] = (start + visits) % nlines
            addresses[data_pos] = bases_arr[picks_d] + offsets * line
        elif total:
            data_addresses = _np.empty(total, dtype=_np.int64)
            picks_d = picks[data_pos].tolist()
            u_offset_d = u_offset[data_pos].tolist()
            cursor = 0
            if burst_left > 0:
                take = burst_left if burst_left < total else total
                data_addresses[:take] = burst_address
                burst_left -= take
                cursor = take
            while cursor < total:
                index = picks_d[cursor]
                if region_sequential[index]:
                    offset = stream_cursors[index]
                    stream_cursors[index] = (offset + 1) % region_lines[index]
                else:
                    offset = int(u_offset_d[cursor] * region_lines[index])
                address = region_bases[index] + offset * line
                burst = region_burst[index]
                if burst > 1:
                    stop = cursor + burst
                    if stop > total:
                        burst_left = stop - total
                        stop = total
                    data_addresses[cursor:stop] = address
                    burst_address = address
                    cursor = stop
                else:
                    data_addresses[cursor] = address
                    cursor += 1
            addresses[data_pos] = data_addresses

        # -- pass 3: access kind codes --------------------------------------
        codes = np_where(is_ifetch, 2, u_write < p_write).astype(np_int8)
        return gaps, codes, addresses

    return next_batch


class _Stream:
    """One stream's entry in the trace-batch memo.

    ``batches`` holds the arrays generated so far, or is None once the
    stream has left the memo; ``source`` is the stream's generator,
    positioned after its first ``made`` batches, until a feed takes it
    over.
    """

    __slots__ = ("key", "batches", "source", "made")

    def __init__(self, key: _StreamKey) -> None:
        self.key = key
        self.batches: Optional[List[_Batch]] = []
        self.source: Optional[Iterator[_Batch]] = _mixture_batches_numpy(*key)
        self.made = 0


class _BatchMemo:
    """Per-process LRU of recorded numpy trace batches, one entry per stream.

    A stream is ``(profile, seed, base_address)``.  The first feed of a
    stream generates its batches into the entry; every later feed of
    it replays them and generates any further batch into the entry
    too, so while the stream stays in the memo each batch is generated
    once.  Replays are the generator's own arrays, so a feed's values
    never depend on whether they were replayed.

    The memo holds at most ``capacity`` records over all streams.  The
    least recently used streams leave first; a stream that alone
    outgrows the bound leaves too and stops recording.  A feed whose
    stream has left carries on alone: with the stream's generator if
    it had reached the generator's position, else with a fresh one
    advanced to its own.

    One lock guards the entries; batches are generated under it, so
    two threads consuming one stream take turns.  ``clear`` runs in
    every forked child, so a child never inherits a lock held by one
    of its parent's threads.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._streams: "OrderedDict[_StreamKey, _Stream]" = OrderedDict()
        self.clear()

    def clear(self) -> None:
        """Drop every stream, zero the counters, make a fresh lock."""
        self._lock = threading.Lock()
        for stream in self._streams.values():
            stream.batches = None
        self._streams = OrderedDict()
        #: records held, over all streams.
        self.records = 0
        #: batches generated into the memo, and batches replayed from it.
        self.generated = 0
        self.replayed = 0

    def replay(self, key: _StreamKey) -> Iterator[_Batch]:
        """Stream ``key``'s batches in order, shared through the memo."""
        with self._lock:
            stream = self._streams.get(key)
            if stream is None:
                stream = self._streams[key] = _Stream(key)
            else:
                self._streams.move_to_end(key)
        index = 0
        while True:
            with self._lock:
                batch = self._batch(stream, index)
            if batch is None:
                break
            yield batch
            index += 1
        # The stream has left the memo: go on alone from batch ``index``.
        with self._lock:
            source = stream.source
            if stream.made == index:
                stream.source = None
            else:
                source = None
        if source is None:
            source = _mixture_batches_numpy(*key)
            for _ in range(index):
                next(source)
        yield from source

    def _batch(self, stream: _Stream, index: int) -> Optional[_Batch]:
        """Batch ``index`` of an entry, or None once it has left the memo."""
        batches = stream.batches
        if batches is None:
            return None
        self._streams.move_to_end(stream.key)
        if index < len(batches):
            self.replayed += 1
            return batches[index]
        batch = next(stream.source)
        stream.made += 1
        self.generated += 1
        batches.append(batch)
        self.records += BATCH_RECORDS
        while self.records > self.capacity:
            _, gone = self._streams.popitem(last=False)
            self.records -= len(gone.batches) * BATCH_RECORDS
            gone.batches = None
        return batch


#: this process's trace-batch memo, under :func:`mixture_feed` only.
_MEMO = _BatchMemo(MEMO_RECORDS)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_MEMO.clear)


# -- simple single-pattern generators (tests, examples, figure 3) -------------


def looping_trace(
    lines: int,
    line_size: int = 64,
    kind: AccessType = AccessType.LOAD,
    gap: int = 0,
    base_address: int = 0,
) -> Iterator[TraceRecord]:
    """Loop over ``lines`` consecutive cache lines forever."""
    if lines <= 0:
        raise TraceError("looping_trace needs at least one line")
    cursor = 0
    while True:
        yield TraceRecord(gap, kind, base_address + cursor * line_size)
        cursor = (cursor + 1) % lines


def strided_trace(
    stride_bytes: int,
    count: Optional[int] = None,
    line_size: int = 64,
    kind: AccessType = AccessType.LOAD,
    gap: int = 0,
    base_address: int = 0,
) -> Iterator[TraceRecord]:
    """Monotonic strided stream; infinite when ``count`` is None."""
    if stride_bytes == 0:
        raise TraceError("stride must be non-zero")
    index = 0
    while count is None or index < count:
        yield TraceRecord(gap, kind, base_address + index * stride_bytes)
        index += 1


def random_trace(
    lines: int,
    seed: int = 0,
    line_size: int = 64,
    write_fraction: float = 0.0,
    gap: int = 0,
    base_address: int = 0,
) -> Iterator[TraceRecord]:
    """Uniform random accesses over a region of ``lines`` lines."""
    if lines <= 0:
        raise TraceError("random_trace needs at least one line")
    rng = random.Random(seed)
    while True:
        address = base_address + rng.randrange(lines) * line_size
        kind = (
            AccessType.STORE if rng.random() < write_fraction else AccessType.LOAD
        )
        yield TraceRecord(gap, kind, address)


def interleaved(
    traces: Sequence[Iterator[TraceRecord]], weights: Optional[Sequence[float]] = None,
    seed: int = 0,
) -> Iterator[TraceRecord]:
    """Randomly interleave several traces (weighted, deterministic)."""
    if not traces:
        raise TraceError("need at least one trace to interleave")
    rng = random.Random(seed)
    if weights is None:
        weights = [1.0] * len(traces)
    if len(weights) != len(traces):
        raise TraceError("weights must match traces")
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)
    cumulative[-1] = 1.0
    while True:
        pick = rng.random()
        index = 0
        while cumulative[index] < pick:
            index += 1
        yield next(traces[index])
