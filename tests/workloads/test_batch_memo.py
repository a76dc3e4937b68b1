"""The trace-batch memo under :func:`repro.workloads.synthetic.mixture_feed`.

Feeds of one stream share its generated batches through a per-process
LRU memo.  Whatever the memo does — replay, generate into an entry,
evict a stream, drop one that outgrew the bound, hand a feed the
stream's generator — every feed must yield exactly the values
un-memoized generation does, which the record view
(:func:`~repro.workloads.synthetic.mixture_trace`, never memoized)
provides.
"""

import functools
import inspect
import itertools
import multiprocessing
import os
import threading

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.config import baseline_hierarchy
from repro.workloads import WorkloadMix
from repro.workloads import synthetic
from repro.workloads.spec import SPEC_APPS, _app_stream, app_feed
from repro.workloads.synthetic import (
    BATCH_RECORDS,
    MEMO_RECORDS,
    _mixture_batches_numpy,
    mixture_feed,
    mixture_trace,
)

BATCH = BATCH_RECORDS
MEMO = synthetic._MEMO
REFERENCE = baseline_hierarchy(2, scale=1 / 64)

#: records the first feed of each stream consumes: just over 3 batches.
FIRST = 3 * BATCH + 517
#: longest later feed: one batch beyond what the first feed recorded.
LONGEST = 5 * BATCH


@pytest.fixture(autouse=True)
def empty_memo():
    MEMO.clear()
    yield
    MEMO.clear()


def stream(name, core_id):
    """``(profile, seed, base_address)`` of one app copy."""
    return _app_stream(name, REFERENCE, core_id, 1)


@functools.lru_cache(maxsize=2)
def generated(name):
    """Un-memoized records of both cores' streams, as plain tuples."""
    return tuple(
        [tuple(r) for r in itertools.islice(mixture_trace(*stream(name, c)), LONGEST)]
        for c in (0, 1)
    )


def consume(feed, count):
    """Take ``count`` records the way a core does (unpack each at once)."""
    out = []
    append = out.append
    for _ in range(count):
        gap, kind, address = next(feed)
        append((gap, kind, address))
    return out


def assert_bounded():
    assert MEMO.records <= MEMO.capacity
    held = sum(len(s.batches) for s in MEMO._streams.values()) * BATCH
    assert held == MEMO.records


@pytest.mark.parametrize("name", sorted(SPEC_APPS))
@given(
    lengths=st.lists(st.integers(0, LONGEST), min_size=1, max_size=3),
    chunk=st.integers(1, 3 * BATCH),
)
@settings(max_examples=4, deadline=None)
def test_replayed_feeds_equal_generation(name, lengths, chunk):
    MEMO.clear()
    expected = generated(name)
    for length in [FIRST] + lengths:
        feeds = [app_feed(name, REFERENCE, c) for c in (0, 1)]
        got = [[], []]
        # Interleave the two cores in chunks, as a simulation does.
        while len(got[0]) < length or len(got[1]) < length:
            for core_id in (0, 1):
                take = min(chunk, length - len(got[core_id]))
                got[core_id] += consume(feeds[core_id], take)
                assert_bounded()
        for core_id in (0, 1):
            assert got[core_id] == expected[core_id][:length], (name, core_id)
    assert MEMO.replayed > 0 or not any(lengths)


@given(lengths=st.lists(st.integers(1, 3 * BATCH), min_size=3, max_size=6))
@settings(max_examples=10, deadline=None)
def test_lru_eviction_between_feeds(lengths):
    """Streams leave least recently used first; a feed of an evicted
    stream starts a new entry and still yields generation's values."""
    MEMO.clear()
    MEMO.capacity = 2 * BATCH
    try:
        names = ("dea", "pov", "mcf")
        for index, length in enumerate(lengths):
            name = names[index % len(names)]
            got = consume(app_feed(name, REFERENCE, 0), length)
            assert got == generated(name)[0][:length]
            assert_bounded()
            key = stream(name, 0)
            # The stream just fed is the most recently used: it is still
            # held unless it alone outgrew the bound.
            assert (key in MEMO._streams) == (length <= 2 * BATCH)
            if key in MEMO._streams:
                assert next(reversed(MEMO._streams)) == key
    finally:
        MEMO.capacity = MEMO_RECORDS


@pytest.mark.parametrize("capacity", [MEMO_RECORDS, 2 * BATCH])
@given(chunks=st.lists(st.integers(1, 2 * BATCH), min_size=2, max_size=12))
@settings(max_examples=12, deadline=None)
def test_two_feeds_of_one_stream_consumed_alternately(capacity, chunks):
    """With a small bound the stream leaves mid-way: the feed at the
    front takes over its generator, the one behind regenerates."""
    MEMO.clear()
    MEMO.capacity = capacity
    try:
        expected = generated("h26")[1]
        feeds = [app_feed("h26", REFERENCE, 1) for _ in range(2)]
        got = [[], []]
        for index, chunk in enumerate(chunks):
            which = index % 2
            chunk = min(chunk, LONGEST - len(got[which]))
            got[which] += consume(feeds[which], chunk)
            assert_bounded()
        for records in got:
            assert records == expected[: len(records)]
    finally:
        MEMO.capacity = MEMO_RECORDS


def test_two_threads_on_one_stream():
    expected = generated("xal")[0]
    start = threading.Barrier(2)
    results = [None, None]

    def run(slot):
        feed = app_feed("xal", REFERENCE, 0)
        start.wait()
        records = []
        while len(records) < LONGEST:
            records += consume(feed, 257)
        results[slot] = records[:LONGEST]

    threads = [threading.Thread(target=run, args=(slot,)) for slot in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert results[0] == expected
    assert results[1] == expected
    assert MEMO.generated == LONGEST // BATCH + 1
    assert_bounded()


def test_stream_that_outgrows_the_bound_leaves_and_stops_recording():
    key = stream("pov", 0)
    count = MEMO_RECORDS + 2 * BATCH
    expected = [tuple(r) for r in itertools.islice(mixture_trace(*key), count)]
    other = consume(app_feed("dea", REFERENCE, 0), BATCH)
    feed = mixture_feed(*key)
    got = []
    while len(got) < count:
        got += consume(feed, BATCH)
        assert_bounded()
        if len(got) <= MEMO_RECORDS - BATCH:
            assert key in MEMO._streams
    assert got == expected
    assert other == generated("dea")[0][:BATCH]
    # It evicted the other stream, then left itself: the memo is empty,
    # and the feed generated the rest alone.
    assert key not in MEMO._streams
    assert MEMO.records == 0
    assert MEMO.generated == MEMO_RECORDS // BATCH + 2
    # A later feed of the stream records it afresh.
    assert consume(mixture_feed(*key), BATCH) == expected[:BATCH]
    assert key in MEMO._streams


def test_record_views_never_replay():
    key = stream("sje", 1)
    fed = consume(mixture_feed(*key), 2 * BATCH)
    snapshot = (MEMO.generated, MEMO.replayed, MEMO.records, list(MEMO._streams))
    records = [tuple(r) for r in itertools.islice(mixture_trace(*key), 2 * BATCH)]
    mix = WorkloadMix("MIX_10", ("lib", "sje"))
    for trace in mix.traces(REFERENCE):
        list(itertools.islice(trace, 2 * BATCH))
    assert records == fed
    assert (MEMO.generated, MEMO.replayed, MEMO.records, list(MEMO._streams)) == snapshot


def test_suspended_generator_keeps_no_batch_arrays():
    source = _mixture_batches_numpy(*stream("pov", 0))
    next(source)
    held = list(inspect.getgeneratorlocals(source).values())
    next_batch = inspect.getgeneratorlocals(source)["next_batch"]
    held += [cell.cell_contents for cell in next_batch.__closure__]
    sizes = [value.size for value in held if isinstance(value, np.ndarray)]
    assert sizes and max(sizes) < BATCH


def _consume_one_feed():
    consume(app_feed("dea", REFERENCE, 0), 2 * BATCH)


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="needs fork")
def test_forked_child_does_not_inherit_a_held_lock():
    context = multiprocessing.get_context("fork")
    # Holding the lock across the fork stands in for a parent thread
    # that was generating a batch at that moment.
    with MEMO._lock:
        child = context.Process(target=_consume_one_feed)
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
