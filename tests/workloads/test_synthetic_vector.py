"""Equivalence of the vectorised numpy mixture engine.

The golden regression digests (and every BENCH trajectory entry) were
produced by the original *scalar* numpy batch loop, so the vectorised
engine in :func:`repro.workloads.synthetic._mixture_trace_numpy` must
reproduce that record stream bit-for-bit — same gaps, same kinds, same
addresses, in the same order.  This module keeps a verbatim copy of
the scalar loop as the executable specification and checks the two
against each other across every shipped application profile plus
hand-built edge-case mixtures (bursts spanning batch boundaries,
sequential streams, degenerate one-line regions).

The simulator feed (:func:`repro.workloads.synthetic.mixture_feed`)
is a second view of the same batches; it must yield the record view's
values as plain tuples.
"""

import itertools

import pytest

np = pytest.importorskip("numpy")

from repro.access import AccessType
from repro.config import HierarchyConfig, baseline_hierarchy
from repro.workloads import WorkloadMix
from repro.workloads.spec import SPEC_APPS, app_feed, app_profile, app_trace
from repro.workloads.synthetic import (
    CODE_BASE,
    DATA_BASE,
    REGION_STRIDE,
    MixtureProfile,
    RegionSpec,
    _exponential_mean_for_floored,
    _mixture_trace_numpy,
    mixture_feed,
    mixture_trace,
)
from repro.workloads.trace import TraceRecord


def _scalar_reference(profile, seed, base_address):
    """The original per-record numpy batch loop (executable spec)."""
    rng = np.random.RandomState(seed & 0x7FFF_FFFF)
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
    cumulative = np.cumsum([r.weight / total_weight for r in regions])
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

    ifetch = AccessType.IFETCH
    load = AccessType.LOAD
    store = AccessType.STORE

    code_cursor = 0
    stream_cursors = [0] * len(regions)
    burst_address = 0
    burst_left = 0
    batch = 4096

    while True:
        if exp_mean > 0:
            gaps = rng.exponential(exp_mean, batch).astype(np.int64).tolist()
        else:
            gaps = [0] * batch
        u_type = rng.random_sample(batch).tolist()
        u_branch = rng.random_sample(batch).tolist()
        picks = np.searchsorted(
            cumulative, rng.random_sample(batch), side="left"
        ).tolist()
        u_offset = rng.random_sample(batch).tolist()
        u_write = rng.random_sample(batch).tolist()

        for i in range(batch):
            if u_type[i] < p_ifetch:
                if u_branch[i] < p_branch:
                    code_cursor = int(u_offset[i] * code_lines)
                address = code_base + code_cursor * line
                code_cursor += 1
                if code_cursor >= code_lines:
                    code_cursor = 0
                yield TraceRecord(gaps[i], ifetch, address)
                continue
            if burst_left > 0:
                burst_left -= 1
                address = burst_address
            else:
                index = picks[i]
                if region_sequential[index]:
                    offset = stream_cursors[index]
                    stream_cursors[index] = (offset + 1) % region_lines[index]
                else:
                    offset = int(u_offset[i] * region_lines[index])
                address = region_bases[index] + offset * line
                if region_burst[index] > 1:
                    burst_address = address
                    burst_left = region_burst[index] - 1
            kind = store if u_write[i] < p_write else load
            yield TraceRecord(gaps[i], kind, address)


def assert_streams_identical(profile, seed, base_address, count):
    fast = _mixture_trace_numpy(profile, seed, base_address)
    reference = _scalar_reference(profile, seed, base_address)
    for i, (got, want) in enumerate(
        itertools.islice(zip(fast, reference), count)
    ):
        assert got == want, f"record {i}: {got} != {want}"
        assert type(got) is TraceRecord
        assert type(got.address) is int  # no numpy scalars leaking out


@pytest.mark.parametrize("name", sorted(SPEC_APPS))
def test_app_profiles_match_scalar_reference(name):
    profile = app_profile(name).build_mixture(HierarchyConfig())
    # > 2 batches so batch-boundary carry state (code cursor, bursts,
    # stream cursors) is exercised for every profile.
    assert_streams_identical(profile, seed=hash(name) & 0xFFFF, base_address=0,
                             count=10_000)


EDGE_PROFILES = {
    "one-line-code-and-region": MixtureProfile(
        code_lines=1,
        regions=(RegionSpec(lines=1, weight=1.0),),
    ),
    "always-branch": MixtureProfile(
        code_lines=7,
        regions=(RegionSpec(lines=64, weight=1.0),),
        branch_probability=1.0,
    ),
    "never-branch-tiny-code": MixtureProfile(
        code_lines=3,
        regions=(RegionSpec(lines=64, weight=1.0),),
        branch_probability=0.0,
    ),
    "huge-bursts-span-batches": MixtureProfile(
        code_lines=64,
        regions=(
            RegionSpec(lines=128, weight=1.0, burst=5000),
            RegionSpec(lines=16, weight=0.5, sequential=True),
        ),
        data_per_instruction=1.0,
        ifetch_per_instruction=0.001,
    ),
    "all-sequential": MixtureProfile(
        code_lines=64,
        regions=(
            RegionSpec(lines=5, weight=1.0, sequential=True),
            RegionSpec(lines=9, weight=2.0, sequential=True, burst=3),
        ),
    ),
    "no-gaps": MixtureProfile(
        code_lines=64,
        regions=(RegionSpec(lines=64, weight=1.0),),
        data_per_instruction=0.95,
        ifetch_per_instruction=0.05,
    ),
    "write-heavy": MixtureProfile(
        code_lines=64,
        regions=(RegionSpec(lines=64, weight=1.0, burst=2),),
        write_fraction=1.0,
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_PROFILES))
def test_edge_profiles_match_scalar_reference(name):
    assert_streams_identical(
        EDGE_PROFILES[name], seed=1234, base_address=1 << 40, count=10_000
    )


def test_many_seeds_one_profile():
    profile = app_profile("sje").build_mixture(HierarchyConfig())
    for seed in range(8):
        assert_streams_identical(profile, seed=seed, base_address=0, count=5_000)


# -- the simulator feed view ---------------------------------------------------

#: the numpy engine's batch length; feed checks span at least 3 batches.
BATCH = 4096


def assert_feed_matches_records(feed, records, count):
    """Consume ``feed`` the way a core does (unpack at once, so zip's
    tuple is reused) and compare with the record view."""
    for index in range(count):
        gap, kind, address = next(feed)
        record = next(records)
        assert (gap, kind, address) == record, f"record {index}"
        assert kind is record.kind
        assert type(gap) is int and type(address) is int


@pytest.mark.parametrize("name", sorted(SPEC_APPS))
def test_app_feed_matches_app_trace(name):
    reference = baseline_hierarchy(2, scale=1 / 64)
    for core_id in (0, 1):
        assert_feed_matches_records(
            app_feed(name, reference, core_id),
            app_trace(name, reference, core_id),
            count=3 * BATCH + 517,
        )


def carries_burst_across_batches(records, profile):
    """Does a visit to a bursty region straddle a batch boundary?"""
    bursty = {i for i, region in enumerate(profile.regions) if region.burst > 1}
    data = [
        (index, record.address)
        for index, record in enumerate(records)
        if record.kind is not AccessType.IFETCH
    ]
    return any(
        before // BATCH != after // BATCH
        and address == previous
        and (address - DATA_BASE) // REGION_STRIDE in bursty
        for (before, previous), (after, address) in zip(data, data[1:])
    )


@pytest.mark.parametrize("name", ["h26", "pov", "xal"])
def test_bursty_feeds_match_across_batch_boundaries(name):
    profile = app_profile(name).build_mixture(HierarchyConfig())
    count = 3 * BATCH + 1
    for seed in range(64):
        records = list(itertools.islice(mixture_trace(profile, seed), count))
        if carries_burst_across_batches(records, profile):
            break
    else:
        pytest.fail(f"no {name} seed carries a burst across a batch boundary")
    assert_feed_matches_records(
        mixture_feed(profile, seed), iter(records), count
    )


@pytest.mark.parametrize("name", sorted(EDGE_PROFILES))
def test_edge_profile_feeds_match_records(name):
    profile = EDGE_PROFILES[name]
    assert_feed_matches_records(
        mixture_feed(profile, 99, 1 << 40),
        mixture_trace(profile, 99, 1 << 40),
        count=3 * BATCH + 1,
    )


def test_mix_feeds_yield_plain_tuples():
    mix = WorkloadMix("MIX_05", ("h26", "gob"))
    for feed, trace in zip(mix.feeds(), mix.traces()):
        # Kept items (here, in a list) are fresh tuples, not reused.
        kept = list(itertools.islice(feed, 5))
        assert all(type(item) is tuple for item in kept)
        assert kept == [tuple(record) for record in itertools.islice(trace, 5)]
