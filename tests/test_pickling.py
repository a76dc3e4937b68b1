"""Worker-pool dispatch depends on configs/mixes/jobs round-tripping
through pickle unchanged — a regression here silently breaks parallel
sweeps on spawn-based platforms, so it is pinned explicitly."""

import pickle

import pytest

from repro.config import (
    CacheConfig,
    HierarchyConfig,
    PrefetchConfig,
    SanitizeConfig,
    SimConfig,
    TimingConfig,
    TLAConfig,
    baseline_hierarchy,
    tla_preset,
)
from repro.experiments import ExperimentSettings
from repro.orchestrate import RunSummary, SimJob
from repro.workloads import WorkloadMix, mix_by_name


def round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


@pytest.mark.parametrize(
    "obj",
    [
        CacheConfig(32 * 1024, 4, name="L1D"),
        TimingConfig(),
        PrefetchConfig(enabled=True, kind="nextline"),
        TLAConfig(policy="qbs", levels=("il1", "dl1", "l2"), max_queries=2),
        SanitizeConfig(enabled=True, interval=8, fail_fast=False),
        HierarchyConfig(),
        baseline_hierarchy(2, mode="non_inclusive", scale=0.0625),
        SimConfig(),
        SimConfig(
            hierarchy=baseline_hierarchy(2, tla=tla_preset("eci")),
            instruction_quota=5_000,
            warmup_instructions=1_000,
        ),
        ExperimentSettings(jobs=4, job_timeout=30.0),
        WorkloadMix("MIX_XX", ("dea", "pov")),
        mix_by_name("MIX_05"),
        SimJob(
            mix_name="MIX_05",
            apps=("h26", "gob"),
            tla="qbs",
            tla_config=tla_preset("qbs"),
            scale=0.0625,
            quota=5_000,
            warmup=1_000,
        ),
    ],
    ids=lambda obj: type(obj).__name__,
)
def test_round_trip_equality(obj):
    clone = round_trip(obj)
    assert clone == obj
    assert type(clone) is type(obj)


def test_run_summary_round_trip():
    summary = RunSummary(
        mix="MIX_01",
        apps=["dea", "pov"],
        mode="inclusive",
        tla="none",
        ipcs=[1.5, 2.0],
        llc_misses=10,
        llc_accesses=100,
        inclusion_victims=0,
        traffic={"llc_request": 100},
        max_cycles=1000.0,
        instructions=[5000, 5000],
        mpki=[{"l1": 1.0}, {"l1": 2.0}],
    )
    clone = round_trip(summary)
    assert clone == summary
    assert clone.throughput == summary.throughput


def test_workload_mix_traces_usable_after_round_trip():
    """The clone must still generate traces (worker-side behaviour)."""
    mix = round_trip(mix_by_name("MIX_01"))
    reference = baseline_hierarchy(2, scale=0.0625)
    traces = mix.traces(reference)
    assert len(traces) == mix.num_cores
    record = next(traces[0])
    assert record is not None
