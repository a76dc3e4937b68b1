"""Golden regression values for one pinned configuration.

Everything in the simulator is deterministic (seeded generators, no
wall-clock, numpy's frozen legacy RandomState), so one pinned run
serves as a tripwire: if any of these numbers moves, simulator
behaviour changed and every calibrated experiment should be re-baselined.
Update the constants deliberately when that is intended.
"""

import dataclasses

import pytest

from repro import CMPSimulator, SanitizeConfig, SimConfig, baseline_hierarchy
from repro.workloads import mix_by_name

SCALE = 0.0625
QUOTA = 40_000
WARMUP = 10_000

# Pinned observables for MIX_10 at the settings above.
GOLDEN_VICTIMS = 42
GOLDEN_LLC_MISSES = 1550
GOLDEN_IPCS = (0.625903, 3.211811)


@pytest.fixture(scope="module")
def golden_run():
    reference = baseline_hierarchy(2, scale=SCALE)
    config = SimConfig(
        hierarchy=baseline_hierarchy(2, scale=SCALE),
        instruction_quota=QUOTA,
        warmup_instructions=WARMUP,
    )
    return CMPSimulator(config, mix_by_name("MIX_10").traces(reference)).run()


class TestGoldenRun:
    def test_inclusion_victims(self, golden_run):
        assert golden_run.total_inclusion_victims == GOLDEN_VICTIMS

    def test_llc_misses(self, golden_run):
        assert golden_run.total_llc_misses == GOLDEN_LLC_MISSES

    def test_ipcs(self, golden_run):
        for measured, expected in zip(golden_run.ipcs, GOLDEN_IPCS):
            assert measured == pytest.approx(expected, abs=1e-4)

    def test_instruction_quotas_met(self, golden_run):
        assert [core.instructions for core in golden_run.cores] == [
            QUOTA, QUOTA,
        ]

    def test_rerun_is_identical(self, golden_run):
        reference = baseline_hierarchy(2, scale=SCALE)
        config = SimConfig(
            hierarchy=baseline_hierarchy(2, scale=SCALE),
            instruction_quota=QUOTA,
            warmup_instructions=WARMUP,
        )
        again = CMPSimulator(
            config, mix_by_name("MIX_10").traces(reference)
        ).run()
        assert again.ipcs == golden_run.ipcs
        assert again.traffic == golden_run.traffic

    def test_invariant_checks_do_not_perturb(self, golden_run):
        """Periodic CacheSan scans only read state, so the sanitized
        run simulates exactly as the unchecked golden run."""
        reference = baseline_hierarchy(2, scale=SCALE)
        config = SimConfig(
            hierarchy=dataclasses.replace(
                baseline_hierarchy(2, scale=SCALE),
                sanitize=SanitizeConfig(enabled=True, interval=5_000),
            ),
            instruction_quota=QUOTA,
            warmup_instructions=WARMUP,
        )
        checked = CMPSimulator(
            config, mix_by_name("MIX_10").traces(reference)
        ).run()
        assert checked.total_inclusion_victims == GOLDEN_VICTIMS
        assert checked.total_llc_misses == GOLDEN_LLC_MISSES
        assert checked.ipcs == golden_run.ipcs
        assert checked.traffic == golden_run.traffic


class TestTelemetryDoesNotPerturb:
    """Observability must be read-only: the golden numbers hold with
    event tracing and interval collection switched on."""

    @pytest.fixture(scope="class")
    def traced_run(self):
        from repro.telemetry import TelemetryConfig

        reference = baseline_hierarchy(2, scale=SCALE)
        config = SimConfig(
            hierarchy=baseline_hierarchy(2, scale=SCALE),
            instruction_quota=QUOTA,
            warmup_instructions=WARMUP,
        )
        return CMPSimulator(
            config,
            mix_by_name("MIX_10").traces(reference),
            telemetry=TelemetryConfig(enabled=True, interval=5_000),
        ).run()

    def test_golden_numbers_unchanged_under_tracing(
        self, traced_run, golden_run
    ):
        assert traced_run.total_inclusion_victims == GOLDEN_VICTIMS
        assert traced_run.total_llc_misses == GOLDEN_LLC_MISSES
        assert traced_run.ipcs == golden_run.ipcs
        assert traced_run.traffic == golden_run.traffic

    def test_interval_series_sums_to_golden_aggregates(self, traced_run):
        series = traced_run.intervals
        assert series is not None
        assert series.total("inclusion_victims") == GOLDEN_VICTIMS
        assert series.total_cycles == traced_run.max_cycles

    def test_untraced_result_exposes_no_intervals(self, golden_run):
        assert golden_run.intervals is None


class TestSamplerDoesNotPerturb:
    """Host-time sampling observes the simulator, not the simulated
    machine: every golden number must hold with the sampler armed."""

    @pytest.fixture(scope="class")
    def sampled_run(self):
        from repro.perf import PhaseSampler

        reference = baseline_hierarchy(2, scale=SCALE)
        config = SimConfig(
            hierarchy=baseline_hierarchy(2, scale=SCALE),
            instruction_quota=QUOTA,
            warmup_instructions=WARMUP,
        )
        with PhaseSampler() as sampler:
            result = CMPSimulator(
                config, mix_by_name("MIX_10").traces(reference)
            ).run()
        return result, sampler.report(result, result.host["wall_s"])

    def test_golden_numbers_unchanged_under_sampling(
        self, sampled_run, golden_run
    ):
        sampled, _ = sampled_run
        assert sampled.total_inclusion_victims == GOLDEN_VICTIMS
        assert sampled.total_llc_misses == GOLDEN_LLC_MISSES
        assert sampled.ipcs == golden_run.ipcs
        assert sampled.traffic == golden_run.traffic
        assert sampled.llc_stats == golden_run.llc_stats
        assert [c.stats for c in sampled.cores] == [
            c.stats for c in golden_run.cores
        ]

    def test_all_simulator_phases_counted(self, sampled_run):
        # This config produces inclusion victims (GOLDEN_VICTIMS > 0),
        # so even back_invalidate has a non-zero count.
        from repro.perf import SIMULATOR_PHASES

        _, phases = sampled_run
        for name in SIMULATOR_PHASES:
            assert phases[name]["count"] >= 1, name
