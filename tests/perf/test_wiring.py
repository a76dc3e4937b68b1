"""PhaseTimer wired through the simulator: coverage, fast path, digests."""

import pytest

from repro import CMPSimulator, SimConfig, baseline_hierarchy
from repro.perf import SIMULATOR_PHASES, PhaseTimer
from repro.workloads import mix_by_name

SCALE = 0.0625
QUOTA = 10_000


def small_sim(phase_timer=None):
    reference = baseline_hierarchy(2, scale=SCALE)
    config = SimConfig(
        hierarchy=baseline_hierarchy(2, scale=SCALE),
        instruction_quota=QUOTA,
    )
    return CMPSimulator(
        config,
        mix_by_name("MIX_10").traces(reference),
        phase_timer=phase_timer,
    )


class TestInstallation:
    """The timer's one slot is the hierarchy's (cores read it there)."""

    def test_default_run_installs_nothing(self):
        simulator = small_sim()
        assert simulator.hierarchy.phase_timer is None

    def test_disabled_timer_installs_nothing(self):
        """A constructed-but-disabled timer must leave every hook on
        the ``is None`` fast branch (the < 2 % disabled-cost bound)."""
        simulator = small_sim(PhaseTimer(enabled=False))
        assert simulator.hierarchy.phase_timer is None

    def test_enabled_timer_installs_everywhere(self):
        timer = PhaseTimer()
        simulator = small_sim(timer)
        assert simulator.hierarchy.phase_timer is timer


class TestHostDigest:
    def test_every_run_carries_a_host_digest(self):
        result = small_sim().run()
        host = result.host
        assert host is not None
        # Raw executed work: cores keep running (and competing for the
        # LLC) past their quota, so the host count >= the measured one.
        assert host["instructions"] >= result.total_instructions
        assert host["accesses"] > 0
        assert host["wall_s"] > 0
        assert host["instructions_per_s"] == pytest.approx(
            host["instructions"] / host["wall_s"]
        )
        assert "phases" not in host  # no timer attached

    def test_enabled_timer_adds_phase_report(self):
        result = small_sim(PhaseTimer()).run()
        phases = result.host["phases"]
        for name in ("sim_loop", "trace_gen", "l1_access"):
            assert phases[name]["s"] >= 0
            assert phases[name]["count"] >= 1
        assert set(phases) <= set(SIMULATOR_PHASES)

    def test_phases_cover_measured_wall_time(self):
        """Acceptance gate: exclusive attribution plus the sim_loop
        envelope must account for >= 95 % of the run's wall time."""
        timer = PhaseTimer()
        result = small_sim(timer).run()
        covered = timer.measured_total()
        assert covered / result.host["wall_s"] >= 0.95


class TestNonPerturbation:
    def test_timer_changes_no_simulated_statistic(self):
        plain = small_sim().run()
        timed = small_sim(PhaseTimer()).run()
        assert timed.ipcs == plain.ipcs
        assert timed.traffic == plain.traffic
        assert timed.llc_stats == plain.llc_stats
        assert (
            timed.total_inclusion_victims == plain.total_inclusion_victims
        )
