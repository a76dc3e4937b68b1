"""Integration tests for the CMP simulator (cores + hierarchy + timing)."""

import dataclasses
import itertools

import pytest

from repro.access import AccessType
from repro.config import SanitizeConfig
from repro.cpu import CMPSimulator
from repro.cpu.cmp import run_simulation
from repro.errors import SanitizerError, SimulationError
from repro.sanitize import ENV_VAR as SANITIZE_ENV_VAR
from repro.telemetry import TelemetryConfig
from repro.workloads import TraceRecord
from repro.workloads.synthetic import looping_trace, strided_trace
from tests.conftest import tiny_sim_config


def finite_trace(lines, count, gap=0):
    records = [
        TraceRecord(gap, AccessType.LOAD, (i % lines) * 64) for i in range(count)
    ]
    return iter(records)


class TestBasicRuns:
    def test_single_core_loop_runs_to_quota(self):
        config = tiny_sim_config(num_cores=1, quota=2_000)
        result = CMPSimulator(config, [looping_trace(8)]).run()
        assert result.cores[0].instructions == 2_000
        assert result.cores[0].ipc > 0

    def test_two_cores_both_reach_quota(self):
        config = tiny_sim_config(num_cores=2, quota=1_000)
        traces = [looping_trace(8), strided_trace(64, base_address=1 << 30)]
        result = CMPSimulator(config, traces).run()
        for core in result.cores:
            assert core.instructions == 1_000

    def test_trace_core_count_mismatch_rejected(self):
        config = tiny_sim_config(num_cores=2)
        with pytest.raises(SimulationError):
            CMPSimulator(config, [looping_trace(8)])

    def test_exhausted_trace_yields_partial_results(self):
        """A finite trace ending early closes the window gracefully."""
        config = tiny_sim_config(num_cores=1, quota=10_000)
        result = CMPSimulator(config, [finite_trace(8, 100)]).run()
        assert result.cores[0].instructions == 100
        assert result.cores[0].ipc > 0

    def test_all_traces_exhausted_with_unfinished_peer_raises(self):
        """If every runnable trace dies while quotas remain, fail loudly."""
        config = tiny_sim_config(num_cores=2, quota=10_000)
        sim = CMPSimulator(config, [finite_trace(8, 50), finite_trace(8, 50)])
        # Both traces exhaust before quota; both cores become done, so
        # the run completes with partial results rather than raising.
        result = sim.run()
        assert all(core.instructions == 50 for core in result.cores)

    def test_run_simulation_wrapper(self):
        config = tiny_sim_config(num_cores=1, quota=500)
        result = run_simulation(config, [looping_trace(4)])
        assert result.cores[0].instructions == 500


def loop_names(simulator):
    """Which loop body each core's burst driver runs."""
    names = []
    for core in simulator.cores:
        driver = core.burst_driver(8)
        names.append(driver.__name__)
        driver.close()
    return names


class TestProbeSlots:
    """Every probe has one slot, on the hierarchy; the core keeps none."""

    def _simulator(self, monkeypatch, **kwargs):
        monkeypatch.delenv(SANITIZE_ENV_VAR, raising=False)
        config = tiny_sim_config(num_cores=2, quota=1_000)
        return CMPSimulator(config, [looping_trace(8), looping_trace(8)], **kwargs)

    def test_default_run_installs_nothing_and_runs_bare(self, monkeypatch):
        simulator = self._simulator(monkeypatch)
        hierarchy = simulator.hierarchy
        assert hierarchy.tracer is None
        assert hierarchy.collector is None
        assert simulator.mshr.tracer is None
        assert loop_names(simulator) == ["_bare_loop", "_bare_loop"]

    def test_telemetry_attaches_to_the_hierarchy(self, monkeypatch):
        simulator = self._simulator(
            monkeypatch, telemetry=TelemetryConfig(enabled=True)
        )
        hierarchy = simulator.hierarchy
        assert hierarchy.tracer is not None
        assert hierarchy.tracer is simulator.tracer is simulator.mshr.tracer
        assert hierarchy.collector is not None
        assert loop_names(simulator) == ["_probed_loop", "_probed_loop"]
        result = simulator.run()
        assert result.intervals is not None
        assert result.intervals.num_windows >= 1


class TestLoopGate:
    """The bare loop inlines the LRU ``access`` closure, so it runs only
    while both L1s carry that closure."""

    @staticmethod
    def _simulator(monkeypatch, **l1d):
        monkeypatch.delenv(SANITIZE_ENV_VAR, raising=False)
        config = tiny_sim_config(num_cores=2, quota=1_000)
        hierarchy = dataclasses.replace(
            config.hierarchy,
            l1d=dataclasses.replace(config.hierarchy.l1d, **l1d),
        )
        config = dataclasses.replace(config, hierarchy=hierarchy)
        return CMPSimulator(config, [looping_trace(8), looping_trace(8)])

    @pytest.mark.parametrize(
        "l1d",
        [
            {"replacement": "fifo"},
            {"replacement": "nru"},
            {"replacement": "plru"},
            {"replacement": "srrip"},
            {"index_hash": True},
        ],
    )
    def test_non_lru_or_hashed_l1_runs_probed(self, monkeypatch, l1d):
        simulator = self._simulator(monkeypatch, **l1d)
        assert loop_names(simulator) == ["_probed_loop", "_probed_loop"]
        result = simulator.run()
        assert all(core.instructions >= 1_000 for core in result.cores)

    @pytest.mark.parametrize("replacement", ["lru", "lip", "mru"])
    def test_stock_lru_family_runs_bare(self, monkeypatch, replacement):
        simulator = self._simulator(monkeypatch, replacement=replacement)
        assert loop_names(simulator) == ["_bare_loop", "_bare_loop"]

    def test_replaced_l1_access_runs_probed_and_is_called(self, monkeypatch):
        simulator = self._simulator(monkeypatch)
        l1d = simulator.hierarchy.cores[0].l1d
        closure = l1d.access
        calls = []

        def counting_access(line_addr, write=False):
            calls.append(line_addr)
            return closure(line_addr, write)

        l1d.access = counting_access
        assert loop_names(simulator) == ["_probed_loop", "_bare_loop"]
        simulator.run()
        assert len(calls) == simulator.hierarchy.core_stats[0].l1d_accesses


class TestInterleaving:
    def test_slow_core_gets_proportionally_fewer_instructions(self):
        """A thrashing core advances fewer instructions per cycle."""
        config = tiny_sim_config(num_cores=2, quota=3_000)
        fast = looping_trace(4)  # all L1 hits
        slow = strided_trace(64, base_address=1 << 30)  # all misses
        sim = CMPSimulator(config, [fast, slow])
        result = sim.run()
        assert result.cores[0].ipc > result.cores[1].ipc * 2

    def test_fast_core_keeps_competing_after_quota(self):
        """Paper Section IV.B: finished threads keep running."""
        config = tiny_sim_config(num_cores=2, quota=2_000)
        fast = looping_trace(4)
        slow = strided_trace(64, base_address=1 << 30)
        sim = CMPSimulator(config, [fast, slow])
        sim.run()
        fast_core = sim.cores[0]
        # It executed beyond its quota...
        assert fast_core.instructions > fast_core.quota
        # ...but its recorded stats stop at the quota.
        stats = sim.hierarchy.core_stats[0]
        assert stats.l1d_accesses <= fast_core.quota

    def test_clocks_stay_loosely_synchronised(self):
        config = tiny_sim_config(num_cores=2, quota=2_000)
        sim = CMPSimulator(
            config, [looping_trace(4), looping_trace(4, base_address=1 << 30)]
        )
        sim.run()
        cycles = [core.cycles for core in sim.cores]
        assert abs(cycles[0] - cycles[1]) < max(cycles) * 0.1


class TestWarmup:
    def test_warmup_excluded_from_stats(self):
        config = tiny_sim_config(num_cores=1, quota=1_000, warmup=1_000)
        sim = CMPSimulator(config, [looping_trace(8)])
        result = sim.run()
        stats = sim.hierarchy.core_stats[0]
        # The loop fits the L1: after warm-up there are no misses at all.
        assert stats.l1d_misses == 0
        assert result.cores[0].instructions == 1_000

    def test_warmup_cycles_excluded_from_ipc(self):
        """Cold-start misses must not depress measured IPC."""
        cold = tiny_sim_config(num_cores=1, quota=1_000, warmup=0)
        warm = tiny_sim_config(num_cores=1, quota=1_000, warmup=1_000)
        # 64-line loop: fits L2+LLC, cold misses dominate a 1k window.
        ipc_cold = CMPSimulator(cold, [looping_trace(64)]).run().cores[0].ipc
        ipc_warm = CMPSimulator(warm, [looping_trace(64)]).run().cores[0].ipc
        assert ipc_warm > ipc_cold

    def test_zero_warmup_still_works(self):
        config = tiny_sim_config(num_cores=1, quota=100, warmup=0)
        result = CMPSimulator(config, [looping_trace(4)]).run()
        assert result.cores[0].instructions == 100


class TestResultShape:
    def test_throughput_is_sum_of_ipcs(self):
        config = tiny_sim_config(num_cores=2, quota=1_000)
        result = CMPSimulator(
            config, [looping_trace(4), looping_trace(4, base_address=1 << 30)]
        ).run()
        assert result.throughput == pytest.approx(sum(result.ipcs))

    def test_traffic_snapshot_present(self):
        config = tiny_sim_config(num_cores=1, quota=500)
        result = CMPSimulator(config, [strided_trace(64)]).run()
        assert result.traffic["memory_request"] > 0

    def test_gap_instructions_counted(self):
        config = tiny_sim_config(num_cores=1, quota=1_000)
        records = itertools.cycle([TraceRecord(9, AccessType.LOAD, 0)])
        result = CMPSimulator(config, [records]).run()
        # Each record is 10 instructions; quota reached at 100 records.
        assert result.cores[0].instructions >= 1_000
        assert result.cores[0].stats.l1d_accesses == 100

    def test_determinism(self):
        def once():
            config = tiny_sim_config(num_cores=2, quota=2_000)
            from repro.workloads.synthetic import random_trace

            traces = [
                random_trace(64, seed=1),
                random_trace(64, seed=2, base_address=1 << 30),
            ]
            result = CMPSimulator(config, traces).run()
            return (
                tuple(result.ipcs),
                result.total_llc_misses,
                result.total_inclusion_victims,
            )

        assert once() == once()


def sanitized(config, interval):
    """``config`` with CacheSan scanning every ``interval`` accesses."""
    return dataclasses.replace(
        config,
        hierarchy=dataclasses.replace(
            config.hierarchy,
            sanitize=SanitizeConfig(enabled=True, interval=interval),
        ),
    )


class TestInvariantChecking:
    def test_run_with_invariant_checks(self):
        """A sanitized run audits the hierarchy every 100 accesses."""
        config = sanitized(tiny_sim_config(num_cores=2, quota=1_500), 100)
        traces = [looping_trace(64), strided_trace(64, base_address=1 << 30)]
        result = CMPSimulator(config, traces).run()
        assert result.cores[0].instructions == 1_500

    def test_invariant_checks_catch_corruption(self):
        """Manually corrupting inclusion must be detected."""
        config = sanitized(tiny_sim_config(num_cores=1, quota=10_000), 10)
        sim = CMPSimulator(config, [looping_trace(8)])
        for _ in range(50):
            sim.cores[0].step()
        # Corrupt: drop a line from the LLC while the L1 keeps it.
        resident = next(iter(sim.hierarchy.cores[0].l1d.resident_lines()))
        sim.hierarchy.llc.invalidate(resident)
        with pytest.raises(SanitizerError, match="inclusion"):
            sim.hierarchy.check_invariants()
