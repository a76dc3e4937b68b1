"""The sampler wired through ``execute_job``: loop, digests, counts, bytes."""

import signal

import pytest

from repro import CMPSimulator, SimConfig, baseline_hierarchy
from repro.config import tla_preset
from repro.cpu import SimulatedCore
from repro.errors import SimulationError
from repro.orchestrate import ResultCache, SimJob, execute_job, job_key
from repro.orchestrate import job as job_module
from repro.perf import SIMULATOR_PHASES, PhaseSampler
from repro.workloads import mix_by_name

SCALE = 0.0625
QUOTA = 10_000


def small_sim(tla="none", traces=None):
    reference = baseline_hierarchy(2, scale=SCALE)
    config = SimConfig(
        hierarchy=baseline_hierarchy(2, scale=SCALE, tla=tla_preset(tla)),
        instruction_quota=QUOTA,
    )
    return CMPSimulator(
        config, traces or mix_by_name("MIX_10").traces(reference)
    )


def small_job(**overrides) -> SimJob:
    fields = dict(
        mix_name="MIX_10",
        apps=mix_by_name("MIX_10").apps,
        scale=SCALE,
        quota=QUOTA,
        warmup=1_000,
    )
    fields.update(overrides)
    return SimJob(**fields)


class TestInstallation:
    """Sampling is the job's business: the simulator keeps its bare loop."""

    def test_default_run_installs_nothing(self, monkeypatch):
        def refuse():
            raise AssertionError("an unsampled job built a sampler")

        monkeypatch.setattr(job_module, "PhaseSampler", refuse)
        handler = signal.getsignal(signal.SIGPROF)
        summary = execute_job(small_job())
        assert "phases" not in summary.host
        assert signal.getsignal(signal.SIGPROF) is handler

    def test_sampled_job_runs_the_bare_loop(self, monkeypatch):
        """Both cores run ``_bare_loop`` and send their L1 misses to the
        hierarchy's miss closure, as an unsampled job does."""
        loops = []
        burst_driver = SimulatedCore.burst_driver

        def recording(core, count):
            driver = burst_driver(core, count)
            miss_path = driver.gi_frame.f_locals.get("miss_path")
            loops.append((driver.__name__, getattr(miss_path, "__name__", None)))
            return driver

        monkeypatch.setattr(SimulatedCore, "burst_driver", recording)
        summary = execute_job(small_job(host_phases=True))
        assert "phases" in summary.host
        assert loops == [("_bare_loop", "miss_path")] * 2

    def test_raising_job_disarms_and_restores_the_handler(self, monkeypatch):
        def boom(simulator):
            raise SimulationError("failure after the run loop")

        def previous(signum, frame):
            pass

        monkeypatch.setattr(CMPSimulator, "_collect", boom)
        saved = signal.signal(signal.SIGPROF, previous)
        try:
            with pytest.raises(SimulationError):
                execute_job(small_job(host_phases=True))
            assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
            assert signal.getsignal(signal.SIGPROF) is previous
        finally:
            signal.signal(signal.SIGPROF, saved)


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
        assert "phases" not in host

    def test_sampled_job_adds_phase_report(self):
        phases = execute_job(small_job(host_phases=True)).host["phases"]
        assert set(phases) == set(SIMULATOR_PHASES) | {"execute_job"}
        for row in phases.values():
            assert row["s"] >= 0
        assert phases["sim_loop"]["count"] == phases["execute_job"]["count"] == 1
        assert phases["trace_gen"]["count"] > 0

    def test_phases_cover_measured_wall_time(self):
        """The phases split the job's measured wall time exactly."""
        host = execute_job(small_job(host_phases=True)).host
        covered = sum(row["s"] for row in host["phases"].values())
        assert covered == pytest.approx(host["job_wall_s"])

    @pytest.mark.parametrize("tla", ["none", "eci", "qbs", "tlh-l1"])
    def test_every_phase_count_equals_its_counter(self, tla):
        drawn = [0]

        def counted(trace):
            for record in trace:
                drawn[0] += 1
                yield record

        reference = baseline_hierarchy(2, scale=SCALE)
        traces = [counted(t) for t in mix_by_name("MIX_10").traces(reference)]
        with PhaseSampler() as sampler:
            result = small_sim(tla, traces).run()
        traffic = result.traffic
        report = sampler.report(result, result.host["wall_s"])
        assert {name: row["count"] for name, row in report.items()} == {
            "sim_loop": 1,
            "execute_job": 1,
            "trace_gen": drawn[0],
            "l1_access": drawn[0],
            "llc_access": traffic["llc_request"],
            "replacement": result.llc_stats["fills"],
            "back_invalidate": traffic["back_invalidate"] + traffic["eci_invalidate"],
        }


class TestNonPerturbation:
    def test_sampler_changes_no_simulated_statistic(self, tmp_path):
        key = job_key(small_job())
        for name, sampled in (("plain", False), ("sampled", True)):
            summary = execute_job(small_job(host_phases=sampled))
            assert ("phases" in summary.host) is sampled
            ResultCache(str(tmp_path / name)).store(key, summary)
        plain = (tmp_path / "plain" / f"{key}.json").read_bytes()
        assert (tmp_path / "sampled" / f"{key}.json").read_bytes() == plain
