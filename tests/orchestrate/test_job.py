"""SimJob identity: keys match the runner's, execution is deterministic."""

import pickle

from repro.config import TLAConfig
from repro.experiments import ExperimentSettings, cache_key
from repro.experiments.runner import build_job
from repro.orchestrate import SimJob, execute_job, job_key
from repro.workloads import mix_by_name


def small_settings(**kwargs):
    defaults = dict(scale=0.0625, quota=8_000, warmup=2_000, cache_dir=None)
    defaults.update(kwargs)
    return ExperimentSettings(**defaults)


def small_job(**kwargs):
    defaults = dict(
        mix_name="MIX_01",
        apps=("dea", "pov"),
        scale=0.0625,
        quota=5_000,
        warmup=1_000,
    )
    defaults.update(kwargs)
    return SimJob(**defaults)


class TestJobKey:
    def test_equals_runner_cache_key(self):
        settings = small_settings()
        mix = mix_by_name("MIX_05")
        job = build_job(settings, mix, mode="non_inclusive", tla="none")
        assert job_key(job) == cache_key(settings, mix, mode="non_inclusive")

    def test_distinguishes_every_field(self):
        base = small_job()
        variants = [
            small_job(apps=("dea", "wrf")),
            small_job(mode="exclusive"),
            small_job(tla="eci", tla_config=TLAConfig(policy="eci")),
            small_job(llc_bytes=1 << 20),
            small_job(scale=0.125),
            small_job(quota=6_000),
            small_job(warmup=2_000),
            small_job(victim_cache_entries=2),
        ]
        keys = {job_key(job) for job in variants}
        assert job_key(base) not in keys
        assert len(keys) == len(variants)

    def test_mix_name_does_not_change_key(self):
        # Keys follow app composition so PAIR_* mixes share Table II runs.
        assert job_key(small_job(mix_name="A")) == job_key(
            small_job(mix_name="B")
        )

    def test_job_pickle_round_trip(self):
        job = small_job(tla="qbs", tla_config=TLAConfig(policy="qbs"))
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job
        assert job_key(clone) == job_key(job)


class TestExecuteJob:
    def test_deterministic_across_calls(self):
        job = small_job()
        first = execute_job(job)
        second = execute_job(job)
        assert first.ipcs == second.ipcs
        assert first.traffic == second.traffic
        assert first.llc_misses == second.llc_misses

    def test_matches_runner_run(self):
        settings = small_settings()
        mix = mix_by_name("MIX_01")
        from repro.experiments import Runner

        direct = execute_job(build_job(settings, mix))
        via_runner = Runner(settings).run(mix)
        assert direct.ipcs == via_runner.ipcs
        assert direct.traffic == via_runner.traffic
