"""Bench runner tests on tiny injected scenarios (no real simulation)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.perf.bench import (
    environment_fingerprint,
    load_bench,
    next_bench_path,
    run_bench,
    scenario_index,
    time_scenario,
    write_bench,
)
from repro.perf.scenarios import SCENARIO_ORDER, SCENARIOS, Scenario
from repro.perf.schema import validate_bench_dict


def tiny_scenario(name="tiny", work=100, floor=0.0):
    return Scenario(
        name=name,
        metric="units_per_s",
        work=work,
        floor=floor,
        round_fn=lambda: work,
        description="test scenario",
    )


class TestTimeScenario:
    def test_row_shape(self):
        row = time_scenario(tiny_scenario(), rounds=3)
        assert row["name"] == "tiny"
        assert row["work"] == 100
        assert row["rounds"] == 3
        assert len(row["runs"]) == 3
        assert row["value"] == pytest.approx(100 / row["best_s"])

    def test_value_is_best_of_n(self):
        row = time_scenario(tiny_scenario(), rounds=5)
        # min elapsed -> max rate.
        assert row["value"] == pytest.approx(max(row["runs"]))

    def test_zero_rounds_rejected(self):
        with pytest.raises(ConfigurationError):
            time_scenario(tiny_scenario(), rounds=0)

    def test_wrong_work_count_rejected(self):
        lying = Scenario(
            name="liar",
            metric="units_per_s",
            work=100,
            floor=0.0,
            round_fn=lambda: 7,
        )
        with pytest.raises(ConfigurationError):
            time_scenario(lying, rounds=1)


class TestRunBench:
    def test_artifact_is_schema_valid(self):
        artifact = run_bench(scenarios=[tiny_scenario()], rounds=2)
        assert validate_bench_dict(artifact) == []
        assert [row["name"] for row in artifact["scenarios"]] == ["tiny"]

    def test_empty_suite_rejected(self):
        with pytest.raises(ConfigurationError):
            run_bench(scenarios=[])

    def test_progress_called_per_scenario(self):
        lines = []
        run_bench(
            scenarios=[tiny_scenario("one"), tiny_scenario("two")],
            rounds=1,
            progress=lines.append,
        )
        assert len(lines) == 2
        assert "one" in lines[0] and "two" in lines[1]

    def test_quick_sets_fingerprint_flag(self):
        artifact = run_bench(scenarios=[tiny_scenario()], quick=True)
        assert artifact["fingerprint"]["quick"] is True

    def test_scenario_index(self):
        artifact = run_bench(scenarios=[tiny_scenario()], rounds=1)
        assert scenario_index(artifact)["tiny"]["work"] == 100


class TestFingerprint:
    def test_required_keys_present(self):
        fingerprint = environment_fingerprint()
        for key in ("python", "platform", "cpu_count", "version"):
            assert key in fingerprint


class TestArtifactFiles:
    def test_numbering_starts_at_zero(self, tmp_path):
        assert next_bench_path(tmp_path).name == "BENCH_0.json"

    def test_numbering_never_clobbers(self, tmp_path):
        (tmp_path / "BENCH_0.json").write_text("{}")
        (tmp_path / "BENCH_3.json").write_text("{}")
        (tmp_path / "BENCH_junk.json").write_text("{}")  # ignored
        assert next_bench_path(tmp_path).name == "BENCH_4.json"

    def test_write_load_roundtrip(self, tmp_path):
        artifact = run_bench(scenarios=[tiny_scenario()], rounds=1)
        path = write_bench(artifact, tmp_path / "BENCH_0.json")
        assert load_bench(path) == artifact

    def test_load_rejects_invalid_artifact(self, tmp_path):
        bad = tmp_path / "BENCH_0.json"
        bad.write_text(json.dumps({"schema": 1, "scenarios": []}))
        with pytest.raises(ConfigurationError):
            load_bench(bad)

    def test_load_rejects_malformed_json(self, tmp_path):
        bad = tmp_path / "BENCH_0.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_bench(bad)


class TestPinnedSuite:
    """The real suite's *declarations* (running it is the benchmark's job)."""

    def test_order_matches_registry(self):
        assert tuple(SCENARIOS) == SCENARIO_ORDER

    def test_every_scenario_is_self_consistent(self):
        for scenario in SCENARIOS.values():
            assert scenario.work > 0
            assert scenario.floor >= 0
            assert scenario.metric.endswith("_per_s")
