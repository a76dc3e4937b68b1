"""Noise-tolerant bench comparison: thresholds, notes, CLI exit codes."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.perf import compare_benches


def artifact(fingerprint=None, **rates):
    return {
        "schema": 1,
        "fingerprint": fingerprint
        or {
            "python": "3.9.0",
            "platform": "test",
            "cpu_count": 4,
            "version": "1.0.0",
        },
        "scenarios": [
            {
                "name": name,
                "metric": "units_per_s",
                "work": 100,
                "value": value,
                "runs": [value],
            }
            for name, value in rates.items()
        ],
    }


class TestThresholds:
    def test_within_noise_is_ok(self):
        comparison = compare_benches(artifact(a=1000.0), artifact(a=950.0))
        assert comparison.deltas[0].status == "ok"
        assert comparison.ok

    def test_regression_beyond_tolerance(self):
        # 1000 -> 500 is a 2.0x slowdown, over the default 1.3x.
        comparison = compare_benches(artifact(a=1000.0), artifact(a=500.0))
        delta = comparison.deltas[0]
        assert delta.status == "regression"
        assert delta.slowdown == pytest.approx(2.0)
        assert not comparison.ok
        assert "REGRESSION" in comparison.render()

    def test_improvement_is_never_fatal(self):
        comparison = compare_benches(artifact(a=500.0), artifact(a=1000.0))
        assert comparison.deltas[0].status == "improved"
        assert comparison.ok

    def test_warn_band_between_warn_and_hard(self):
        # 20% slower: above warn (0.1), below hard-fail (1.0).
        comparison = compare_benches(
            artifact(a=1000.0),
            artifact(a=833.0),
            tolerance=1.0,
            warn_tolerance=0.1,
        )
        assert comparison.deltas[0].status == "warning"
        assert comparison.ok  # warnings never fail the gate
        assert "warning" in comparison.render()

    def test_custom_tolerance(self):
        comparison = compare_benches(
            artifact(a=1000.0), artifact(a=950.0), tolerance=0.01
        )
        assert comparison.deltas[0].status == "regression"

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_benches(artifact(a=1.0), artifact(a=1.0), tolerance=-0.1)

    def test_warn_tolerance_above_hard_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_benches(
                artifact(a=1.0),
                artifact(a=1.0),
                tolerance=0.3,
                warn_tolerance=0.5,
            )


class TestScenarioDrift:
    def test_missing_scenario_is_a_note_not_a_failure(self):
        comparison = compare_benches(artifact(a=1.0, b=1.0), artifact(a=1.0))
        assert comparison.ok
        assert any("'b' missing" in note for note in comparison.notes)

    def test_new_scenario_is_a_note(self):
        comparison = compare_benches(artifact(a=1.0), artifact(a=1.0, b=1.0))
        assert comparison.ok
        assert any("'b' is new" in note for note in comparison.notes)

    def test_nonpositive_rate_skipped_with_note(self):
        comparison = compare_benches(artifact(a=0.0), artifact(a=100.0))
        assert comparison.deltas == []
        assert any("non-positive" in note for note in comparison.notes)

    def test_differing_fingerprints_noted(self):
        other = {
            "python": "3.11.0",
            "platform": "test",
            "cpu_count": 4,
            "version": "1.0.0",
        }
        comparison = compare_benches(
            artifact(a=1.0), artifact(fingerprint=other, a=1.0)
        )
        assert any("fingerprints differ" in note for note in comparison.notes)


class TestCompareCLI:
    def _write(self, tmp_path, name, **rates):
        from repro.perf.bench import write_bench

        return write_bench(artifact(**rates), tmp_path / name)

    def test_exit_zero_when_ok(self, tmp_path, capsys):
        from repro.perf.__main__ import main

        old = self._write(tmp_path, "BENCH_0.json", a=1000.0)
        new = self._write(tmp_path, "BENCH_1.json", a=1000.0)
        assert main(["compare", str(old), str(new)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        from repro.perf.__main__ import main

        old = self._write(tmp_path, "BENCH_0.json", a=1000.0)
        new = self._write(tmp_path, "BENCH_1.json", a=100.0)
        assert main(["compare", str(old), str(new)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_exit_two_on_invalid_artifact(self, tmp_path):
        from repro.perf.__main__ import main

        bad = tmp_path / "BENCH_0.json"
        bad.write_text('{"schema": 1}')
        good = self._write(tmp_path, "BENCH_1.json", a=1.0)
        assert main(["compare", str(bad), str(good)]) == 2

    @pytest.mark.parametrize("content", [None, "{not json"])
    def test_exit_two_on_unreadable_artifact(self, tmp_path, capsys, content):
        """A missing or non-JSON file is an operand error with a logged
        diagnostic, not a traceback."""
        from repro.perf.__main__ import main

        bad = tmp_path / "BENCH_0.json"
        if content is not None:
            bad.write_text(content)
        good = self._write(tmp_path, "BENCH_1.json", a=1.0)
        assert main(["compare", str(bad), str(good)]) == 2
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert record["level"] == "error"
        assert record["event"] == "perf_cli_failed"
        assert str(bad) in record["error"]

    def test_validate_subcommand(self, tmp_path):
        from repro.perf.__main__ import main

        good = self._write(tmp_path, "BENCH_0.json", a=1.0)
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 1}')
        assert main(["validate", str(good)]) == 0
        assert main(["validate", str(good), str(bad)]) == 1
