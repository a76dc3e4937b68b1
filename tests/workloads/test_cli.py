"""Tests for the trace-generation CLI (python -m repro.workloads)."""

import pytest

from repro.workloads.__main__ import main


class TestTraceCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("dea", "lib", "xal"):
            assert name in out

    def test_generate_and_inspect_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "lib.trace"
        assert main(
            ["generate", "lib", "--records", "2000", "--out", str(out_file)]
        ) == 0
        assert out_file.exists()
        assert main(["inspect", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "records:            2000" in out
        assert "distinct 64B lines" in out

    def test_generate_unknown_app(self, tmp_path):
        assert main(
            ["generate", "nope", "--out", str(tmp_path / "x.trace")]
        ) == 1

    def test_generated_trace_loads(self, tmp_path):
        from repro.workloads import load_trace

        out_file = tmp_path / "mcf.trace"
        main(["generate", "mcf", "--records", "500", "--out", str(out_file)])
        records = load_trace(out_file)
        assert len(records) == 500

    def test_core_offset_changes_addresses(self, tmp_path):
        from repro.workloads import load_trace

        a_file = tmp_path / "a.trace"
        b_file = tmp_path / "b.trace"
        main(["generate", "sje", "--records", "100", "--out", str(a_file),
              "--core", "0"])
        main(["generate", "sje", "--records", "100", "--out", str(b_file),
              "--core", "1"])
        a = load_trace(a_file)
        b = load_trace(b_file)
        assert {r.address >> 40 for r in a}.isdisjoint(
            {r.address >> 40 for r in b}
        )


class TestExperimentsCLI:
    def test_list(self, capsys):
        from repro.experiments.__main__ import main as exp_main

        assert exp_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure7" in out
        assert "table1" in out

    def test_table2_runs(self, capsys):
        from repro.experiments.__main__ import main as exp_main

        assert exp_main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "MIX_10" in out

    def test_unknown_experiment(self):
        from repro.errors import ExperimentError
        from repro.experiments.__main__ import main as exp_main

        with pytest.raises(ExperimentError):
            exp_main(["figure99"])

    def test_backend_flags_are_gone(self):
        """``-j`` alone picks the backend; the old backend flags are
        usage errors (exit 2)."""
        from repro.experiments.__main__ import main as exp_main

        for flags in (["--executor", "pool"], ["--bus-dir", "spool"]):
            with pytest.raises(SystemExit) as exited:
                exp_main(flags + ["list"])
            assert exited.value.code == 2
