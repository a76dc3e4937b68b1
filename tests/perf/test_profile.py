"""``python -m repro.perf profile``: exact stacks from the sampler."""

import signal
import time

import pytest

from repro.perf.__main__ import main
from repro.perf.sampler import PhaseSampler


def _busy_leaf(n=20_000):
    total = 0
    for i in range(n):
        total += i * i
    return total


def _busy_caller():
    return _busy_leaf() + _busy_leaf()


@pytest.fixture(scope="module")
def sampled():
    """A sampler that watched ~0.3 s of CPU in ``_busy_caller``."""
    with PhaseSampler() as sampler:
        start = time.process_time()
        while time.process_time() - start < 0.3:
            _busy_caller()
    return sampler


class TestCollapseStats:
    def test_lines_have_stack_and_count(self, sampled):
        lines = sampled.collapsed()
        assert lines
        total = 0
        for line in lines:
            stack, _, samples = line.rpartition(" ")
            assert stack
            total += int(samples)
        assert total == sum(sampled.stacks.values())

    def test_leaf_is_attributed_under_its_caller(self, sampled):
        """Stacks are exact: every leaf sample sits under its real
        caller, not a guessed heaviest edge."""
        leaf_lines = [line for line in sampled.collapsed() if "_busy_leaf" in line]
        assert leaf_lines
        for line in leaf_lines:
            frames = line.rpartition(" ")[0].split(";")
            assert frames[-1].endswith(":_busy_leaf")
            assert frames[-2].endswith(":_busy_caller")


class TestProfileCallable:
    def test_top_hotspots_readable(self, sampled):
        rows = sampled.top(count=5)
        assert 0 < len(rows) <= 5
        assert rows[0].endswith(":_busy_leaf")

    def test_profile_survives_raising_callable(self):
        """A profiled run that raises keeps the stacks sampled so far,
        and leaves the timer disarmed and the handler restored."""
        handler = signal.getsignal(signal.SIGPROF)
        with pytest.raises(RuntimeError):
            with PhaseSampler() as sampler:
                start = time.process_time()
                while time.process_time() - start < 0.1:
                    _busy_caller()
                raise RuntimeError("mid-profile failure")
        assert any("_busy_leaf" in line for line in sampler.collapsed())
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGPROF) is handler


class TestEntryPoints:
    def test_unknown_scenario_rejected(self, tmp_path):
        assert main(["profile", "no_such_scenario", "--scenario", "--out", str(tmp_path)]) == 2

    def test_unknown_experiment_rejected(self, tmp_path):
        assert main(["profile", "no_such_experiment", "--out", str(tmp_path)]) == 2

    def test_scenario_profile_writes_artifacts(self, tmp_path, capsys):
        assert main(["profile", "access_loop", "--scenario", "--out", str(tmp_path)]) == 0
        [path] = tmp_path.iterdir()
        assert path.name == "profile-scenario-access_loop.collapsed"
        assert "_bare_loop" in path.read_text()
        assert "top self-sample functions" in capsys.readouterr().out
