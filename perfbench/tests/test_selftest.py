"""Self-test of the benchmark: one short run of each workload and mode.

Run from the root of a checkout (takes about two minutes)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TIMEOUT_S = 300


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        RUN + list(args),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )


_RUNS = {}


def short_run(workload: str, trace: int):
    """One ``--seconds 1`` run per (workload, mode), shared by the tests."""
    if (workload, trace) not in _RUNS:
        proc = run_bench(
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace),
        )
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        _RUNS[workload, trace] = (proc.stdout, json.loads(proc.stdout.splitlines()[-1]))
    return _RUNS[workload, trace]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    stdout, result = short_run(workload, trace)
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in section]
    for metric in section:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
        # the human-readable table names it too
        assert f"  {metric['name']} " in stdout
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in section)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_phase_self_times_sum_to_the_traced_span(workload):
    _, result = short_run(workload, 1)
    metrics = result["metrics"]
    # per job: PhaseTimer self times vs the job's measured wall time
    assert metrics["trace.job_phase_coverage"]["value"] == pytest.approx(1.0, abs=0.01)
    # orchestration: the sweep- or broker-level timer vs its span
    assert 0.95 <= metrics["trace.orchestrate_phase_coverage"]["value"] <= 1.0 + 1e-6


def test_llc_path_share_separates_the_sweeps():
    def share(workload):
        metrics = short_run(workload, 1)[1]["metrics"]
        llc = sum(
            metrics[name]["value"]
            for name in (
                "hierarchy.llc_access_s",
                "cache.replacement_s",
                "hierarchy.back_invalidate_s",
            )
        )
        total = sum(
            metrics[name]["value"]
            for name in (
                "workloads.trace_gen_s",
                "cpu.sim_loop_s",
                "hierarchy.l1_access_s",
            )
        )
        return llc / (llc + total)

    assert share("sweep_llct") >= 3 * share("sweep_ccf")


def test_failed_check_exits_nonzero(tmp_path):
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"service_memo": {"3": "0" * 64}}))
    proc = run_bench(
        "--workload", "service_memo", "--seed", "3", "--seconds", "1",
        "--golden", str(golden),
    )
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "CHECK FAILED" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in (ROOT / "perfbench").glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "sweep_llct"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode not in (0, 1)
    assert proc.stdout == ""
