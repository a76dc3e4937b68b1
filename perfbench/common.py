"""Plumbing shared by the benchmark workloads.

Paths inside the checkout, an in-memory span recorder, percentiles,
output digests, set-up probes and the result line.  Nothing here
imports ``repro``: :func:`import_repro` is the single place that puts
the checkout's ``src/`` on the path, so a directory holding only the
benchmark fails there, before any measurement.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
RUN_PY = HERE / "run.py"
#: every file the benchmark writes lives under this directory.
WORK_ROOT = ROOT / ".perfbench-work"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1

#: fresh-process set-ups per run; their median is ``setup_s``.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60.0


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


class CheckFailed(Exception):
    """An output-correctness check failed."""


def import_repro() -> None:
    """Put the checkout's sources first on ``sys.path`` and import them."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401


def work_dir(tag: str) -> Path:
    """A fresh private directory for one run (removed by the caller)."""
    path = WORK_ROOT / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def child_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # The program reads REPRO_* knobs from the environment; the
    # benchmark passes every knob explicitly, so none may leak in.
    for name in [name for name in env if name.startswith("REPRO_")]:
        del env[name]
    return env


# -- spans ------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]


@dataclass
class Spans:
    """Spans kept in memory: name, start, end and the enclosing span."""

    records: List[Span] = field(default_factory=list)
    _stack: List[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent)
        self.records.append(record)
        self._stack.append(len(self.records) - 1)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> List[float]:
        return [s.end - s.start for s in self.records if s.name == name]

    def total(self, name: str) -> float:
        return math.fsum(self.durations(name))


def wrap_cache(cache, spans: Spans) -> None:
    """Record a span around ``store`` and ``load`` on one cache instance."""
    store, load = cache.store, cache.load

    def traced_store(key, summary):
        with spans.span("cache_store"):
            return store(key, summary)

    def traced_load(key):
        with spans.span("cache_load"):
            return load(key)

    cache.store = traced_store
    cache.load = traced_load


# -- statistics -------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]); needs a sample."""
    if not values:
        raise CheckFailed("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise CheckFailed("median of an empty sample")
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a running process, in MiB."""
    status = Path(f"/proc/{pid}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM for pid {pid}")


# -- host speed ---------------------------------------------------------------

#: mean seconds of one reference sample on the nominal host.
NOMINAL_REFERENCE_S = 0.0008


class HostSpeed:
    """Reference samples taken between operations throughout a run.

    The virtual hosts this runs on execute the same Python at speeds
    that drift by 20-40 % over minutes, which would swamp any change
    worth detecting.  So every run times a fixed pure-Python loop (no
    program code, garbage collection paused) between its operations,
    and time metrics are reported in seconds on the nominal host:
    measured seconds x ``factor``, the nominal over the run's mean
    reference time.  A faster or slower program moves the metrics in
    full; only the host's drift cancels.  Time spent sampling is kept
    out of every measured span.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._keys = list(range(2048))
        self._table = {key: 0 for key in self._keys}

    def sample(self) -> float:
        """Take one sample; returns the seconds it cost in all."""
        began = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            keys, table = self._keys, self._table
            acc = 0
            for i in range(3000):
                key = keys[(i * 7919) & 2047]
                table[key] = (table[key ^ 5] + key) & 0xFFFF
                acc += key >> 1
            elapsed = time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.samples.append(elapsed)
        return time.perf_counter() - began

    @property
    def factor(self) -> float:
        if not self.samples:
            raise CheckFailed("no host speed samples were taken")
        return NOMINAL_REFERENCE_S / math.fsum(self.samples) * len(self.samples)


#: units of the end-to-end metrics that :func:`put_host_scaled` scales.
TIMED_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_instr_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "cold_roundtrip_s_p50": "s",
    "cold_roundtrip_s_p90": "s",
    "memo_roundtrip_ms_p50": "ms",
    "memo_roundtrip_ms_p99": "ms",
    "requests_per_s": "1/s",
}


def put_host_scaled(result: "Result", measured: Dict[str, float], speed: HostSpeed) -> None:
    """Put measured times and rates in nominal-host units; the measured
    values themselves go into the notes."""
    factor = speed.factor
    for name, value in measured.items():
        unit = TIMED_UNITS[name]
        result.put(name, value / factor if unit == "1/s" else value * factor, unit)
    result.note(
        f"host speed factor {factor:.4f} from {len(speed.samples)} samples; "
        "measured " + ", ".join(f"{name} {value:.6g}" for name, value in measured.items())
    )


# -- output digests -----------------------------------------------------------


def entries_digest(entries: Iterable[Tuple[str, bytes]]) -> str:
    """sha256 over ``(job key, cache-entry bytes)`` in key order."""
    digest = hashlib.sha256()
    for key, data in sorted(entries):
        digest.update(key.encode())
        digest.update(b"\0")
        digest.update(data)
        digest.update(b"\0")
    return digest.hexdigest()


def check_pinned(golden: Path, workload: str, seed: int, digest: str) -> None:
    """Compare ``digest`` with the value pinned for (workload, seed)."""
    pinned = json.loads(golden.read_text()).get(workload, {}).get(str(seed))
    if pinned is not None and pinned != digest:
        raise CheckFailed(
            f"{workload} seed {seed}: output digest {digest} differs from "
            f"the pinned {pinned}"
        )


def check_counts_equal(label: str, first: Dict, other: Dict) -> None:
    if first != other:
        diff = sorted(
            name
            for name in set(first) | set(other)
            if first.get(name) != other.get(name)
        )
        raise CheckFailed(f"{label}: exact counts differ in {diff}")


# -- set-up probes -------------------------------------------------------------


def probe_setup(argv: Sequence[str], env: Dict[str, str]) -> float:
    """Seconds from starting ``argv`` to its first line of output.

    The probe prints ``ready`` once it could run its first timed
    operation and exits; anything else is an error.
    """
    start = time.perf_counter()
    with subprocess.Popen(
        list(argv),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=str(ROOT),
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("set-up probe did not exit")
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {line!r} {err[-2000:]}")
    return elapsed


def setup_probe_argv(workload: str, seed: int) -> List[str]:
    return [
        sys.executable,
        str(RUN_PY),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--setup-probe",
    ]


# -- reporting -------------------------------------------------------------


@dataclass
class Result:
    """What one run prints: metrics, human-readable notes, op counts."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, line: str) -> None:
        self.notes.append(line)


def emit(result: Result, wanted: Sequence[Tuple[str, str]], correct: bool) -> None:
    """Print the notes, a metric table, then the one-line JSON result.

    ``wanted`` is the metric list of BENCHMARK.json for this mode; any
    name a workload did not produce is a benchmark bug, unless a failed
    check cut the run short.
    """
    if correct:
        missing = [name for name, _ in wanted if name not in result.metrics]
        if missing:
            raise BenchError(f"metrics not produced: {missing}")
    else:
        wanted = [(name, unit) for name, unit in wanted if name in result.metrics]
    for line in result.notes:
        print(line)
    extra = sorted(set(result.metrics) - {name for name, _ in wanted})
    for name, unit in list(wanted) + [(n, result.metrics[n][1]) for n in extra]:
        value, got_unit = result.metrics[name]
        if got_unit != unit:
            raise BenchError(f"{name}: unit {got_unit} is not {unit}")
        print(f"  {name:34s} {value:>16.6g} {unit}")
    payload = {
        "correct": correct,
        "attempted": max(1, int(result.attempted)),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": result.metrics[name][0], "unit": unit}
            for name, unit in wanted
        },
    }
    print(json.dumps(payload), flush=True)
