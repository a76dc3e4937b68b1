"""The repository's benchmark: cold policy sweeps and a service round trip.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep_llct --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # every workload, both modes

Workloads (their reasons are in BENCHMARK.json and the module
docstrings of ``sweeps`` and ``service_memo``):

* ``sweep_llct``  cold serial sweep over LLC-thrashing pairs
* ``sweep_ccf``   cold serial sweep over core-cache-fitting pairs
* ``service_memo`` cold and memoized round trips through
  ``python -m repro.service``

``--trace 0`` measures the end-to-end metrics with every probe off;
``--trace 1`` is a separate run that attaches the program's
``PhaseTimer`` through its public ``host_phases`` / ``phase_timer``
arguments, records spans around the benchmark's calls into each layer,
and reports the per-layer metrics.  Both list every metric by name and
unit, then print one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``.  End-to-end times and rates are in seconds on a nominal
host (``common.HostSpeed``): virtual hosts drift too much between runs
for raw wall time to resolve a change; the raw values are printed too.

Exit status: 0 when every output check passed; 1 when a check failed
(the JSON line then says ``"correct": false`` and counts every
attempted operation as failed); 2 when the benchmark cannot run here,
for example without the program's sources beside it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    DEFAULT_SEED,
    GOLDEN,
    ROOT,
    WORK_ROOT,
    BenchError,
    CheckFailed,
    Result,
    emit,
    import_repro,
    work_dir,
)

WORKLOADS = ("sweep_llct", "sweep_ccf", "service_memo")
ALL = "all"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=WORKLOADS + (ALL,),
        help=f"'{ALL}' runs every workload untraced, then traced",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--golden",
        type=Path,
        default=GOLDEN,
        help="pinned output digests per workload and seed",
    )
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help=argparse.SUPPRESS,  # child mode: set up, print 'ready', exit
    )
    return parser.parse_args(argv)


def metric_list(mode: str):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[mode]]


def run_all(args) -> int:
    """Every workload in both modes, one child process each."""
    worst = 0
    for trace in (0, 1):
        for workload in WORKLOADS:
            argv = [
                sys.executable, __file__, "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--golden", str(args.golden),
            ]
            print(f"== {workload} --trace {trace}", flush=True)
            worst = max(worst, subprocess.run(argv, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == ALL:
        return run_all(args)
    try:
        wanted = metric_list("per_layer" if args.trace else "end_to_end")
        import_repro()
    except (BenchError, OSError, ImportError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2
    if args.workload == "service_memo":
        import service_memo as workload
    else:
        import sweeps as workload
    work = work_dir(args.workload)
    try:
        started = time.perf_counter()
        inputs = workload.setup(args.workload, args.seed, work / "setup")
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        result = Result()
        correct = True
        try:
            if args.trace:
                workload.traced(
                    args.workload, args.seed, inputs, work, result, args.golden
                )
            else:
                workload.untraced(
                    args.workload, args.seed, args.seconds, inputs, work, result,
                    args.golden,
                )
        except CheckFailed as exc:
            result.note(f"CHECK FAILED: {exc}")
            correct = False
            result.failed = max(1, result.attempted)
        result.put(
            "failed_frac", result.failed / max(1, result.attempted), "ratio"
        )
        result.note(
            f"run took {time.perf_counter() - started:.1f} s; "
            f"{result.attempted} ops attempted, {result.failed} failed"
        )
        emit(result, wanted, correct)
        return 0 if correct else 1
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
