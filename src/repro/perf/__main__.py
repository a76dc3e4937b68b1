"""``python -m repro.perf`` — the host-performance observability CLI.

Subcommands::

    bench   [--quick] [--rounds N] [--out PATH]
    compare OLD NEW [--tolerance F] [--warn-tolerance F]
    profile <experiment> [--scenario] [--out DIR]
    validate PATH [PATH...]

``bench`` runs the pinned scenario suite and writes the next
``BENCH_<n>.json`` trajectory point; ``compare`` applies the
noise-tolerant thresholds and exits non-zero on regression (CI's gate);
``profile`` samples an experiment or a scenario's rounds with a
:class:`~repro.perf.sampler.PhaseSampler`, writes the exact stacks as
``profile-<label>.collapsed`` and prints the top self-sample lines;
``validate`` schema-checks existing artifacts.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from ..errors import ConfigurationError, ReproError
from ..telemetry import get_logger
from .bench import load_bench, run_bench, write_bench
from .compare import DEFAULT_TOLERANCE, compare_benches
from .schema import validate_bench

log = get_logger("repro.perf")


def _cmd_bench(args) -> int:
    artifact = run_bench(rounds=args.rounds, quick=args.quick, progress=print)
    path = write_bench(artifact, Path(args.out) if args.out else None)
    print(f"# wrote {path}")
    return 0


def _cmd_compare(args) -> int:
    old = load_bench(args.old)
    new = load_bench(args.new)
    comparison = compare_benches(
        old,
        new,
        tolerance=args.tolerance,
        warn_tolerance=args.warn_tolerance,
    )
    print(comparison.render())
    return 0 if comparison.ok else 1


#: wall seconds a profiled scenario repeats its round for: the sampler
#: takes ~250 samples per CPU second, and one round is a fraction of one.
PROFILE_SCENARIO_S = 1.0


def _cmd_profile(args) -> int:
    from .sampler import PhaseSampler

    target = args.target
    if args.scenario:
        from .scenarios import SCENARIOS

        if target not in SCENARIOS:
            raise ConfigurationError(
                f"unknown scenario {target!r}; known: {', '.join(SCENARIOS)}"
            )
        label, work = f"scenario-{target}", SCENARIOS[target].round_fn
    else:
        from ..experiments.registry import EXPERIMENTS, run_experiment
        from ..experiments.runner import ExperimentSettings, Runner

        if target not in EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {target!r}; see `python -m repro.experiments list`"
            )
        # Serial, into a memory-only result cache: profiling a cache
        # replay would sample JSON parsing, not the simulator.
        runner = Runner(replace(ExperimentSettings.from_env(), cache_dir=None, jobs=1))
        label, work = target, lambda: run_experiment(target, runner=runner)
    with PhaseSampler() as sampler:
        start = time.perf_counter()
        work()
        while args.scenario and time.perf_counter() - start < PROFILE_SCENARIO_S:
            work()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"profile-{label}.collapsed"
    path.write_text("\n".join(sampler.collapsed()) + "\n", encoding="utf-8")
    print(f"# wrote {path} ({sum(sampler.stacks.values())} samples)")
    print("# top self-sample functions:")
    for line in sampler.top():
        print(line)
    return 0


def _cmd_validate(args) -> int:
    failures = 0
    for path in args.paths:
        errors = validate_bench(path)
        if errors:
            failures += 1
            log.error("schema_errors", file=str(path), errors=errors[:20])
        else:
            log.info("schema_ok", file=str(path))
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="host-side performance observability for the simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run the pinned benchmark suite")
    bench.add_argument(
        "--quick", action="store_true", help="fewer rounds (CI smoke mode)"
    )
    bench.add_argument(
        "--rounds", type=int, default=None, metavar="N",
        help="timed rounds per scenario (overrides --quick)",
    )
    bench.add_argument(
        "--out", default=None, metavar="PATH",
        help="artifact path (default: next BENCH_<n>.json in the cwd)",
    )
    bench.set_defaults(fn=_cmd_bench)

    compare = sub.add_parser("compare", help="compare two bench artifacts")
    compare.add_argument("old", help="baseline BENCH_*.json")
    compare.add_argument("new", help="candidate BENCH_*.json")
    compare.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE, metavar="F",
        help="hard-fail slowdown fraction (default %(default)s: fail when "
        "a scenario is >30%% slower; CI passes a loose value like 2.0)",
    )
    compare.add_argument(
        "--warn-tolerance", type=float, default=None, metavar="F",
        help="report (not fail) slowdowns above this fraction but within "
        "--tolerance",
    )
    compare.set_defaults(fn=_cmd_compare)

    profile = sub.add_parser(
        "profile", help="sample an experiment's (or bench scenario's) stacks"
    )
    profile.add_argument(
        "target", help="experiment name (or scenario name with --scenario)"
    )
    profile.add_argument(
        "--scenario", action="store_true",
        help="profile a pinned bench scenario instead of an experiment",
    )
    profile.add_argument(
        "--out", default=".", metavar="DIR", help="artifact directory"
    )
    profile.set_defaults(fn=_cmd_profile)

    validate = sub.add_parser(
        "validate", help="schema-check BENCH_*.json artifacts"
    )
    validate.add_argument("paths", nargs="+", help="artifact files")
    validate.set_defaults(fn=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        log.error("perf_cli_failed", command=args.command, error=str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
