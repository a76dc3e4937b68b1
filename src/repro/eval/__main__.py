"""``python -m repro.eval`` — regeneratable policy evaluation reports.

Four subcommands, all read-only over existing artefacts:

* ``slice`` — inventory: which workloads, categories and policies the
  cache can currently pair (run this first to see what a report would
  cover).
* ``ab`` — one contrast, printed as markdown: ``--policy`` vs
  ``--baseline`` across every metric and slice.
* ``report`` — the full document: every cached policy against the
  baseline, written as ``eval-report.json`` + ``eval-report.md``
  (byte-identical on regeneration; see :mod:`repro.eval.report`).
* ``longitudinal`` — diff two repo states: two ``BENCH_*.json`` files
  (``repro.perf``'s tolerant throughput comparison) or two cache
  directories (exact golden digest comparison), dispatched on whether
  the operands are directories.  Exits 1 on a regression or a changed
  digest and 2 on an operand it cannot read.

Nothing here ever starts a simulation: a missing (workload, policy)
cell is reported, not filled in.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..errors import ConfigurationError, ReproError
from ..perf.compare import compare_benches
from ..telemetry import get_logger
from .longitudinal import cache_digests, diff_digests, render_longitudinal
from .pairing import (
    BASELINE_POLICY,
    available_policies,
    discover_records,
    pair_records,
)
from .report import build_report, render_markdown, write_report
from .stats import DEFAULT_CONFIDENCE, DEFAULT_RESAMPLES, DEFAULT_SEED

log = get_logger("repro.eval")


def _add_stat_knobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--confidence",
        type=float,
        default=DEFAULT_CONFIDENCE,
        help="two-sided CI level (default %(default)s)",
    )
    parser.add_argument(
        "--resamples",
        type=int,
        default=DEFAULT_RESAMPLES,
        help="bootstrap/permutation resamples (default %(default)s)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="base seed for all resampling (default %(default)s)",
    )


def _add_cache(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache",
        default=".repro-cache",
        help="result-cache directory to evaluate (default %(default)s)",
    )
    parser.add_argument(
        "--baseline",
        default=BASELINE_POLICY,
        help="baseline policy as mode/tla (default %(default)s)",
    )


def cmd_slice(args) -> int:
    records = discover_records(args.cache)
    if not records:
        log.error("no_runs", cache=args.cache)
        return 1
    policies = available_policies(records)
    print(f"{len(records)} cached runs, {len(policies)} policies: "
          + ", ".join(policies))
    print()
    print("| category | workloads | policies covering all of them |")
    print("|---|---|---|")
    by_category = {}
    for record in records:
        by_category.setdefault(record.category, []).append(record)
    for category in sorted(by_category):
        members = by_category[category]
        workloads = sorted({record.mix for record in members})
        full = [
            policy
            for policy in policies
            if {
                record.mix for record in members if record.policy == policy
            } == set(workloads)
        ]
        print(
            f"| {category} | {', '.join(workloads)} |"
            f" {', '.join(full) if full else '—'} |"
        )
    return 0


def cmd_ab(args) -> int:
    records = discover_records(args.cache)
    pairing = pair_records(records, args.baseline, args.policy)
    if not pairing.pairs:
        log.error(
            "no_pairs",
            baseline=args.baseline,
            policy=args.policy,
            available=available_policies(records),
        )
        return 1
    report = build_report(
        records,
        baseline=args.baseline,
        policies=[args.policy],
        confidence=args.confidence,
        resamples=args.resamples,
        seed=args.seed,
    )
    print(render_markdown(report), end="")
    return 0


def cmd_report(args) -> int:
    records = discover_records(args.cache)
    report = build_report(
        records,
        baseline=args.baseline,
        policies=args.policies.split(",") if args.policies else None,
        confidence=args.confidence,
        resamples=args.resamples,
        seed=args.seed,
    )
    json_path, md_path = write_report(report, args.out, args.stem)
    log.info(
        "report_written",
        json=str(json_path),
        markdown=str(md_path),
        comparisons=len(report["comparisons"]),
        fingerprint=report["fingerprint"][:12],
    )
    print(render_markdown(report), end="")
    return 0


def cmd_longitudinal(args) -> int:
    """Exit 0 when stable, 1 on a regression or a changed digest, and
    2 when an operand cannot be read (as ``repro.perf compare``)."""
    old, new = Path(args.old), Path(args.new)
    if old.is_dir() != new.is_dir():
        log.error("mixed_operands", old=str(old), new=str(new))
        return 2
    if old.is_dir():
        diff = diff_digests(cache_digests(old), cache_digests(new))
        print(render_longitudinal(diff), end="")
        return 1 if diff["changed"] else 0
    from ..perf.bench import load_bench  # late: pulls in the simulator

    try:
        old_bench, new_bench = load_bench(old), load_bench(new)
    except ConfigurationError as error:
        log.error("unreadable_operand", error=str(error))
        return 2
    comparison = compare_benches(old_bench, new_bench, args.tolerance)
    print(comparison.render())
    return 0 if comparison.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="statistical A/B evaluation over cached sweep results",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    slice_parser = sub.add_parser(
        "slice", help="inventory cached runs by category and policy"
    )
    _add_cache(slice_parser)
    slice_parser.set_defaults(func=cmd_slice)

    ab = sub.add_parser("ab", help="one policy-vs-baseline contrast")
    _add_cache(ab)
    ab.add_argument("--policy", required=True, help="candidate mode/tla")
    _add_stat_knobs(ab)
    ab.set_defaults(func=cmd_ab)

    report = sub.add_parser(
        "report", help="full multi-policy report (markdown + JSON)"
    )
    _add_cache(report)
    report.add_argument(
        "--policies",
        default=None,
        help="comma-separated mode/tla list (default: every cached"
        " policy except the baseline)",
    )
    report.add_argument(
        "--out", default="eval-out", help="output directory (default %(default)s)"
    )
    report.add_argument(
        "--stem",
        default="eval-report",
        help="output file stem (default %(default)s)",
    )
    _add_stat_knobs(report)
    report.set_defaults(func=cmd_report)

    longitudinal = sub.add_parser(
        "longitudinal",
        help="diff two BENCH_*.json files or two cache directories",
    )
    longitudinal.add_argument("old", help="bench file or cache dir (before)")
    longitudinal.add_argument("new", help="bench file or cache dir (after)")
    longitudinal.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="bench regression threshold: fail when a scenario is more "
        "than this fraction slower, old/new > 1 + F (default %(default)s)",
    )
    longitudinal.set_defaults(func=cmd_longitudinal)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        log.error("eval_failed", error=str(error))
        return 1


if __name__ == "__main__":
    sys.exit(main())
