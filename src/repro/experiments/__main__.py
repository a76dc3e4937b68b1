"""CLI for the experiment drivers.

Usage::

    python -m repro.experiments list
    python -m repro.experiments table1
    python -m repro.experiments -j 4 figure7
    python -m repro.experiments --submit http://127.0.0.1:8321 table1
    python -m repro.experiments all

Fidelity knobs come from the environment (see
:class:`repro.experiments.ExperimentSettings`): ``REPRO_SCALE``,
``REPRO_QUOTA``, ``REPRO_WARMUP``, ``REPRO_SAMPLE``, ``REPRO_FULL``,
``REPRO_JOBS``, ``REPRO_JOB_TIMEOUT``.  ``--jobs/-j`` overrides
``REPRO_JOBS`` and fans each driver's simulation grid out over that
many worker processes (1 runs every job in-process).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import List, Optional

from ..metrics import ProgressReporter
from ..telemetry import RunTelemetry, TelemetryConfig, get_logger
from .registry import EXPERIMENTS, run_experiment
from .runner import ExperimentSettings, Runner

log = get_logger("repro.experiments")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of the TLA paper.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment names, 'list', or 'all'",
    )
    parser.add_argument(
        "--json-dir",
        help="also dump each experiment's result as <dir>/<name>.json",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the simulation grid "
        "(overrides REPRO_JOBS; 1 = serial)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="force the live progress line even on a non-TTY stderr",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record telemetry events and export JSONL + Chrome-trace "
        "artefacts (overrides REPRO_TRACE)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="DIR",
        default=None,
        help="telemetry export directory (default: traces/, or "
        "REPRO_TRACE_OUT)",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=None,
        metavar="N",
        help="record 1 in N eligible events (exact counts are kept "
        "regardless; overrides REPRO_TRACE_SAMPLE)",
    )
    parser.add_argument(
        "--host-phases",
        action="store_true",
        help="sample the simulator's own wall time into host phases "
        "and print the per-phase report (overrides REPRO_HOST_PHASES)",
    )
    parser.add_argument(
        "--submit",
        metavar="URL",
        default=None,
        help="execute simulations on a repro.service instance at URL "
        "(e.g. http://127.0.0.1:8321) instead of locally",
    )
    parser.add_argument(
        "--tenant",
        default=None,
        help="tenant name sent with --submit requests "
        "(quota accounting; default: the shared 'public' tenant)",
    )
    args = parser.parse_args(argv)

    if args.experiments == ["list"]:
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    if args.experiments == ["all"]:
        names = sorted(EXPERIMENTS)
    else:
        names = args.experiments
    settings = ExperimentSettings.from_env()
    if args.jobs is not None:
        settings = replace(settings, jobs=args.jobs)
    telemetry_config = settings.telemetry
    if args.trace or args.trace_out is not None or args.trace_sample is not None:
        telemetry_config = TelemetryConfig(
            enabled=args.trace or telemetry_config.enabled,
            out_dir=args.trace_out or telemetry_config.out_dir,
            sample=args.trace_sample or telemetry_config.sample,
            interval=telemetry_config.interval,
            categories=telemetry_config.categories,
        )
        settings = replace(settings, telemetry=telemetry_config)
    if args.host_phases:
        settings = replace(settings, host_phases=True)
    run_telemetry = (
        RunTelemetry(telemetry_config) if telemetry_config.active else None
    )
    reporter = ProgressReporter(enabled=True if args.progress else None)
    if args.submit:
        from .remote import RemoteRunner

        runner: Runner = RemoteRunner(
            args.submit,
            settings,
            reporter=reporter,
            telemetry=run_telemetry,
            tenant=args.tenant,
        )
    else:
        runner = Runner(settings, reporter=reporter, telemetry=run_telemetry)
    print(
        f"# settings: scale={settings.scale} quota={settings.quota} "
        f"warmup={settings.warmup} sample={settings.sample} "
        f"full={settings.full} jobs={settings.jobs}"
        + (
            f" trace={telemetry_config.out_dir}"
            if telemetry_config.active
            else ""
        )
    )
    sweep_start = time.perf_counter()
    for name in names:
        start = time.perf_counter()
        result = run_experiment(name, runner=runner)
        elapsed = time.perf_counter() - start
        print()
        print(result["report"])
        print(f"# {name} finished in {elapsed:.1f}s")
        if args.json_dir:
            from pathlib import Path

            from . import export

            directory = Path(args.json_dir)
            directory.mkdir(parents=True, exist_ok=True)
            export.to_json(result, directory / f"{name}.json")
    if settings.host_phases:
        from ..metrics.throughput import aggregate_host
        from ..perf import (
            format_host_report,
            format_phase_report,
            merge_phase_reports,
        )

        aggregate = aggregate_host(
            runner.host_digests,
            workers=max(1, settings.jobs),
            wall_s=time.perf_counter() - sweep_start,
        )
        phases = merge_phase_reports(
            digest.get("phases") for digest in runner.host_digests
        )
        print()
        print(format_host_report(aggregate, phases))
        if runner.phase_timer is not None and runner.phase_timer.totals:
            print("  sweep phases (orchestrator wall time):")
            print(
                format_phase_report(runner.phase_timer.report(), indent="    ")
            )
    if run_telemetry is not None:
        paths = run_telemetry.write(
            settings={
                "scale": settings.scale,
                "quota": settings.quota,
                "warmup": settings.warmup,
                "jobs": settings.jobs,
                "experiments": names,
            }
        )
        log.info(
            "telemetry_written",
            trace=str(paths["trace"]),
            manifest=str(paths["manifest"]),
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
