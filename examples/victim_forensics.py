#!/usr/bin/env python3
"""Forensics: which inclusion victims actually hurt?

The paper's central claim is that the inclusive/non-inclusive gap is
explained by inclusion victims whose lines bounce straight back from
memory.  This script records the LLC and inclusion trace events of a
run of MIX_10, replays them into the analyzers and separates the
victims into *harmful* (re-fetched — each one cost a memory round
trip) and *dead* (never seen again — their eviction was free), then
shows where in the LLC the pressure that created them came from.

Run:  python examples/victim_forensics.py
"""

from repro import CMPSimulator, SimConfig, baseline_hierarchy
from repro.analysis import SetPressureProfiler, VictimReuseAnalyzer
from repro.hierarchy import build_hierarchy
from repro.metrics import format_table
from repro.telemetry import Tracer
from repro.workloads import mix_by_name

SCALE = 0.0625
QUOTA = 200_000
WARMUP = 100_000


def main() -> None:
    mix = mix_by_name("MIX_10")
    config = SimConfig(
        hierarchy=baseline_hierarchy(2, scale=SCALE),
        instruction_quota=QUOTA,
        warmup_instructions=WARMUP,
    )
    hierarchy = build_hierarchy(config.hierarchy)
    tracer = Tracer(categories=("llc", "inclusion"))
    hierarchy.tracer = tracer

    print("Simulating MIX_10 (libquantum + sjeng) with the tracer attached...")
    reference = baseline_hierarchy(2, scale=SCALE)
    CMPSimulator(config, mix.traces(reference), hierarchy=hierarchy).run()
    # The analyzers need every fill, eviction and victim event.
    assert tracer.dropped == tracer.sampled_out == 0
    analyzer = VictimReuseAnalyzer()
    profiler = SetPressureProfiler(hierarchy.llc)
    for event in tracer.events:
        analyzer.emit(*event)
        profiler.emit(*event)
    analyzer.finalize()

    summary = analyzer.summary()
    per_core = analyzer.victims_per_core()
    print()
    print(
        format_table(
            ["metric", "value"],
            [
                ["total inclusion victims", int(summary["total_victims"])],
                ["harmful (re-fetched)", int(summary["harmful_victims"])],
                ["harmful fraction", summary["harmful_fraction"]],
                ["median re-fetch distance (LLC fills)",
                 summary["median_refetch_distance"]],
                ["victims on core 0 (libquantum)", per_core.get(0, 0)],
                ["victims on core 1 (sjeng)", per_core.get(1, 0)],
            ],
            title="Victim forensics",
        )
    )

    histogram = analyzer.refetch_distance_histogram(bucket=64)
    print()
    print("re-fetch distance histogram (bucket = 64 LLC fills):")
    for bucket in sorted(histogram):
        print(f"  {bucket:6d}+ : {'#' * min(60, histogram[bucket])}")

    print()
    print(
        format_table(
            ["metric", "value"],
            [
                ["LLC fills observed", profiler.total_fills],
                ["LLC evictions observed", profiler.total_evictions],
                ["pressure skew (max/mean)", profiler.pressure_skew()],
            ],
            title="LLC set pressure",
        )
    )
    print()
    print(
        "sjeng (the core-cache-fitting app) absorbs nearly all the\n"
        "victims, and the harmful ones are re-fetched within a short\n"
        "window — exactly the hot-lines-bouncing-off-memory loop the\n"
        "TLA policies exist to break."
    )


if __name__ == "__main__":
    main()
