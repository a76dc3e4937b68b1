"""Probed-path golden table: TLA policy × probe set on MIX_10.

A *probe* is anything that keeps a core off its bare loop: telemetry
(event tracer plus interval collector), a prefetcher or a CacheSan
sanitizer.  The cross-product suite pins the simulated statistics with
a sanitizer on and off; this table also pins what the probes
themselves record, so a change to the probed loop cannot move an
interval window or a traced event unnoticed.

Each combination's digest is one short SHA-256 per component:

``sim``        IPCs, traffic, LLC stats, per-core counters, prefetches
               issued, and every core's instruction/cycle counts and
               measurement-window boundary cycles (floats by ``repr``);
``host``       the host digest's access and instruction counts;
``intervals``  the interval series, window by window;
``events``     the tracer's summary and its full event list.

A component the probe set does not produce is None.  Probes that do
not change what is simulated (all but the prefetcher) must also
reproduce the cross-product table's digest.  To re-baseline after a
deliberate behaviour change, run this file as a script and paste the
printed table.
"""

import dataclasses
import hashlib

import pytest

from repro import CMPSimulator, SimConfig, baseline_hierarchy
from repro.config import PrefetchConfig, SanitizeConfig, tla_preset
from repro.telemetry import TelemetryConfig
from repro.workloads import mix_by_name
from tests.test_regression_crossprod import GOLDEN as CROSSPROD_GOLDEN
from tests.test_regression_crossprod import QUOTA, SCALE, WARMUP, digest_of

COMPONENTS = ("sim", "host", "intervals", "events")

PRESETS = ("none", "tlh-l1", "qbs", "eci")

#: probe-set name -> the probes it attaches.
PROBE_SETS = {
    "telemetry": {"telemetry"},
    "prefetch": {"prefetch"},
    "sanitize": {"sanitize"},
    "all": {"telemetry", "prefetch", "sanitize"},
}

#: (tla preset, probe set) -> component digests, in COMPONENTS order.
GOLDEN = {
    ("none", "telemetry"): (
        "2808292dc6c7", "920f0915c064", "15d94c6bf8ee", "e875d12922c6",
    ),
    ("none", "prefetch"): (
        "263c99628351", "bf7bfe558176", None, None,
    ),
    ("none", "sanitize"): (
        "2808292dc6c7", "920f0915c064", None, None,
    ),
    ("none", "all"): (
        "263c99628351", "bf7bfe558176", "c3b9a8114873", "5e0402ad1830",
    ),
    ("tlh-l1", "telemetry"): (
        "f263d223d709", "392b860bcfca", "a7ae9bd4c6df", "b96cefdd5280",
    ),
    ("tlh-l1", "prefetch"): (
        "4de37e21d645", "e62c4dc72a30", None, None,
    ),
    ("tlh-l1", "sanitize"): (
        "f263d223d709", "392b860bcfca", None, None,
    ),
    ("tlh-l1", "all"): (
        "4de37e21d645", "e62c4dc72a30", "429a7fb9d8e9", "c55bd37e732a",
    ),
    ("qbs", "telemetry"): (
        "2a19e5ae1e5c", "6a08313f48e9", "831662e8dd85", "ccb91a9c9f05",
    ),
    ("qbs", "prefetch"): (
        "871313ac07d4", "2ccbede84f93", None, None,
    ),
    ("qbs", "sanitize"): (
        "2a19e5ae1e5c", "6a08313f48e9", None, None,
    ),
    ("qbs", "all"): (
        "871313ac07d4", "2ccbede84f93", "fa0981cc4233", "9c7d2ae177ed",
    ),
    ("eci", "telemetry"): (
        "3ae117de7c30", "324c51c2815e", "4aed157d45df", "290c05d8cdb0",
    ),
    ("eci", "prefetch"): (
        "b6e15eb01800", "4adb51ba0efa", None, None,
    ),
    ("eci", "sanitize"): (
        "3ae117de7c30", "324c51c2815e", None, None,
    ),
    ("eci", "all"): (
        "b6e15eb01800", "4adb51ba0efa", "811750187cc6", "a086049359ba",
    ),
}


def build(preset: str, probes: set) -> CMPSimulator:
    reference = baseline_hierarchy(2, scale=SCALE)
    hier = dataclasses.replace(
        baseline_hierarchy(2, tla=tla_preset(preset), scale=SCALE),
        sanitize=SanitizeConfig(enabled="sanitize" in probes, interval=2_000),
    )
    config = SimConfig(
        hierarchy=hier,
        instruction_quota=QUOTA,
        warmup_instructions=WARMUP,
        prefetch=PrefetchConfig(enabled="prefetch" in probes),
    )
    telemetry = None
    if "telemetry" in probes:
        telemetry = TelemetryConfig(enabled=True, interval=2_000)
    return CMPSimulator(
        config,
        mix_by_name("MIX_10").traces(reference),
        telemetry=telemetry,
    )


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:12]


def component_digests(sim: CMPSimulator, result) -> tuple:
    sim_state = (
        digest_of(result),
        sorted(result.traffic.items()),
        sorted(result.llc_stats.items()),
        [
            (
                core.instructions,
                repr(core.cycles),
                dataclasses.astuple(core.stats),
            )
            for core in result.cores
        ],
        [
            (
                core.timing.instructions,
                repr(core.timing.cycles),
                repr(core.cycles_at_warmup),
                repr(core.cycles_at_quota),
                None if core.prefetcher is None
                else core.prefetcher.prefetches_issued,
            )
            for core in sim.cores
        ],
        repr(result.max_cycles),
    )
    host = (result.host["accesses"], result.host["instructions"])
    intervals = None
    if result.intervals is not None:
        intervals = _sha(result.intervals.to_dict())
    events = None
    if sim.tracer is not None:
        events = _sha((sim.tracer.summary(), sim.tracer.events))
    return (_sha(sim_state), _sha(host), intervals, events)


@pytest.mark.parametrize(
    "combo",
    [(preset, probe) for preset in PRESETS for probe in PROBE_SETS],
    ids=lambda combo: f"{combo[0]}-{combo[1]}",
)
def test_probed_paths_match_golden(combo):
    preset, probe = combo
    sim = build(preset, PROBE_SETS[probe])
    result = sim.run()
    if "prefetch" not in PROBE_SETS[probe]:
        assert digest_of(result) == CROSSPROD_GOLDEN[("inclusive", preset, 0)]
    measured = dict(zip(COMPONENTS, component_digests(sim, result)))
    assert measured == dict(zip(COMPONENTS, GOLDEN[combo]))


if __name__ == "__main__":
    print("GOLDEN = {")
    for preset in PRESETS:
        for probe, probes in PROBE_SETS.items():
            sim = build(preset, probes)
            digests = component_digests(sim, sim.run())
            print(f'    ("{preset}", "{probe}"): (')
            print("        " + ", ".join(
                "None" if d is None else f'"{d}"' for d in digests
            ) + ",")
            print("    ),")
    print("}")
