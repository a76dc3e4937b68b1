"""Cross-product golden regression: hierarchy modes × TLA presets.

The single-configuration golden run (``test_regression_golden``) pins
the baseline machine; this suite pins one digest per (hierarchy mode,
TLA preset, victim-cache) combination so a storage- or policy-layer
change that is only correct for the baseline path cannot slip through.
Every combination runs twice against the same table: with CacheSan
sanitizers on (the core's probed burst loop) and off (the bare loop,
which probes the L1 inline), so each loop is pinned on every mode and
policy.  Every value here was generated from the pre-packed-tag-store
object model and verified byte-identical against the packed engine,
so these digests double as the refactor's equivalence certificate.

IPCs are pinned by exact ``repr`` (bit-identical floats): the packed
tag store and the fused timing accounting are required to perform the
same float operations in the same order as the original code.
"""

import dataclasses
import os

import pytest

from repro import CMPSimulator, SimConfig, baseline_hierarchy
from repro.config import SanitizeConfig, tla_preset
from repro.workloads import mix_by_name

SCALE = 0.0625
QUOTA = 40_000
WARMUP = 10_000

IPC1 = "3.2118105537926245"  # core 1 never shares victims; same everywhere

#: (mode, tla preset, victim-cache entries) -> pinned digest.
#: digest = (victims, llc_misses, evictions, llc_hits, promotions,
#:           back_invalidate, eci_invalidate, qbs_query, tlh_hint,
#:           writeback, ipc0_repr, ipc1_repr)
GOLDEN = {
    ("inclusive", "none", 0): (
        42, 1550, 98, 0, 0, 98, 0, 0, 0, 441, "0.6259027871928846", IPC1
    ),
    ("inclusive", "tlh-l1", 0): (
        18, 1547, 74, 0, 130382, 74, 0, 0, 130382, 435,
        "0.6318847004199425", IPC1,
    ),
    ("inclusive", "eci", 0): (
        8, 1542, 72, 33, 0, 26, 153, 0, 0, 443, "0.6334557641174667", IPC1
    ),
    ("inclusive", "qbs", 0): (
        0, 1541, 58, 0, 42, 58, 0, 100, 0, 422, "0.635286802813818", IPC1
    ),
    ("non_inclusive", "none", 0): (
        0, 1541, 58, 0, 0, 0, 0, 0, 0, 417, "0.635286802813818", IPC1
    ),
    ("non_inclusive", "tlh-l1", 0): (
        0, 1541, 58, 0, 122570, 0, 0, 0, 131916, 420,
        "0.635286802813818", IPC1,
    ),
    ("non_inclusive", "eci", 0): (
        0, 1541, 58, 36, 0, 0, 139, 0, 0, 434, "0.6362265360123018", IPC1
    ),
    ("non_inclusive", "qbs", 0): (
        0, 1541, 58, 0, 42, 0, 0, 100, 0, 422, "0.635286802813818", IPC1
    ),
    ("exclusive", "none", 0): (
        0, 1541, 0, 0, 0, 0, 0, 0, 0, 0, "0.635286802813818", IPC1
    ),
    ("inclusive", "none", 32): (
        42, 1541, 98, 0, 0, 98, 0, 0, 0, 434, "0.6353069829209173", IPC1
    ),
    ("inclusive", "qbs", 32): (
        0, 1541, 58, 0, 42, 58, 0, 100, 0, 415, "0.635286802813818", IPC1
    ),
}


def build_combo(mode: str, preset: str, victim_entries: int, sanitize: bool):
    reference = baseline_hierarchy(2, scale=SCALE)
    hier = dataclasses.replace(
        baseline_hierarchy(2, mode=mode, tla=tla_preset(preset), scale=SCALE),
        victim_cache_entries=victim_entries,
        sanitize=SanitizeConfig(enabled=sanitize, interval=2_000),
    )
    config = SimConfig(
        hierarchy=hier, instruction_quota=QUOTA, warmup_instructions=WARMUP
    )
    return CMPSimulator(config, mix_by_name("MIX_10").traces(reference))


def digest_of(result):
    traffic = result.traffic
    return (
        result.total_inclusion_victims,
        result.total_llc_misses,
        result.llc_stats["evictions"],
        result.llc_stats["hits"],
        result.llc_stats["promotions"],
        traffic["back_invalidate"],
        traffic["eci_invalidate"],
        traffic["qbs_query"],
        traffic["tlh_hint"],
        traffic["writeback"],
        repr(result.ipcs[0]),
        repr(result.ipcs[1]),
    )


combos = pytest.mark.parametrize(
    "combo", sorted(GOLDEN), ids=lambda c: f"{c[0]}-{c[1]}-vc{c[2]}"
)


@combos
def test_mode_tla_cross_product_matches_seed(combo):
    """Sanitizers on: the core runs its probed (hook-calling) loop."""
    sim = build_combo(*combo, sanitize=True)
    assert digest_of(sim.run()) == GOLDEN[combo]


@combos
def test_mode_tla_cross_product_bare_loop_matches_seed(combo):
    """Sanitizers off: the core runs its bare loop (inline L1 probe)."""
    if "REPRO_SANITIZE" in os.environ:
        pytest.skip("REPRO_SANITIZE overrides the per-config sanitizer switch")
    sim = build_combo(*combo, sanitize=False)
    assert sim.hierarchy.sanitizer is None
    assert digest_of(sim.run()) == GOLDEN[combo]
