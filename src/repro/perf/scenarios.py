"""The pinned benchmark scenario suite — one source of truth.

Both consumers use exactly these definitions:

* ``python -m repro.perf bench`` times each scenario's round callable
  min-of-N and writes the rates into a ``BENCH_<n>.json`` artifact;
* ``benchmarks/test_simulator_speed.py`` wraps the same callables in
  pytest-benchmark and (only under ``REPRO_BENCH_STRICT=1``) asserts
  the throughput floors declared here.

Keeping work sizes, machine scale and floors in this one block means a
floor can never drift away from what the continuous-benchmark
trajectory measures.  Scenario *identity* is load-bearing: renaming a
scenario orphans its history in every ``BENCH_*.json``, so add new
names instead of repurposing old ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

#: machine scale every scenario simulates at (mirrors the experiment
#: default: an eighth-sized hierarchy with all capacity ratios intact).
SCALE = 0.0625

#: instructions simulated per access-loop round (2 cores x quota).
ACCESS_LOOP_INSTRUCTIONS = 40_000
#: trace records generated per trace-generator round.
TRACE_GEN_RECORDS = 50_000
#: accesses issued per cache-array round.
CACHE_ARRAY_ACCESSES = 50_000
#: instructions simulated per LLC-thrash round (2 cores x quota); the
#: miss/fill/victim path is much slower per record than the hit path,
#: so the round stays smaller than ``access_loop``.
LLC_THRASH_INSTRUCTIONS = 20_000

#: throughput floors (units/second) enforced by the strict benchmarks —
#: loose enough for any reasonable machine, tight enough to catch a
#: 2x hot-path regression.
FLOOR_ACCESS_LOOP = 30_000.0
FLOOR_TRACE_GEN = 200_000.0
FLOOR_CACHE_ARRAY = 200_000.0
#: deliberately low: every record walks the full miss path (LLC miss,
#: fill, inclusion victim), the slowest per-record work the simulator
#: does.
FLOOR_LLC_THRASH = 5_000.0


@dataclass(frozen=True)
class Scenario:
    """One pinned benchmark workload.

    ``round_fn`` performs one full round of work and returns the number
    of work units completed (the timed rate is ``work / elapsed``).
    ``floor`` is the strict-mode units/second floor; ``metric`` names
    the rate unit in artifacts and reports.
    """

    name: str
    metric: str
    work: int
    floor: float
    round_fn: Callable[[], int]
    description: str = ""


def _access_loop_round(tla: str = "none") -> int:
    """Simulate 40k instructions of MIX_10 through the full hierarchy,
    under the TLA preset ``tla``."""
    from repro import CMPSimulator, SimConfig, baseline_hierarchy
    from repro.config import tla_preset
    from repro.workloads import mix_by_name

    reference = baseline_hierarchy(2, scale=SCALE)
    config = SimConfig(
        hierarchy=baseline_hierarchy(2, scale=SCALE, tla=tla_preset(tla)),
        instruction_quota=ACCESS_LOOP_INSTRUCTIONS // 2,
    )
    result = CMPSimulator(config, mix_by_name("MIX_10").traces(reference)).run()
    return result.total_instructions


def access_loop_round() -> int:
    return _access_loop_round()


def tlh_l1_loop_round() -> int:
    """The access loop with TLH-L1: one LLC hint per L1 hit."""
    return _access_loop_round(tla="tlh-l1")


def eci_loop_round() -> int:
    """The access loop with ECI: an early invalidate per LLC miss fill."""
    return _access_loop_round(tla="eci")


def qbs_loop_round() -> int:
    """The access loop with QBS: core-cache queries per LLC victim."""
    return _access_loop_round(tla="qbs")


def trace_gen_round() -> int:
    """Generate 50k trace records (the numpy-batched path)."""
    from repro import baseline_hierarchy
    from repro.workloads import take
    from repro.workloads.spec import app_trace

    reference = baseline_hierarchy(2, scale=SCALE)
    records = take(app_trace("lib", reference=reference), TRACE_GEN_RECORDS)
    return len(records)


def cache_array_round() -> int:
    """A tight fill/access churn loop on one 1024-line cache array."""
    from repro.cache import Cache
    from repro.config import CacheConfig

    # Cycle over 500 lines inside a 1024-line cache: mostly hits after
    # the first pass, exercising both the hit and fill paths.
    addresses = list(
        itertools.islice(itertools.cycle(range(500)), CACHE_ARRAY_ACCESSES)
    )
    cache = Cache(CacheConfig(64 * 1024, 16, name="bench"))
    count = 0
    for address in addresses:
        if not cache.access(address):
            cache.fill(address)
        count += 1
    return count


def llc_thrash_round() -> int:
    """LLC-miss-dominated streaming: footprints ~4x the shared LLC.

    Each core loops over a private sequential footprint four times the
    LLC's line capacity, so after warm-up essentially every access
    misses all three levels and exercises the fill / victim-selection /
    inclusion-invalidate path — the opposite duty cycle of
    ``access_loop``, whose records mostly hit in the L1.
    """
    from repro import CMPSimulator, SimConfig, baseline_hierarchy
    from repro.workloads import core_address_offset, looping_trace

    hierarchy = baseline_hierarchy(2, scale=SCALE)
    footprint_lines = 4 * hierarchy.llc.num_lines
    config = SimConfig(
        hierarchy=hierarchy,
        instruction_quota=LLC_THRASH_INSTRUCTIONS // 2,
    )
    traces = [
        looping_trace(
            footprint_lines,
            line_size=hierarchy.llc.line_size,
            base_address=core_address_offset(core_id),
        )
        for core_id in range(2)
    ]
    result = CMPSimulator(config, traces).run()
    return result.total_instructions


#: the pinned suite, in execution order.
SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="access_loop",
            metric="instructions_per_s",
            work=ACCESS_LOOP_INSTRUCTIONS,
            floor=FLOOR_ACCESS_LOOP,
            round_fn=access_loop_round,
            description="full-hierarchy CMP simulation of MIX_10",
        ),
        Scenario(
            name="trace_gen",
            metric="records_per_s",
            work=TRACE_GEN_RECORDS,
            floor=FLOOR_TRACE_GEN,
            round_fn=trace_gen_round,
            description="batched synthetic trace generation",
        ),
        Scenario(
            name="cache_array",
            metric="accesses_per_s",
            work=CACHE_ARRAY_ACCESSES,
            floor=FLOOR_CACHE_ARRAY,
            round_fn=cache_array_round,
            description="single cache array fill/access churn",
        ),
        Scenario(
            name="llc_thrash",
            metric="instructions_per_s",
            work=LLC_THRASH_INSTRUCTIONS,
            floor=FLOOR_LLC_THRASH,
            round_fn=llc_thrash_round,
            description="streaming footprints 4x the LLC (miss-path bound)",
        ),
        # One access loop per TLA policy; no floors, the trajectory
        # records what each policy's hooks cost.
        Scenario(
            name="tlh_l1_loop",
            metric="instructions_per_s",
            work=ACCESS_LOOP_INSTRUCTIONS,
            floor=0.0,
            round_fn=tlh_l1_loop_round,
            description="access loop under TLH-L1 (hint per L1 hit)",
        ),
        Scenario(
            name="eci_loop",
            metric="instructions_per_s",
            work=ACCESS_LOOP_INSTRUCTIONS,
            floor=0.0,
            round_fn=eci_loop_round,
            description="access loop under ECI",
        ),
        Scenario(
            name="qbs_loop",
            metric="instructions_per_s",
            work=ACCESS_LOOP_INSTRUCTIONS,
            floor=0.0,
            round_fn=qbs_loop_round,
            description="access loop under QBS (query loop on the miss path)",
        ),
    )
}

#: names in suite order, for deterministic artifact layout.
SCENARIO_ORDER: Tuple[str, ...] = tuple(SCENARIOS)
