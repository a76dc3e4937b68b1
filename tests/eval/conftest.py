"""Synthetic cached sweeps for the evaluation tests.

``populate_cache`` writes a small but realistic policy-sweep outcome
into a temp result-cache directory — three workloads (mixed category
tags), three policies, interval telemetry attached — using only the
public ``ResultCache``/``RunSummary`` surface, so these tests never
run a simulation.
"""

import hashlib
import random
from dataclasses import replace

import pytest

from repro.eval import record_from_summary
from repro.orchestrate import ResultCache, RunSummary

#: (mix name, app tuple) — apps chosen so categories differ:
#: bzi/ast are core-cache fitting vs LLC-thrashing flavours per the
#: checked-in profiles; what matters here is only that the mapping is
#: stable and yields more than one distinct category tag.
MIXES = (
    ("MIX_A", ("ast", "bzi")),
    ("MIX_B", ("mcf", "gob")),
    ("MIX_C", ("sph", "h26")),
)

POLICIES = (
    ("inclusive", "none"),
    ("inclusive", "qbs"),
    ("inclusive", "eci"),
)


def fake_key(mix: str, mode: str, tla: str) -> str:
    """A stable 40-hex stand-in for a real content-hash job key."""
    return hashlib.sha1(f"{mix}:{mode}:{tla}".encode()).hexdigest()


def make_summary(mix, apps, mode="inclusive", tla="none", seed=0,
                 intervals=True):
    """A plausible RunSummary with seed-controlled metric values."""
    rng = random.Random(f"{mix}:{mode}:{tla}:{seed}")
    n = len(apps)
    # TLA policies get a mild synthetic benefit so reports have
    # non-degenerate deltas to exercise the statistics on.
    boost = 0.0 if tla == "none" else 0.1
    windows = 5
    bi = [rng.randrange(2, 12) for _ in range(windows)]
    return RunSummary(
        mix=mix,
        apps=list(apps),
        mode=mode,
        tla=tla,
        ipcs=[round(1.0 + boost + rng.random() / 4, 4) for _ in range(n)],
        llc_misses=1200 - int(400 * boost) + rng.randrange(100),
        llc_accesses=5000,
        inclusion_victims=rng.randrange(40, 90) - int(300 * boost / 10),
        traffic={
            "back_invalidate": sum(bi),
            "eci_invalidate": 3 if tla == "eci" else 0,
            "llc_request": 5000,
            "writeback": 120,
        },
        max_cycles=float(windows * 1000),
        instructions=[40_000] * n,
        mpki=[{"l1": 10.0, "llc": 5.0} for _ in range(n)],
        intervals=(
            {
                "window": 1000,
                "spans": [1000.0] * windows,
                "counts": {
                    "back_invalidate": bi,
                    "eci_invalidate": [0] * windows,
                },
            }
            if intervals
            else None
        ),
    )


@pytest.fixture
def populate_cache(tmp_path):
    """Fill a cache dir with the MIXES x POLICIES grid; returns its path."""

    def populate(mixes=MIXES, policies=POLICIES, directory=None):
        directory = directory or tmp_path / "cache"
        cache = ResultCache(str(directory))
        for mix, apps in mixes:
            for mode, tla in policies:
                cache.store(
                    fake_key(mix, mode, tla),
                    make_summary(mix, apps, mode, tla),
                )
        return directory

    return populate


#: (category tag, workload count) of the Monte-Carlo fixture: 35
#: pairs, so ``All`` and the 16-pair tag take the seeded sign-flip
#: branch (n > 12), the 12-pair tag the exact-enumeration edge and
#: the 7-pair tag a small exact cell.
MC_CATEGORIES = (("LLCT+LLCT", 16), ("LLCT+LLCF", 12), ("CCF+LLCT", 7))

#: the baseline, a policy with the synthetic benefit, one without
#: (deltas around zero) and one whose runs equal the baseline's
#: (every delta 0, as for a policy that changed nothing).
MC_POLICIES = (
    ("inclusive", "none"),
    ("inclusive", "eci"),
    ("non_inclusive", "none"),
    ("inclusive", "tlh-l1"),
)


@pytest.fixture
def mc_records():
    """RunRecords of MC_CATEGORIES x MC_POLICIES, with no simulation."""
    records = []
    index = 0
    for category, count in MC_CATEGORIES:
        for _ in range(count):
            mix = f"MC_{index:02d}"
            apps = (f"a{index:02d}", f"b{index:02d}")
            index += 1
            for mode, tla in MC_POLICIES:
                if tla == "tlh-l1":
                    summary = replace(make_summary(mix, apps), tla=tla)
                else:
                    summary = make_summary(mix, apps, mode, tla)
                records.append(
                    record_from_summary(
                        fake_key(mix, mode, tla), summary, category
                    )
                )
    return records
