"""Workload mixes: Table II's 12 showcase mixes, all 105 pairs, N-core mixes.

The paper runs all 15-choose-2 = 105 two-benchmark combinations and
showcases 12 of them (Table II).  For the core-count scaling study
(Figure 11) it builds 100 random 4-core and 100 random 8-core mixes;
:func:`random_mixes` reproduces that construction deterministically.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ..access import AccessType
from ..config import HierarchyConfig
from ..errors import ConfigurationError
from .spec import app_feed, app_names, app_profile, app_trace
from .trace import TraceRecord


@dataclass(frozen=True)
class WorkloadMix:
    """A named multi-programmed workload (one benchmark per core)."""

    name: str
    apps: Tuple[str, ...]

    def __post_init__(self) -> None:
        for app in self.apps:
            app_profile(app)  # validates the name

    @property
    def num_cores(self) -> int:
        return len(self.apps)

    @property
    def categories(self) -> Tuple[str, ...]:
        return tuple(app_profile(app).category for app in self.apps)

    def traces(
        self, reference: Optional[HierarchyConfig] = None
    ) -> List[Iterator[TraceRecord]]:
        """One infinite trace per core, in disjoint address spaces."""
        return [
            app_trace(app, reference=reference, core_id=core_id)
            for core_id, app in enumerate(self.apps)
        ]

    def feeds(
        self, reference: Optional[HierarchyConfig] = None
    ) -> List[Iterator[Tuple[int, AccessType, int]]]:
        """:meth:`traces` as plain-tuple simulator feeds (same values)."""
        return [
            app_feed(app, reference=reference, core_id=core_id)
            for core_id, app in enumerate(self.apps)
        ]

    def label(self) -> str:
        return f"{self.name}({'+'.join(self.apps)})"


#: Table II of the paper, verbatim.
TABLE2_MIXES: Tuple[WorkloadMix, ...] = (
    WorkloadMix("MIX_00", ("bzi", "wrf")),   # LLCF, LLCT
    WorkloadMix("MIX_01", ("dea", "pov")),   # CCF, CCF
    WorkloadMix("MIX_02", ("cal", "gob")),   # LLCF, LLCT
    WorkloadMix("MIX_03", ("h26", "per")),   # CCF, CCF
    WorkloadMix("MIX_04", ("gob", "mcf")),   # LLCT, LLCT
    WorkloadMix("MIX_05", ("h26", "gob")),   # CCF, LLCT
    WorkloadMix("MIX_06", ("hmm", "xal")),   # LLCF, LLCF
    WorkloadMix("MIX_07", ("dea", "wrf")),   # CCF, LLCT
    WorkloadMix("MIX_08", ("bzi", "sje")),   # LLCF, CCF
    WorkloadMix("MIX_09", ("pov", "mcf")),   # CCF, LLCT
    WorkloadMix("MIX_10", ("lib", "sje")),   # LLCT, CCF
    WorkloadMix("MIX_11", ("ast", "pov")),   # LLCF, CCF
)


def mix_by_name(name: str) -> WorkloadMix:
    """Find a Table II mix by name (e.g. ``"MIX_10"``)."""
    for mix in TABLE2_MIXES:
        if mix.name == name:
            return mix
    raise ConfigurationError(
        f"unknown mix {name!r}; known: {[m.name for m in TABLE2_MIXES]}"
    )


def all_two_core_mixes() -> List[WorkloadMix]:
    """All 105 unordered pairs of the 15 benchmarks (paper Section IV.B)."""
    names = app_names()
    mixes = []
    for index, (first, second) in enumerate(itertools.combinations(names, 2)):
        mixes.append(WorkloadMix(f"PAIR_{index:03d}", (first, second)))
    return mixes


def random_mixes(
    num_cores: int, count: int = 100, seed: int = 2010
) -> List[WorkloadMix]:
    """Deterministic random N-core mixes (Figure 11's methodology).

    Benchmarks are drawn with replacement, as in the paper's 4- and
    8-core workload construction.
    """
    if num_cores <= 0:
        raise ConfigurationError("num_cores must be positive")
    if count <= 0:
        raise ConfigurationError("count must be positive")
    rng = random.Random(seed)
    names = app_names()
    mixes = []
    for index in range(count):
        apps = tuple(rng.choice(names) for _ in range(num_cores))
        mixes.append(WorkloadMix(f"RAND{num_cores}C_{index:03d}", apps))
    return mixes


def mixes_with_categories(
    categories: Sequence[str], mixes: Optional[Sequence[WorkloadMix]] = None
) -> List[WorkloadMix]:
    """Filter mixes whose category multiset matches ``categories``."""
    pool = list(mixes) if mixes is not None else all_two_core_mixes()
    wanted = sorted(categories)
    return [mix for mix in pool if sorted(mix.categories) == wanted]
