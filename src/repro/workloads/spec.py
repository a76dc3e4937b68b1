"""Synthetic stand-ins for the paper's 15 SPEC CPU2006 benchmarks.

Table I of the paper characterises 15 benchmarks by their L1/L2/LLC
MPKI in isolation (64 KB L1, 256 KB L2, 2 MB LLC, no prefetching) and
groups them into CCF / LLCF / LLCT categories.  Each
:class:`AppProfile` here parameterises a
:class:`~repro.workloads.synthetic.MixtureProfile` whose working-set
sizes are *fractions of a reference hierarchy's cache sizes*, so the
generated application keeps its category even when experiments scale
every cache down for speed.

The profiles are calibrated to land in the right category band and to
approximate the qualitative shape of Table I (which component of the
hierarchy catches each benchmark's working set), not to match the
absolute MPKI values of binaries we do not have.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..access import AccessType
from ..config import HierarchyConfig
from ..errors import ConfigurationError
from .categories import CATEGORY_CCF, CATEGORY_LLCF, CATEGORY_LLCT
from .synthetic import MixtureProfile, RegionSpec, mixture_feed, mixture_trace
from .trace import TraceRecord, core_address_offset


@dataclass(frozen=True)
class AppProfile:
    """Relative working-set description of one benchmark.

    All ``*_frac`` fields are fractions of the reference cache's line
    count: ``code_frac`` of the L1I, ``hot_frac`` of the L1D,
    ``l2_frac`` of the L2, ``llc_frac``/``huge_frac`` of the LLC.  The
    ``w_*`` fields are data-mixture weights; the hot region receives
    whatever weight remains to 1.0.
    """

    name: str
    full_name: str
    category: str
    code_frac: float = 0.3
    hot_frac: float = 0.5
    #: walk the hot region as a tight cyclic loop instead of sampling
    #: it uniformly — loops fit set-associative L1s without conflict
    #: noise, giving the near-zero L1 MPKI of dealII/perlbench/sjeng.
    hot_sequential: bool = False
    w_l2: float = 0.0
    l2_frac: float = 0.5
    #: consecutive same-line accesses per visit to the L2 pool —
    #: spatial locality that makes pool visits partially L1-visible.
    l2_burst: int = 1
    w_llc: float = 0.0
    llc_frac: float = 0.5
    llc_burst: int = 1
    w_huge: float = 0.0
    huge_frac: float = 3.0
    w_stream: float = 0.0
    write_fraction: float = 0.3
    branch_probability: float = 0.02

    def __post_init__(self) -> None:
        total = self.w_l2 + self.w_llc + self.w_huge + self.w_stream
        if total >= 1.0:
            raise ConfigurationError(
                f"{self.name}: mixture weights leave no room for the hot region"
            )

    @property
    def hot_weight(self) -> float:
        return 1.0 - (self.w_l2 + self.w_llc + self.w_huge + self.w_stream)

    def build_mixture(self, reference: HierarchyConfig) -> MixtureProfile:
        """Instantiate concrete region sizes against ``reference``."""
        regions: List[RegionSpec] = [
            RegionSpec(
                lines=_lines(self.hot_frac, reference.l1d.num_lines),
                weight=self.hot_weight,
                sequential=self.hot_sequential,
            )
        ]
        if self.w_l2 > 0:
            regions.append(
                RegionSpec(
                    lines=_lines(self.l2_frac, reference.l2.num_lines),
                    weight=self.w_l2,
                    burst=self.l2_burst,
                )
            )
        if self.w_llc > 0:
            regions.append(
                RegionSpec(
                    lines=_lines(self.llc_frac, reference.llc.num_lines),
                    weight=self.w_llc,
                    burst=self.llc_burst,
                )
            )
        if self.w_huge > 0:
            regions.append(
                RegionSpec(
                    lines=_lines(self.huge_frac, reference.llc.num_lines),
                    weight=self.w_huge,
                )
            )
        if self.w_stream > 0:
            regions.append(
                RegionSpec(
                    lines=max(1024, 4 * reference.llc.num_lines),
                    weight=self.w_stream,
                    sequential=True,
                )
            )
        return MixtureProfile(
            code_lines=_lines(self.code_frac, reference.l1i.num_lines),
            regions=tuple(regions),
            write_fraction=self.write_fraction,
            branch_probability=self.branch_probability,
            line_size=reference.line_size,
        )


def _lines(fraction: float, reference_lines: int) -> int:
    return max(1, int(round(fraction * reference_lines)))


def _seed_for(name: str, core_id: int, salt: int) -> int:
    """Stable per-(app, core) seed without relying on hash()."""
    value = salt * 1_000_003 + core_id * 7919
    for char in name:
        value = value * 131 + ord(char)
    return value & 0x7FFF_FFFF


#: The 15 benchmarks of Table I, keyed by the paper's 3-letter names.
SPEC_APPS: Dict[str, AppProfile] = {
    app.name: app
    for app in [
        # --- core-cache fitting (CCF) -------------------------------------
        AppProfile(
            "dea", "dealII", CATEGORY_CCF,
            code_frac=0.6, hot_frac=0.4, hot_sequential=True,
            w_l2=0.001, l2_frac=0.6,
        ),
        AppProfile(
            "h26", "h264ref", CATEGORY_CCF,
            code_frac=1.2, hot_frac=0.7,
            w_l2=0.05, l2_frac=0.7, l2_burst=2,
            branch_probability=0.05,
        ),
        AppProfile(
            "per", "perlbench", CATEGORY_CCF,
            code_frac=0.5, hot_frac=0.35, hot_sequential=True,
            w_l2=0.0005, l2_frac=0.4,
        ),
        AppProfile(
            "pov", "povray", CATEGORY_CCF,
            code_frac=0.6, hot_frac=0.6,
            w_l2=0.126, l2_frac=0.5, l2_burst=3,
        ),
        AppProfile(
            "sje", "sjeng", CATEGORY_CCF,
            code_frac=0.8, hot_frac=0.4, hot_sequential=True,
            w_l2=0.0015, l2_frac=0.6,
        ),
        # --- LLC fitting (LLCF) ---------------------------------------------
        AppProfile(
            "ast", "astar", CATEGORY_LLCF,
            code_frac=0.4, hot_frac=0.6,
            w_llc=0.05, llc_frac=0.45,
            w_stream=0.005,
        ),
        AppProfile(
            "bzi", "bzip2", CATEGORY_LLCF,
            code_frac=0.3, hot_frac=0.6,
            w_llc=0.05, llc_frac=0.9,
            w_stream=0.012,
        ),
        AppProfile(
            "cal", "calculix", CATEGORY_LLCF,
            code_frac=0.4, hot_frac=0.6,
            w_llc=0.05, llc_frac=0.35,
            w_stream=0.003,
        ),
        AppProfile(
            "hmm", "hmmer", CATEGORY_LLCF,
            code_frac=0.3, hot_frac=0.5,
            w_l2=0.004, l2_frac=0.6,
            w_llc=0.008, llc_frac=0.5,
        ),
        AppProfile(
            "xal", "xalancbmk", CATEGORY_LLCF,
            code_frac=0.8, hot_frac=0.6,
            w_l2=0.124, l2_frac=0.9, l2_burst=2,
            w_llc=0.006, llc_frac=0.4,
            branch_probability=0.05,
        ),
        # --- LLC thrashing (LLCT) ----------------------------------------------
        AppProfile(
            "gob", "gobmk", CATEGORY_LLCT,
            code_frac=1.5, hot_frac=0.6,
            w_huge=0.022, huge_frac=3.0,
            branch_probability=0.06,
        ),
        AppProfile(
            "lib", "libquantum", CATEGORY_LLCT,
            code_frac=0.1, hot_frac=0.2,
            w_stream=0.104,
            write_fraction=0.25,
        ),
        AppProfile(
            "mcf", "mcf", CATEGORY_LLCT,
            code_frac=0.2, hot_frac=0.5,
            w_huge=0.057, huge_frac=4.0,
        ),
        AppProfile(
            "sph", "sphinx3", CATEGORY_LLCT,
            code_frac=0.4, hot_frac=0.5,
            w_huge=0.012, huge_frac=2.0,
            w_stream=0.035,
        ),
        AppProfile(
            "wrf", "wrf", CATEGORY_LLCT,
            code_frac=0.4, hot_frac=0.5,
            w_l2=0.004, l2_frac=0.5,
            w_stream=0.038,
        ),
    ]
}


def app_names() -> List[str]:
    """The 15 short names, CCF then LLCF then LLCT, alphabetical within."""
    order = {CATEGORY_CCF: 0, CATEGORY_LLCF: 1, CATEGORY_LLCT: 2}
    return sorted(SPEC_APPS, key=lambda n: (order[SPEC_APPS[n].category], n))


def app_profile(name: str) -> AppProfile:
    """Look up a profile by short name (raises on unknown names)."""
    try:
        return SPEC_APPS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; known: {sorted(SPEC_APPS)}"
        ) from None


def app_trace(
    name: str,
    reference: Optional[HierarchyConfig] = None,
    core_id: int = 0,
    seed_salt: int = 1,
) -> Iterator[TraceRecord]:
    """Infinite trace for benchmark ``name``.

    Args:
        reference: hierarchy whose cache sizes define the working
            sets; defaults to the paper's 2-core baseline.  Use the
            *baseline* here even when simulating a different machine —
            Table I's categories are defined against the baseline.
        core_id: offsets the address space so co-running copies do not
            share lines, and perturbs the seed so two copies of the
            same benchmark are not in lockstep.
        seed_salt: extra seed entropy for building disjoint mix sets.
    """
    return mixture_trace(*_app_stream(name, reference, core_id, seed_salt))


def app_feed(
    name: str,
    reference: Optional[HierarchyConfig] = None,
    core_id: int = 0,
    seed_salt: int = 1,
) -> Iterator[Tuple[int, AccessType, int]]:
    """:func:`app_trace`'s stream as plain tuples, for the simulator.

    Same arguments and values as :func:`app_trace`, through
    :func:`~repro.workloads.synthetic.mixture_feed`.
    """
    return mixture_feed(*_app_stream(name, reference, core_id, seed_salt))


def _app_stream(
    name: str,
    reference: Optional[HierarchyConfig],
    core_id: int,
    seed_salt: int,
) -> Tuple[MixtureProfile, int, int]:
    """(mixture, seed, base address) of one benchmark copy."""
    if reference is None:
        reference = HierarchyConfig()
    return (
        app_profile(name).build_mixture(reference),
        _seed_for(name, core_id, seed_salt),
        core_address_offset(core_id),
    )
