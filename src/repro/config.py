"""Machine-description dataclasses and the paper's baseline presets.

All configuration objects are frozen dataclasses validated at
construction, so an invalid machine can never start simulating.  The
baseline values mirror Section IV.A of the paper (an Intel Core
i7-like hierarchy): per-core 32 KB 4-way L1I and L1D, a private
non-inclusive 256 KB 8-way unified L2, and a shared 16-way 2 MB LLC
with 64 B lines, NRU replacement at the LLC and LRU in the core
caches.  Load-to-use latencies are 1 / 10 / 24 cycles with a 150-cycle
memory penalty and 32 outstanding misses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from .access import line_shift_for
from .errors import ConfigurationError

KB = 1024
MB = 1024 * KB

#: Hierarchy modes understood by :func:`repro.hierarchy.build_hierarchy`.
HIERARCHY_MODES = ("inclusive", "non_inclusive", "exclusive")

_FLAG_ON = ("1", "true", "yes", "on")
_FLAG_OFF = ("0", "false", "no", "off")


def env_flag(name: str, default: bool) -> bool:
    """Read the boolean environment switch ``name``.

    ``1``/``true``/``yes``/``on`` mean on and ``0``/``false``/``no``/
    ``off`` mean off, in any case; unset or empty keeps ``default``.
    Any other value raises :class:`ConfigurationError` naming the
    variable, so a typo never silently flips a switch.
    """
    raw = os.environ.get(name, "")
    value = raw.strip().lower()
    if not value:
        return default
    if value in _FLAG_ON:
        return True
    if value in _FLAG_OFF:
        return False
    raise ConfigurationError(
        f"{name}={raw!r} is not a boolean; use one of "
        f"{'/'.join(_FLAG_ON)} or {'/'.join(_FLAG_OFF)}"
    )


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and replacement policy of a single cache array.

    Attributes:
        size_bytes: total capacity in bytes.
        associativity: number of ways per set.
        line_size: line size in bytes (power of two).
        replacement: registered replacement-policy name (see
            :mod:`repro.cache.replacement`).
        name: human-readable label used in stats and error messages.
    """

    size_bytes: int
    associativity: int
    line_size: int = 64
    replacement: str = "lru"
    name: str = "cache"
    #: XOR-fold the line address into the set index (real LLCs hash
    #: their index to spread power-of-two strides across sets).
    index_hash: bool = False

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigurationError(f"{self.name}: size must be positive")
        if self.associativity <= 0:
            raise ConfigurationError(f"{self.name}: associativity must be positive")
        try:
            line_shift_for(self.line_size)
        except ValueError as exc:
            raise ConfigurationError(f"{self.name}: {exc}") from exc
        set_bytes = self.associativity * self.line_size
        if self.size_bytes % set_bytes:
            raise ConfigurationError(
                f"{self.name}: size {self.size_bytes} is not divisible by "
                f"associativity*line_size = {set_bytes}"
            )
        num_sets = self.size_bytes // set_bytes
        if num_sets & (num_sets - 1):
            raise ConfigurationError(
                f"{self.name}: number of sets ({num_sets}) must be a power of two"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_size)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size

    @property
    def line_shift(self) -> int:
        return line_shift_for(self.line_size)

    def scaled(self, factor: float, name: Optional[str] = None) -> "CacheConfig":
        """Return a copy with ``size_bytes`` scaled by ``factor``."""
        new_size = int(self.size_bytes * factor)
        return replace(self, size_bytes=new_size, name=name or self.name)


@dataclass(frozen=True)
class TimingConfig:
    """Latency model parameters (paper Section IV.A).

    Latencies are load-to-use; ``memory_latency`` is the additional
    penalty past the LLC.  ``mshr_entries`` bounds outstanding misses
    and thereby the memory-level parallelism the timing model exposes.
    ``rob_window`` approximates the 128-entry reorder buffer: misses
    whose issuing instructions are within ``rob_window`` instructions
    of one another may overlap their memory latency.
    """

    l1_latency: int = 1
    l2_latency: int = 10
    llc_latency: int = 24
    memory_latency: int = 150
    mshr_entries: int = 32
    rob_window: int = 128
    base_cpi: float = 0.25  # 4-wide core: 1/4 cycle per instruction minimum
    store_stall_fraction: float = 0.05  # stores retire via the store buffer
    #: fraction of an *isolated* load-miss latency exposed as an
    #: immediate dependent-instruction stall.  The effective exposure
    #: is divided by the number of already-outstanding misses, so
    #: independent streaming misses overlap (memory-level parallelism)
    #: while isolated pointer-chase-style misses pay nearly full
    #: latency — the asymmetry that makes LLC-thrashing streams fast
    #: and inclusion-victim refetches expensive, as on real OoO cores.
    load_exposure: float = 0.85
    #: instruction-fetch misses stall the front end serially and get
    #: no memory-level-parallelism discount (paper Section V.C: "
    #: instruction cache misses stall the front-end").
    ifetch_exposure: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.l1_latency <= self.l2_latency <= self.llc_latency):
            raise ConfigurationError("latencies must satisfy 0 < L1 <= L2 <= LLC")
        if self.memory_latency < 0:
            raise ConfigurationError("memory latency must be non-negative")
        if self.mshr_entries <= 0:
            raise ConfigurationError("mshr_entries must be positive")
        if self.rob_window <= 0:
            raise ConfigurationError("rob_window must be positive")
        if self.base_cpi <= 0:
            raise ConfigurationError("base_cpi must be positive")
        if not 0.0 <= self.store_stall_fraction <= 1.0:
            raise ConfigurationError("store_stall_fraction must be in [0, 1]")
        if not 0.0 <= self.load_exposure <= 1.0:
            raise ConfigurationError("load_exposure must be in [0, 1]")
        if not 0.0 <= self.ifetch_exposure <= 1.0:
            raise ConfigurationError("ifetch_exposure must be in [0, 1]")

    def latency_for_level(self, level: str) -> int:
        """Return the load-to-use latency for a named hit level."""
        table = {
            "l1": self.l1_latency,
            "l2": self.l2_latency,
            "llc": self.llc_latency,
            "memory": self.llc_latency + self.memory_latency,
        }
        try:
            return table[level]
        except KeyError:
            raise ConfigurationError(f"unknown hit level {level!r}") from None


@dataclass(frozen=True)
class PrefetchConfig:
    """Prefetcher parameters (trains on L2 misses, fills the L2).

    ``kind`` selects the implementation: ``"stream"`` (the paper's
    16-detector stream prefetcher) or ``"nextline"`` (stateless
    next-N-line).
    """

    enabled: bool = False
    kind: str = "stream"
    num_streams: int = 16
    distance: int = 4
    degree: int = 2
    train_window: int = 8

    _VALID_KINDS = ("stream", "nextline")

    def __post_init__(self) -> None:
        if self.kind not in self._VALID_KINDS:
            raise ConfigurationError(
                f"unknown prefetcher kind {self.kind!r}; "
                f"expected one of {self._VALID_KINDS}"
            )
        if self.num_streams <= 0:
            raise ConfigurationError("num_streams must be positive")
        if self.distance <= 0 or self.degree <= 0:
            raise ConfigurationError("distance and degree must be positive")


@dataclass(frozen=True)
class TLAConfig:
    """Selection and parameters of a Temporal Locality Aware policy.

    ``policy`` is one of the names registered in
    :mod:`repro.core.factory` (``"none"``, ``"tlh"``, ``"eci"``,
    ``"qbs"``).  ``levels`` selects which core caches participate:

    * for TLH — which caches *send* hints on their hits;
    * for QBS — which caches are consulted for residency.

    Valid level tokens: ``"il1"``, ``"dl1"``, ``"l2"``.
    """

    policy: str = "none"
    levels: Tuple[str, ...] = ("il1", "dl1")
    sample_rate: float = 1.0  # TLH only: fraction of hits that send a hint
    #: TLH only: suppress hints for hits on a cache's current MRU line
    #: (paper Section III.A's suggested traffic filter).
    mru_filter: bool = False
    max_queries: int = 0  # QBS only: 0 means unbounded
    back_invalidate: bool = False  # QBS only: the "modified QBS" of footnote 6

    _VALID_LEVELS = frozenset({"il1", "dl1", "l2"})

    def __post_init__(self) -> None:
        unknown = set(self.levels) - self._VALID_LEVELS
        if unknown:
            raise ConfigurationError(f"unknown TLA levels: {sorted(unknown)}")
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ConfigurationError("sample_rate must be in [0, 1]")
        if self.max_queries < 0:
            raise ConfigurationError("max_queries must be >= 0")


@dataclass(frozen=True)
class SanitizeConfig:
    """CacheSan invariant-sanitizer settings (see :mod:`repro.sanitize`).

    When ``enabled``, the hierarchy runs every applicable
    :class:`~repro.sanitize.InvariantChecker` over its full state every
    ``interval`` accesses.  ``fail_fast=True`` raises
    :class:`~repro.errors.SanitizerError` on the first violating scan;
    ``fail_fast=False`` collects violations for a post-run report.

    The ``REPRO_SANITIZE`` environment variable overrides ``enabled``
    for a whole process (``1`` forces sanitizing on, ``0`` forces it
    off), so the entire test suite can run sanitized unmodified.
    """

    enabled: bool = False
    interval: int = 64
    fail_fast: bool = True

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigurationError("sanitize interval must be positive")


@dataclass(frozen=True)
class HierarchyConfig:
    """Full machine description of the cache hierarchy.

    The L2 is always non-inclusive with respect to the L1s (paper
    footnote 3); ``mode`` selects how the LLC relates to the core
    caches.
    """

    num_cores: int = 2
    mode: str = "inclusive"
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * KB, 4, name="L1I")
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * KB, 4, name="L1D")
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(256 * KB, 8, name="L2")
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(2 * MB, 16, replacement="nru", name="LLC")
    )
    tla: TLAConfig = field(default_factory=TLAConfig)
    #: entries of an optional fully-associative victim cache beside an
    #: inclusive LLC (the Fletcher et al. remedy compared in paper
    #: Section VI); 0 disables it.
    victim_cache_entries: int = 0
    #: CacheSan invariant-sanitizer settings (off by default; the
    #: ``REPRO_SANITIZE`` env var overrides ``sanitize.enabled``).
    sanitize: SanitizeConfig = field(default_factory=SanitizeConfig)

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ConfigurationError("num_cores must be positive")
        if self.victim_cache_entries < 0:
            raise ConfigurationError("victim_cache_entries must be >= 0")
        if self.victim_cache_entries and self.mode != "inclusive":
            raise ConfigurationError(
                "the victim-cache study only applies to inclusive LLCs"
            )
        if self.mode not in HIERARCHY_MODES:
            raise ConfigurationError(
                f"mode must be one of {HIERARCHY_MODES}, got {self.mode!r}"
            )
        line_sizes = {
            self.l1i.line_size,
            self.l1d.line_size,
            self.l2.line_size,
            self.llc.line_size,
        }
        if len(line_sizes) != 1:
            raise ConfigurationError("all caches must share one line size")

    @property
    def line_size(self) -> int:
        return self.llc.line_size

    @property
    def line_shift(self) -> int:
        return self.llc.line_shift

    @property
    def core_cache_bytes_per_core(self) -> int:
        """Total private cache capacity of one core (L1I + L1D + L2)."""
        return self.l1i.size_bytes + self.l1d.size_bytes + self.l2.size_bytes

    @property
    def core_to_llc_ratio(self) -> float:
        """Ratio of summed core-cache capacity to LLC capacity."""
        return (
            self.core_cache_bytes_per_core * self.num_cores / self.llc.size_bytes
        )

    def with_llc_size(self, size_bytes: int) -> "HierarchyConfig":
        """Return a copy with a different LLC capacity (same geometry otherwise)."""
        return replace(self, llc=replace(self.llc, size_bytes=size_bytes))

    def with_mode(self, mode: str) -> "HierarchyConfig":
        return replace(self, mode=mode)

    def with_tla(self, tla: TLAConfig) -> "HierarchyConfig":
        return replace(self, tla=tla)


@dataclass(frozen=True)
class SimConfig:
    """Everything a :class:`repro.cpu.cmp.CMPSimulator` run needs."""

    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    timing: TimingConfig = field(default_factory=TimingConfig)
    prefetch: PrefetchConfig = field(default_factory=PrefetchConfig)
    #: per-core instruction quota; cores past their quota keep running
    #: (competing for the LLC, as in paper Section IV.B) but stop
    #: accumulating statistics.
    instruction_quota: int = 100_000
    #: instructions each core executes before statistics and IPC
    #: accounting start.  The paper's 250M-instruction runs dwarf cold
    #: misses; our much shorter synthetic runs need an explicit warm-up
    #: window instead.
    warmup_instructions: int = 0

    def __post_init__(self) -> None:
        if self.instruction_quota <= 0:
            raise ConfigurationError("instruction_quota must be positive")
        if self.warmup_instructions < 0:
            raise ConfigurationError("warmup_instructions must be non-negative")


def baseline_hierarchy(
    num_cores: int = 2,
    llc_bytes: Optional[int] = None,
    mode: str = "inclusive",
    tla: Optional[TLAConfig] = None,
    scale: float = 1.0,
) -> HierarchyConfig:
    """Return the paper's baseline hierarchy for ``num_cores`` cores.

    The baseline LLC is 1 MB per core (2 MB for the 2-core CMP),
    giving the paper's 1:4 core-cache-to-LLC ratio; pass ``llc_bytes``
    to override (e.g. for the Figure 10 ratio sweep).

    ``scale`` shrinks every cache by the same factor (1/8 gives a
    4 KB/32 KB/256 KB-per-core machine).  Because workload generators
    size their working sets against the same scaled reference
    (:func:`repro.workloads.spec.app_trace`), scaled machines preserve
    every capacity *ratio* of the paper's configuration while running
    an order of magnitude faster — experiments default to a scaled
    machine and accept ``scale=1.0`` for full-size runs.
    """
    llc_size = llc_bytes if llc_bytes is not None else num_cores * MB
    hierarchy = HierarchyConfig(
        num_cores=num_cores,
        mode=mode,
        llc=CacheConfig(llc_size, 16, replacement="nru", name="LLC"),
        tla=tla or TLAConfig(),
    )
    if scale != 1.0:
        hierarchy = scale_hierarchy(hierarchy, scale)
    return hierarchy


def variant_sim_config(
    num_cores: int,
    mode: str = "inclusive",
    tla: Optional[TLAConfig] = None,
    llc_bytes: Optional[int] = None,
    scale: float = 1.0,
    quota: int = 100_000,
    warmup: int = 0,
    victim_cache_entries: int = 0,
) -> SimConfig:
    """Build the :class:`SimConfig` for one experiment machine variant.

    This is the single definition of how an experiment request maps to
    a simulatable machine: the serial :class:`repro.experiments.Runner`
    and the :mod:`repro.orchestrate` pool workers both call it, so a
    job executed in a subprocess is byte-for-byte the same simulation
    as the in-process one.
    """
    hierarchy = baseline_hierarchy(
        num_cores=num_cores,
        llc_bytes=llc_bytes,
        mode=mode,
        tla=tla,
        scale=scale,
    )
    if victim_cache_entries:
        hierarchy = replace(hierarchy, victim_cache_entries=victim_cache_entries)
    return SimConfig(
        hierarchy=hierarchy,
        instruction_quota=quota,
        warmup_instructions=warmup,
    )


def scale_hierarchy(config: HierarchyConfig, scale: float) -> HierarchyConfig:
    """Scale every cache capacity by ``scale`` (associativities kept)."""
    if scale <= 0:
        raise ConfigurationError("scale must be positive")
    return replace(
        config,
        l1i=config.l1i.scaled(scale),
        l1d=config.l1d.scaled(scale),
        l2=config.l2.scaled(scale),
        llc=config.llc.scaled(scale),
    )


#: Named TLA presets used across the experiments; mirrors the policy
#: variants evaluated in Figures 5-9 of the paper.
TLA_PRESETS: Dict[str, TLAConfig] = {
    "none": TLAConfig(policy="none"),
    "tlh-il1": TLAConfig(policy="tlh", levels=("il1",)),
    "tlh-dl1": TLAConfig(policy="tlh", levels=("dl1",)),
    "tlh-l1": TLAConfig(policy="tlh", levels=("il1", "dl1")),
    "tlh-l2": TLAConfig(policy="tlh", levels=("l2",)),
    "tlh-l1-l2": TLAConfig(policy="tlh", levels=("il1", "dl1", "l2")),
    "eci": TLAConfig(policy="eci"),
    "qbs-il1": TLAConfig(policy="qbs", levels=("il1",)),
    "qbs-dl1": TLAConfig(policy="qbs", levels=("dl1",)),
    "qbs-l1": TLAConfig(policy="qbs", levels=("il1", "dl1")),
    "qbs-l2": TLAConfig(policy="qbs", levels=("l2",)),
    "qbs": TLAConfig(policy="qbs", levels=("il1", "dl1", "l2")),
    "qbs-l1-l2": TLAConfig(policy="qbs", levels=("il1", "dl1", "l2")),
}


def tla_preset(name: str) -> TLAConfig:
    """Look up a named TLA preset, raising ``ConfigurationError`` if unknown."""
    try:
        return TLA_PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown TLA preset {name!r}; known: {sorted(TLA_PRESETS)}"
        ) from None
