"""repro — Temporal Locality Aware (TLA) inclusive-cache management.

A from-scratch reproduction of Jaleel, Borch, Bhandaru, Steely Jr. and
Emer, *"Achieving Non-Inclusive Cache Performance with Inclusive
Caches: Temporal Locality Aware (TLA) Cache Management Policies"*,
MICRO 2010 — including the trace-driven CMP cache simulator it needs
as a substrate.

Quickstart::

    from repro import (
        SimConfig, baseline_hierarchy, tla_preset, CMPSimulator,
    )
    from repro.workloads import mix_by_name

    mix = mix_by_name("MIX_10")            # libquantum + sjeng
    config = SimConfig(
        hierarchy=baseline_hierarchy(2, tla=tla_preset("qbs")),
        instruction_quota=100_000,
    )
    result = CMPSimulator(config, mix.traces()).run()
    print(result.throughput, result.total_inclusion_victims)

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for
the paper-vs-measured record of every table and figure.
"""

from .access import Access, AccessType
from .config import (
    KB,
    MB,
    CacheConfig,
    HierarchyConfig,
    PrefetchConfig,
    SanitizeConfig,
    SimConfig,
    TimingConfig,
    TLAConfig,
    TLA_PRESETS,
    baseline_hierarchy,
    tla_preset,
)
from .errors import (
    ConfigurationError,
    ExperimentError,
    InclusionViolationError,
    ReproError,
    SanitizerError,
    SimulationError,
    TraceError,
    UnknownPolicyError,
)
from .cache import Cache, VictimCache, available_policies, make_policy
from .coherence import Directory, MessageType, TrafficMeter
from .core import (
    EarlyCoreInvalidation,
    QueryBasedSelection,
    TemporalLocalityHints,
    TLAPolicy,
    make_tla_policy,
)
from .cpu import CMPSimulator, CoreResult, SimResult
from .cpu.cmp import run_simulation
from .hierarchy import (
    HIT_L1,
    HIT_L2,
    HIT_LLC,
    HIT_MEMORY,
    BaseHierarchy,
    ExclusiveHierarchy,
    InclusiveHierarchy,
    NonInclusiveHierarchy,
    build_hierarchy,
)
from .sanitize import HierarchySanitizer, Violation
from .version import __version__

__all__ = [
    "__version__",
    # access / config
    "Access",
    "AccessType",
    "KB",
    "MB",
    "CacheConfig",
    "HierarchyConfig",
    "PrefetchConfig",
    "SanitizeConfig",
    "SimConfig",
    "TimingConfig",
    "TLAConfig",
    "TLA_PRESETS",
    "baseline_hierarchy",
    "tla_preset",
    # errors
    "ConfigurationError",
    "ExperimentError",
    "InclusionViolationError",
    "ReproError",
    "SanitizerError",
    "SimulationError",
    "TraceError",
    "UnknownPolicyError",
    # cache substrate
    "Cache",
    "VictimCache",
    "available_policies",
    "make_policy",
    # coherence
    "Directory",
    "MessageType",
    "TrafficMeter",
    # TLA policies
    "EarlyCoreInvalidation",
    "QueryBasedSelection",
    "TemporalLocalityHints",
    "TLAPolicy",
    "make_tla_policy",
    # cpu
    "CMPSimulator",
    "CoreResult",
    "SimResult",
    "run_simulation",
    # hierarchy
    "HIT_L1",
    "HIT_L2",
    "HIT_LLC",
    "HIT_MEMORY",
    "BaseHierarchy",
    "ExclusiveHierarchy",
    "InclusiveHierarchy",
    "NonInclusiveHierarchy",
    "build_hierarchy",
    # sanitizers
    "HierarchySanitizer",
    "Violation",
]
