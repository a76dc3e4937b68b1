"""CacheSan: runtime invariant sanitizers for cache hierarchies.

A :class:`HierarchySanitizer` attached to a hierarchy (switched on by
:class:`~repro.config.SanitizeConfig` or ``REPRO_SANITIZE=1``, or
installed with ``attach_sanitizer``) audits the full
tag/directory/counter state every ``interval`` accesses, raising
:class:`~repro.errors.SanitizerError` with exact set/way/line-address
coordinates on the first corruption it finds.  ``check_invariants()``
on any hierarchy runs the same audit once.
"""

from .base import (
    ENV_VAR,
    HierarchySanitizer,
    InvariantChecker,
    Violation,
    env_override,
    sanitizer_from_config,
)
from .checkers import (
    DirectoryConsistencyChecker,
    DuplicateLineChecker,
    ExclusionChecker,
    InclusionChecker,
    MSHRLeakChecker,
    ReplacementMetadataChecker,
    StatsConservationChecker,
)

__all__ = [
    "ENV_VAR",
    "HierarchySanitizer",
    "InvariantChecker",
    "Violation",
    "env_override",
    "sanitizer_from_config",
    "InclusionChecker",
    "ExclusionChecker",
    "DuplicateLineChecker",
    "ReplacementMetadataChecker",
    "MSHRLeakChecker",
    "DirectoryConsistencyChecker",
    "StatsConservationChecker",
]
