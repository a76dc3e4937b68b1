"""Construct a hierarchy (with its TLA policy) from configuration."""

from __future__ import annotations

from ..config import HierarchyConfig
from ..errors import ConfigurationError
from .base import BaseHierarchy
from .exclusive import ExclusiveHierarchy
from .inclusive import InclusiveHierarchy
from .non_inclusive import NonInclusiveHierarchy

_MODES = {
    "inclusive": InclusiveHierarchy,
    "non_inclusive": NonInclusiveHierarchy,
    "exclusive": ExclusiveHierarchy,
}


def build_hierarchy(config: HierarchyConfig) -> BaseHierarchy:
    """Build the controller for ``config.mode`` and attach its TLA policy.

    TLA policies only make sense where victim selection causes
    inclusion victims, but the paper deliberately runs them on a
    non-inclusive baseline too (Figure 9b) to show the gains vanish —
    so any mode/policy combination is allowed except exclusive+TLA,
    where the LLC-miss fill path the policies hook does not exist.
    """
    try:
        hierarchy_cls = _MODES[config.mode]
    except KeyError:
        raise ConfigurationError(f"unknown hierarchy mode {config.mode!r}") from None
    if config.victim_cache_entries:
        from .victim import VictimCacheInclusiveHierarchy

        hierarchy_cls = VictimCacheInclusiveHierarchy
    hierarchy = hierarchy_cls(config)
    if config.tla.policy != "none":
        if config.mode == "exclusive":
            raise ConfigurationError(
                "TLA policies cannot be applied to an exclusive LLC"
            )
        from ..core import make_tla_policy

        hierarchy.attach_tla(make_tla_policy(config.tla))
    return hierarchy
