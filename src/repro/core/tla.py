"""Base class / null object for TLA cache-management policies.

The hierarchy calls three hooks:

* the callable :meth:`hit_hook` returns — after every core-cache hit
  (TLH listens; the base class returns None, so hits cost one
  ``is None`` test);
* :meth:`select_llc_victim` — when the LLC needs a victim and no
  invalid way exists (QBS overrides);
* :meth:`after_llc_miss_fill` — after an LLC miss fill completes
  (ECI overrides to early-invalidate the next potential victim).

The base class implements the baseline behaviour (no hints, plain
policy victim, no post-fill action), so an unadorned hierarchy runs
exactly the paper's baseline inclusive cache.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..hierarchy.base import BaseHierarchy


class TLAPolicy:
    """Null TLA policy; subclass and override the relevant hooks."""

    name = "none"

    def __init__(self) -> None:
        self.hierarchy: Optional["BaseHierarchy"] = None

    def attach(self, hierarchy: "BaseHierarchy") -> None:
        """Bind this policy to a hierarchy (called by ``attach_tla``)."""
        self.hierarchy = hierarchy

    def _require_hierarchy(self) -> "BaseHierarchy":
        if self.hierarchy is None:
            raise SimulationError(f"TLA policy {self.name} is not attached")
        return self.hierarchy

    # -- hooks -----------------------------------------------------------------
    def hit_hook(self) -> Optional[Callable[[int, str, int], None]]:
        """The core-cache hit listener the hierarchy caches, or None.

        Called once per :meth:`~repro.hierarchy.BaseHierarchy.attach_tla`.
        A policy that listens to hits returns a callable with
        :meth:`on_core_cache_hit`'s signature; the base class listens
        to none.
        """
        return None

    def on_core_cache_hit(self, core_id: int, kind: str, line_addr: int) -> None:
        """A hit occurred in ``core_id``'s ``kind`` cache ("il1"/"dl1"/"l2")."""

    def select_llc_victim(self, core_id: int, set_index: int) -> int:
        """Choose the LLC way to evict for a fill into ``set_index``."""
        return self._require_hierarchy().llc.policy.select_victim(set_index)

    def after_llc_miss_fill(
        self, core_id: int, set_index: int, filled_way: int, line_addr: int
    ) -> None:
        """The LLC miss fill for ``line_addr`` just completed."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TLA {self.name}>"
