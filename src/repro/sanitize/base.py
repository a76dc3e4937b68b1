"""CacheSan — the invariant-sanitizer framework.

The paper's argument rests on structural invariants: inclusion (every
core-cache line resident in the LLC), its deliberate violations under
ECI/QBS, and exact back-invalidate accounting.  A TLA policy or a
future refactor that mutates cache state through the staged API
(``evict_way`` / ``fill_way`` / ``promote_way``) can silently corrupt
those invariants without failing any functional test — the counters
just come out wrong.  CacheSan makes the invariants mechanical:

* an :class:`InvariantChecker` inspects one structural property of a
  hierarchy and returns :class:`Violation` records with exact
  set/way/line-address coordinates;
* a :class:`HierarchySanitizer` owns a set of checkers and runs every
  applicable one over the hierarchy's full state every ``interval``
  accesses (the audit hook in
  :meth:`repro.hierarchy.base.BaseHierarchy.access` drives it);
* ``fail_fast=True`` raises :class:`~repro.errors.SanitizerError` on
  the first violating scan, ``fail_fast=False`` collects violations
  for a post-run :meth:`HierarchySanitizer.report`.

Sanitizing is switched on per hierarchy by ``HierarchyConfig.sanitize``,
which ``REPRO_SANITIZE`` overrides for a whole process (so the entire
test suite can run sanitized unmodified); a test that needs one
particular sanitizer calls ``BaseHierarchy.attach_sanitizer``.
``BaseHierarchy.check_invariants()`` is the same audit run once, by a
fresh fail-fast sanitizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..config import SanitizeConfig, env_flag
from ..errors import SanitizerError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..hierarchy.base import BaseHierarchy
    from ..hierarchy.mshr import MSHRFile

#: environment variable overriding ``SanitizeConfig.enabled``:
#: ``"1"`` (or any non-``"0"`` value) forces sanitizing on, ``"0"``
#: forces it off, unset defers to the configuration.
ENV_VAR = "REPRO_SANITIZE"


@dataclass(frozen=True)
class Violation:
    """One invariant violation with exact coordinates.

    ``line_addr`` / ``set_index`` / ``way`` are filled in whenever the
    violation concerns a specific line so fail-fast diagnostics name
    the corrupt state precisely; structural violations (e.g. a counter
    imbalance) leave them ``None``.
    """

    checker: str
    message: str
    line_addr: Optional[int] = None
    set_index: Optional[int] = None
    way: Optional[int] = None

    def __str__(self) -> str:
        where = []
        if self.line_addr is not None:
            where.append(f"line {self.line_addr:#x}")
        if self.set_index is not None:
            where.append(f"set {self.set_index}")
        if self.way is not None:
            where.append(f"way {self.way}")
        location = f" [{', '.join(where)}]" if where else ""
        return f"{self.checker}: {self.message}{location}"


class InvariantChecker:
    """One structural property of a hierarchy, checked on demand.

    Subclasses set :attr:`name` (the label violations carry), override
    :meth:`applies_to` to opt out of hierarchy modes where the
    property does not hold, and implement :meth:`check`, which must
    inspect state without mutating it.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.sanitizer: Optional["HierarchySanitizer"] = None

    def applies_to(self, hierarchy: "BaseHierarchy") -> bool:
        """Does this property hold for ``hierarchy``'s mode?"""
        return True

    def check(self, hierarchy: "BaseHierarchy") -> List[Violation]:
        """Return every violation currently present (empty if clean)."""
        raise NotImplementedError

    def violation(self, message: str, **coords) -> Violation:
        """Build a :class:`Violation` attributed to this checker."""
        return Violation(checker=self.name, message=message, **coords)


class HierarchySanitizer:
    """Runs invariant checkers against one hierarchy on a sampling clock.

    Attach with :meth:`repro.hierarchy.base.BaseHierarchy.attach_sanitizer`
    (done automatically when the hierarchy's
    :class:`~repro.config.SanitizeConfig` or ``REPRO_SANITIZE`` enables
    sanitizing).  The hierarchy calls :meth:`on_access` once per demand
    access; every ``interval``-th call triggers a full scan, and
    :class:`~repro.cpu.CMPSimulator` runs one more at the end of a run.
    ``checkers`` defaults to one of every checker; :meth:`attach` keeps
    those that apply to the hierarchy's mode.
    """

    def __init__(
        self,
        config: SanitizeConfig = SanitizeConfig(enabled=True),
        checkers: Optional[Sequence[InvariantChecker]] = None,
    ) -> None:
        if checkers is None:
            from .checkers import every_checker

            checkers = every_checker()
        self.config = config
        self.all_checkers: List[InvariantChecker] = list(checkers)
        for checker in self.all_checkers:
            checker.sanitizer = self
        #: checkers applicable to the attached hierarchy's mode.
        self.active_checkers: List[InvariantChecker] = []
        self.hierarchy: Optional["BaseHierarchy"] = None
        #: MSHR files registered by the CPU layer (see CMPSimulator).
        self.mshrs: List["MSHRFile"] = []
        #: violations found in collect mode (fail-fast raises instead).
        self.violations: List[Violation] = []
        self.scans = 0
        self._access_count = 0

    # -- wiring ---------------------------------------------------------------
    def attach(self, hierarchy: "BaseHierarchy") -> None:
        """Bind to a hierarchy and select the applicable checkers."""
        self.hierarchy = hierarchy
        self.active_checkers = [
            checker
            for checker in self.all_checkers
            if checker.applies_to(hierarchy)
        ]

    def register_mshr(self, mshr: "MSHRFile") -> None:
        """Register an MSHR file for leak checking (CPU layer calls this)."""
        if mshr not in self.mshrs:
            self.mshrs.append(mshr)

    # -- audit hooks (called from the hierarchy hot path) ---------------------
    def on_access(self) -> None:
        """One demand access happened; scan if the interval elapsed."""
        self._access_count += 1
        if self._access_count % self.config.interval == 0:
            self.run()

    # -- scanning -------------------------------------------------------------
    def run(self) -> List[Violation]:
        """Run every active checker once; raise or collect violations."""
        if self.hierarchy is None:
            raise SanitizerError("sanitizer is not attached to a hierarchy")
        self.scans += 1
        found: List[Violation] = []
        for checker in self.active_checkers:
            found.extend(checker.check(self.hierarchy))
        if found:
            if self.config.fail_fast:
                raise SanitizerError(self._format(found))
            self.violations.extend(found)
        return found

    def _format(self, violations: List[Violation]) -> str:
        lines = [
            f"CacheSan: {len(violations)} invariant violation(s) after "
            f"{self._access_count} accesses (scan {self.scans})"
        ]
        lines.extend(f"  - {violation}" for violation in violations)
        return "\n".join(lines)

    def report(self) -> str:
        """Human-readable summary of a collect-mode run."""
        if not self.violations:
            return (
                f"CacheSan: clean — {self.scans} scans, "
                f"{len(self.active_checkers)} checkers, no violations"
            )
        return self._format(self.violations)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ",".join(c.name for c in self.active_checkers) or "unbound"
        return f"<HierarchySanitizer [{names}] interval={self.config.interval}>"


def env_override(enabled: bool) -> bool:
    """Apply the ``REPRO_SANITIZE`` override to a configured flag."""
    return env_flag(ENV_VAR, enabled)


def sanitizer_from_config(
    config: SanitizeConfig,
) -> Optional[HierarchySanitizer]:
    """Build a sanitizer for ``config`` (None when disabled).

    The ``REPRO_SANITIZE`` environment variable wins over
    ``config.enabled`` in both directions so a whole process can be
    switched without touching code.
    """
    if not env_override(config.enabled):
        return None
    return HierarchySanitizer(config)
