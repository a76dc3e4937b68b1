"""Per-checker CacheSan tests: each invariant, deliberately broken.

Every test corrupts hierarchy state through back doors (direct tag
pokes, counter edits, metadata scribbles) and asserts the matching
checker reports it — including the headline mutation test: an
inclusive hierarchy whose back-invalidate is surgically removed must
fail a sanitized run with an exact set/way/line-address diagnostic.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.access import AccessType
from repro.config import SanitizeConfig
from repro.errors import SanitizerError
from repro.hierarchy import build_hierarchy
from repro.hierarchy.inclusive import InclusiveHierarchy
from repro.sanitize import HierarchySanitizer, InclusionChecker

from ..conftest import tiny_hierarchy

LINE = 64


def sanitized(mode="inclusive", interval=1, fail_fast=True, **kw):
    """A tiny hierarchy with a fail-fast sanitizer attached."""
    config = dataclasses.replace(
        tiny_hierarchy(mode=mode, **kw),
        sanitize=SanitizeConfig(
            enabled=True, interval=interval, fail_fast=fail_fast
        ),
    )
    return build_hierarchy(config)


def warm_up(hierarchy, accesses=600, cores=None):
    cores = cores if cores is not None else hierarchy.num_cores
    for i in range(accesses):
        hierarchy.access(i % cores, (i * 7) % 4096 * LINE, AccessType.LOAD)


# -- framework plumbing ---------------------------------------------------------


def test_checker_registry_is_complete():
    assert {checker.name for checker in HierarchySanitizer().all_checkers} == {
        "inclusion",
        "exclusion",
        "duplicate-line",
        "replacement-metadata",
        "mshr-leak",
        "directory",
        "stats-conservation",
    }


def test_mode_filtering_on_attach():
    names = {
        mode: {c.name for c in sanitized(mode=mode).sanitizer.active_checkers}
        for mode in ("inclusive", "non_inclusive", "exclusive")
    }
    assert "inclusion" in names["inclusive"]
    assert "inclusion" not in names["non_inclusive"]
    assert "exclusion" in names["exclusive"]
    # the directory checker's invariant does not hold for exclusive LLCs
    assert "directory" not in names["exclusive"]
    for mode_names in names.values():
        assert {"duplicate-line", "replacement-metadata", "stats-conservation"} \
            <= mode_names


def test_clean_hierarchies_scan_clean():
    for mode in ("inclusive", "non_inclusive", "exclusive"):
        hierarchy = sanitized(mode=mode)
        warm_up(hierarchy)
        assert hierarchy.sanitizer.run() == []
        assert hierarchy.sanitizer.scans > 600


def test_unattached_sanitizer_refuses_to_run():
    with pytest.raises(SanitizerError, match="not attached"):
        HierarchySanitizer().run()


# -- the mutation test: omitted back-invalidate ----------------------------------


class BackInvalidateElided(InclusiveHierarchy):
    """Inclusive hierarchy with the back-invalidate bug injected."""

    def _on_llc_eviction(self, evicted):
        # deliberately skip _back_invalidate: core copies survive the
        # LLC eviction, silently breaking inclusion.
        self.directory.on_llc_eviction(evicted.line_addr)


def drive_hot_plus_stream(hierarchy, iterations=50_000):
    """A hot L1-resident set plus an LLC-thrashing stream.

    The hot lines hit in the L1 so the LLC never sees their reuse and
    eventually evicts them — exactly the inclusion-victim pattern the
    paper studies, and the one that exposes a missing back-invalidate.
    """
    for i in range(iterations):
        hierarchy.access(0, (i % 8) * LINE, AccessType.LOAD)
        hierarchy.access(0, (1 << 20 | i) * LINE, AccessType.LOAD)


def test_missing_back_invalidate_is_caught_with_coordinates():
    config = dataclasses.replace(
        tiny_hierarchy("inclusive"),
        sanitize=SanitizeConfig(enabled=True, interval=64),
    )
    hierarchy = BackInvalidateElided(config)
    with pytest.raises(SanitizerError) as excinfo:
        drive_hot_plus_stream(hierarchy)
    message = str(excinfo.value)
    assert "inclusion" in message
    assert "absent from the inclusive LLC" in message
    # the diagnostic names the corrupt line and its exact location
    assert "line 0x" in message
    assert "set " in message and "way " in message


def test_intact_back_invalidate_passes_the_same_workload():
    hierarchy = sanitized(interval=64)
    drive_hot_plus_stream(hierarchy)
    assert hierarchy.sanitizer.run() == []


def test_collect_mode_reports_instead_of_raising():
    config = dataclasses.replace(
        tiny_hierarchy("inclusive"),
        sanitize=SanitizeConfig(enabled=True, interval=64, fail_fast=False),
    )
    hierarchy = BackInvalidateElided(config)
    drive_hot_plus_stream(hierarchy, iterations=20_000)
    sanitizer = hierarchy.sanitizer
    assert sanitizer.violations
    assert "invariant violation" in sanitizer.report()
    assert any(v.checker == "inclusion" for v in sanitizer.violations)


# -- individual checkers against surgical corruption ------------------------------


def find_core_resident_llc_line(hierarchy):
    """A line currently held by both core 0 and the LLC."""
    for line_addr in hierarchy.cores[0].l1d.resident_lines():
        if hierarchy.llc.contains(line_addr):
            return line_addr
    raise AssertionError("warm-up produced no core-resident LLC line")


def test_inclusion_checker_flags_orphaned_core_line():
    hierarchy = sanitized()
    warm_up(hierarchy)
    victim = find_core_resident_llc_line(hierarchy)
    # bypass the hierarchy: rip the line out of the LLC only
    hierarchy.llc.invalidate(victim)
    hierarchy.directory.on_llc_eviction(victim)
    with pytest.raises(SanitizerError, match="inclusion"):
        hierarchy.sanitizer.run()


def test_exclusion_checker_flags_duplicated_line():
    hierarchy = sanitized(mode="exclusive")
    warm_up(hierarchy)
    line_addr = next(iter(hierarchy.cores[0].l2.resident_lines()))
    assert not hierarchy.llc.contains(line_addr)
    hierarchy.llc.fill(line_addr)
    with pytest.raises(SanitizerError, match="exclusion"):
        hierarchy.sanitizer.run()


def test_duplicate_line_checker_flags_map_corruption():
    hierarchy = sanitized()
    warm_up(hierarchy)
    llc = hierarchy.llc
    line_addr = next(iter(llc.resident_lines()))
    set_index = llc.set_index_of(line_addr)
    # scribble the tag map so it points at the wrong way
    way = llc._map[line_addr]
    llc._map[line_addr] = (way + 1) % llc.associativity
    with pytest.raises(SanitizerError, match="duplicate-line"):
        hierarchy.sanitizer.run()


def test_replacement_metadata_checker_flags_bad_stack():
    hierarchy = sanitized(llc_replacement="lru")
    warm_up(hierarchy)
    policy = hierarchy.llc.policy
    policy._stamp[0] = policy._stamp[1]  # stamps no longer distinct
    with pytest.raises(SanitizerError, match="replacement-metadata"):
        hierarchy.sanitizer.run()


def test_mshr_leak_checker_flags_overfull_file():
    from repro.hierarchy.mshr import MSHRFile

    hierarchy = sanitized()
    warm_up(hierarchy)
    mshr = MSHRFile(2)
    hierarchy.sanitizer.register_mshr(mshr)
    mshr._completions.extend([10**9] * 5)  # leaked, never-drained entries
    with pytest.raises(SanitizerError, match="mshr-leak"):
        hierarchy.sanitizer.run()


def test_directory_checker_flags_cleared_sharer_bit():
    hierarchy = sanitized()
    warm_up(hierarchy)
    line_addr = find_core_resident_llc_line(hierarchy)
    hierarchy.directory.on_core_invalidated(line_addr, 0)
    with pytest.raises(SanitizerError, match="directory"):
        hierarchy.sanitizer.run()


def test_stats_checker_flags_counter_imbalance():
    hierarchy = sanitized()
    warm_up(hierarchy)
    hierarchy.llc.stats.fills += 3  # phantom fills break conservation
    with pytest.raises(SanitizerError, match="stats-conservation"):
        hierarchy.sanitizer.run()


def test_stats_checker_flags_unsent_back_invalidates():
    from repro.coherence import MessageType

    hierarchy = sanitized()
    warm_up(hierarchy)
    # push recorded victims past the number of messages actually sent
    # (one message per possible sharer, so messages >= victims normally)
    sent = hierarchy.traffic.counts[MessageType.BACK_INVALIDATE]
    bump = sent + 1 - hierarchy.total_inclusion_victims
    hierarchy.total_inclusion_victims += bump
    hierarchy.core_stats[0].inclusion_victims += bump
    with pytest.raises(SanitizerError, match="back-invalidate messages"):
        hierarchy.sanitizer.run()


# -- strict inclusion ---------------------------------------------------------


def test_eci_window_zero_is_fully_strict():
    """No line is exempt from the inclusion check: ECI and modified QBS
    invalidate core copies synchronously, so there is no in-flight
    window to allow for."""
    # inclusion checker only: the surgical LLC invalidate below also
    # breaks directory consistency, which is not what this test probes.
    hierarchy = build_hierarchy(tiny_hierarchy())
    hierarchy.attach_sanitizer(
        HierarchySanitizer(
            SanitizeConfig(enabled=True, interval=10**9),
            checkers=[InclusionChecker()],
        )
    )
    warm_up(hierarchy)
    victim = find_core_resident_llc_line(hierarchy)
    hierarchy.llc.invalidate(victim)
    with pytest.raises(SanitizerError, match="inclusion"):
        hierarchy.sanitizer.run()
