"""``check_invariants()`` is one CacheSan scan, whatever the mode.

Every mode gets the tag-map, replacement, directory and counter audits
at each call, not only its inclusion or exclusion property.  Both
corruptions below leave inclusion intact, so only those extra audits
can catch them.
"""

import pytest

from repro.access import AccessType
from repro.errors import SanitizerError
from repro.hierarchy import build_hierarchy
from tests.conftest import tiny_hierarchy

LINE = 64


def warmed(mode):
    """A tiny two-core hierarchy after a clean, checked warm-up."""
    h = build_hierarchy(tiny_hierarchy(mode))
    for i in range(600):
        h.access(i % 2, (i * 7) % 4096 * LINE, AccessType.LOAD)
    h.check_invariants()
    return h


def test_non_inclusive_tag_map_corruption_is_caught():
    h = warmed("non_inclusive")
    llc = h.llc
    line_addr = next(iter(llc.resident_lines()))
    # scribble the tag map so the entry points at the wrong way
    llc._map[line_addr] = (llc._map[line_addr] + 1) % llc.associativity
    with pytest.raises(SanitizerError, match="duplicate-line"):
        h.check_invariants()


def test_inclusive_cleared_sharer_bit_is_caught():
    h = warmed("inclusive")
    line_addr = next(iter(h.cores[0].l1d.resident_lines()))
    assert h.llc.contains(line_addr)  # inclusion still holds
    h.directory.on_core_invalidated(line_addr, 0)
    with pytest.raises(SanitizerError, match="directory"):
        h.check_invariants()


def test_audit_leaves_the_sanitizer_slot_alone():
    h = warmed("exclusive")
    installed = h.sanitizer  # None unless REPRO_SANITIZE is set
    h.check_invariants()
    assert h.sanitizer is installed
