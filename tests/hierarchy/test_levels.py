"""Unit tests for the per-core cache bundle (CoreCaches)."""

import pytest

from repro.errors import ConfigurationError
from repro.hierarchy.levels import CoreCaches
from tests.conftest import tiny_hierarchy


def make() -> CoreCaches:
    return CoreCaches(0, tiny_hierarchy("inclusive", num_cores=1))


class TestKindMapping:
    def test_cache_for_kind(self):
        core = make()
        assert core.cache_for_kind("il1") is core.l1i
        assert core.cache_for_kind("dl1") is core.l1d
        assert core.cache_for_kind("l2") is core.l2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            make().cache_for_kind("l3")


class TestResidency:
    def test_holds_any_level(self):
        core = make()
        core.l1d.fill(5)
        assert core.holds(5)
        assert core.holds(5, ("dl1",))
        assert not core.holds(5, ("il1",))
        assert not core.holds(5, ("l2",))

    def test_holding_kinds(self):
        core = make()
        core.l1i.fill(7)
        core.l2.fill(7)
        assert core.holding_kinds(7) == ["il1", "l2"]

    def test_resident_lines_deduplicates(self):
        core = make()
        core.l1d.fill(3)
        core.l2.fill(3)
        core.l1i.fill(4)
        assert sorted(core.resident_lines()) == [3, 4]

    def test_occupancy(self):
        core = make()
        core.l1d.fill(1)
        core.l1i.fill(2)
        core.l2.fill(3)
        assert core.occupancy() == 3


class TestInvalidateAll:
    def test_removes_from_every_cache(self):
        core = make()
        core.l1d.fill(9)
        core.l2.fill(9)
        present, dirty = core.invalidate_all(9)
        assert present
        assert not dirty
        assert not core.holds(9)

    def test_reports_dirty(self):
        core = make()
        core.l1d.fill(9, dirty=True)
        present, dirty = core.invalidate_all(9)
        assert present and dirty

    def test_absent_line(self):
        present, dirty = make().invalidate_all(0x123)
        assert not present and not dirty
