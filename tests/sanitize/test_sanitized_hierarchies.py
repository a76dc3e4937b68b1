"""Property tests: CacheSan stays quiet on correct hierarchies.

Random multi-core access streams (shared and disjoint address spaces,
every access kind, every hierarchy mode, TLA policies on top) are
driven through hierarchies with a fail-fast sanitizer scanning after
*every* access.  Any invariant the framework believes in that the
simulator does not actually maintain shows up here as a SanitizerError
with a shrunk counterexample stream.

Also pins the enablement plumbing: the config field and the
``REPRO_SANITIZE`` environment variable that overrides it.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.access import AccessType
from repro.config import SanitizeConfig, TLAConfig
from repro.hierarchy import build_hierarchy
from repro.sanitize import ENV_VAR, HierarchySanitizer
from tests.conftest import tiny_hierarchy

LINE = 64

#: (core, line, kind) triples; two cores, 160 distinct lines each.
STREAM = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.integers(0, 159),
        st.sampled_from(list(AccessType)),
    ),
    min_size=1,
    max_size=400,
)

EVERY_ACCESS = SanitizeConfig(enabled=True, interval=1)


def sanitized_hierarchy(mode, tla=TLAConfig(), **kw):
    config = dataclasses.replace(
        tiny_hierarchy(mode=mode, tla=tla, **kw), sanitize=EVERY_ACCESS
    )
    return build_hierarchy(config)


def drive(hierarchy, stream, disjoint=True):
    for core, line, kind in stream:
        offset = core * (1 << 24) if disjoint else 0
        hierarchy.access(core, line * LINE + offset, kind)


class TestSanitizedRandomTraces:
    @given(stream=STREAM, disjoint=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_inclusive(self, stream, disjoint):
        h = sanitized_hierarchy("inclusive")
        drive(h, stream, disjoint)
        assert h.sanitizer.run() == []

    @given(stream=STREAM, disjoint=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_non_inclusive(self, stream, disjoint):
        h = sanitized_hierarchy("non_inclusive")
        drive(h, stream, disjoint)
        assert h.sanitizer.run() == []

    @given(stream=STREAM, disjoint=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_exclusive(self, stream, disjoint):
        h = sanitized_hierarchy("exclusive")
        drive(h, stream, disjoint)
        assert h.sanitizer.run() == []

    @given(stream=STREAM)
    @settings(max_examples=20, deadline=None)
    def test_victim_cache(self, stream):
        config = dataclasses.replace(
            tiny_hierarchy("inclusive"),
            victim_cache_entries=8,
            sanitize=EVERY_ACCESS,
        )
        h = build_hierarchy(config)
        drive(h, stream)
        assert h.sanitizer.run() == []

    @given(
        stream=STREAM,
        tla=st.sampled_from(["tlh-l1", "eci", "qbs", "qbs-l1"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_tla_policies_on_inclusive(self, stream, tla):
        from repro.config import tla_preset

        h = sanitized_hierarchy("inclusive", tla=tla_preset(tla))
        drive(h, stream)
        assert h.sanitizer.run() == []


class TestEnablementPlumbing:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert build_hierarchy(tiny_hierarchy("inclusive")).sanitizer is None

    def test_enabled_via_config(self):
        h = sanitized_hierarchy("inclusive")
        assert isinstance(h.sanitizer, HierarchySanitizer)

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        h = build_hierarchy(tiny_hierarchy("inclusive"))
        assert h.sanitizer is not None

    def test_env_var_disables(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "0")
        config = dataclasses.replace(
            tiny_hierarchy("inclusive"), sanitize=EVERY_ACCESS
        )
        assert build_hierarchy(config).sanitizer is None

    def test_simulator_registers_mshr_and_final_checks(self):
        from repro.cpu import CMPSimulator
        from repro.workloads.synthetic import random_trace
        from tests.conftest import tiny_sim_config

        config = tiny_sim_config(quota=2_000)
        config = dataclasses.replace(
            config,
            hierarchy=dataclasses.replace(
                config.hierarchy,
                sanitize=SanitizeConfig(enabled=True, interval=256),
            ),
        )
        sim = CMPSimulator(
            config,
            [random_trace(256, seed=core) for core in range(2)],
        )
        sanitizer = sim.hierarchy.sanitizer
        assert sim.mshr in sanitizer.mshrs
        scans_before = sanitizer.scans
        sim.run()
        # run() performed periodic scans plus the final full check
        assert sanitizer.scans > scans_before
        assert sanitizer.violations == []
