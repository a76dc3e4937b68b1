"""The bare loop's L1-miss closure against ``BaseHierarchy._beyond_l1``.

``BaseHierarchy._make_miss_path`` builds, per core, one closure that
does the whole L1-miss path (L2 probe, LLC probe and staged fill, L1
fill and L2 spill) over the captured cache arrays.  The method stays
the reference:

* ``TestClosureMatchesMethod`` drives identical Hypothesis-drawn
  streams through twin hierarchies, the closure on one and the method
  on the other, and requires the same hit level and the same state
  after every access: tag stores, residency maps, LRU stamps, clocks
  and cold counters, NRU reference bits, cache stats, per-core
  counters, traffic, directory, inclusion victims, the TLA policy's
  counters and every ``last_hit_was_mru`` flag;
* ``TestGate`` checks which path ``SimulatedCore.burst_driver`` hands
  the bare loop;
* ``TestTracerBetweenBursts`` attaches a tracer to a live run and
  requires the method path's event stream.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.access import AccessType
from repro.config import CacheConfig, HierarchyConfig, tla_preset
from repro.core import make_tla_policy
from repro.cpu import CMPSimulator
from repro.hierarchy import (
    HIT_L1,
    InclusiveHierarchy,
    NonInclusiveHierarchy,
    build_hierarchy,
)
from repro.sanitize import ENV_VAR as SANITIZE_ENV_VAR
from repro.telemetry import Tracer
from repro.workloads.synthetic import looping_trace, strided_trace
from tests.conftest import tiny_sim_config

MODES = ("inclusive", "non_inclusive")
PRESETS = ("none", "eci", "qbs", "tlh-l1", "tlh-l1-l2")
KINDS = (AccessType.IFETCH, AccessType.LOAD, AccessType.STORE)
LINE_SHIFT = 6


def small_config(mode: str, preset: str) -> HierarchyConfig:
    """2x2 L1s, 4x2 L2s and a 4x4 NRU LLC: a 48-line pool makes every
    level evict, fills full LLC sets (ECI acts, QBS queries and is
    sometimes forced) and clears all-set NRU reference bits."""
    return HierarchyConfig(
        num_cores=2,
        mode=mode,
        l1i=CacheConfig(256, 2, name="L1I"),
        l1d=CacheConfig(256, 2, name="L1D"),
        l2=CacheConfig(512, 2, name="L2"),
        llc=CacheConfig(1024, 4, replacement="nru", name="LLC"),
        tla=tla_preset(preset),
    )


def cache_state(cache):
    policy = cache.policy
    state = [
        list(cache._addrs),
        bytes(cache._valid),
        bytes(cache._dirty),
        list(cache._map.items()),
        cache.stats.snapshot(),
    ]
    if hasattr(policy, "_stamp"):
        state += [
            list(policy._stamp),
            list(policy._clock),
            list(policy._cold),
            policy.last_hit_was_mru,
        ]
    if hasattr(policy, "_ref"):
        state.append(bytes(policy._ref))
    return state


def hierarchy_state(hierarchy):
    caches = [
        cache
        for core in hierarchy.cores
        for cache in (core.l1i, core.l1d, core.l2)
    ] + [hierarchy.llc]
    tla_counters = {
        name: value
        for name, value in vars(hierarchy.tla).items()
        if isinstance(value, (bool, int, float))
    }
    return (
        [cache_state(cache) for cache in caches],
        [dataclasses.asdict(stats) for stats in hierarchy.core_stats],
        hierarchy.traffic.snapshot(),
        list(hierarchy.directory._sharers.items()),
        hierarchy.total_inclusion_victims,
        tla_counters,
    )


def run_one(hierarchy, miss_path, core_id, line_addr, kind, recording):
    """One demand access as the bare loop makes it: ``access`` for an
    L1-resident line, else the L1 miss counted and ``miss_path``."""
    core = hierarchy.cores[core_id]
    is_ifetch = kind is AccessType.IFETCH
    l1 = core.l1i if is_ifetch else core.l1d
    if l1.contains(line_addr):
        level = hierarchy.access(
            core_id, line_addr << LINE_SHIFT, kind, record_stats=recording
        )
        assert level == HIT_L1
        return level
    stats = hierarchy.core_stats[core_id] if recording else None
    assert not l1.access(line_addr)
    if stats is not None:
        if is_ifetch:
            stats.l1i_accesses += 1
            stats.l1i_misses += 1
        else:
            stats.l1d_accesses += 1
            stats.l1d_misses += 1
    return miss_path(
        core_id, core, stats, line_addr, is_ifetch, kind is AccessType.STORE
    )


ACCESSES = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.integers(0, 47),
        st.sampled_from(KINDS),
        st.booleans(),
    ),
    min_size=1,
    max_size=200,
)


class TestClosureMatchesMethod:
    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("mode", MODES)
    @given(accesses=ACCESSES)
    @settings(max_examples=40, deadline=None)
    def test_same_level_and_state_after_every_access(
        self, mode, preset, accesses
    ):
        config = small_config(mode, preset)
        fast = build_hierarchy(config)
        reference = build_hierarchy(config)
        closures = [fast._make_miss_path(core_id) for core_id in (0, 1)]
        assert hierarchy_state(fast) == hierarchy_state(reference)
        for access in accesses:
            core_id = access[0]
            got = run_one(fast, closures[core_id], *access)
            want = run_one(reference, reference._beyond_l1, *access)
            assert got == want, access
            assert hierarchy_state(fast) == hierarchy_state(reference), access


def miss_path_of(simulator, core_index=0):
    """The L1-miss callable a core's bare loop runs with (None when the
    core runs the probed loop)."""
    driver = simulator.cores[core_index].burst_driver(8)
    try:
        return driver.gi_frame.f_locals.get("miss_path")
    finally:
        driver.close()


def takes_closure(simulator, core_index=0):
    miss_path = miss_path_of(simulator, core_index)
    assert miss_path is not None, "core runs the probed loop"
    if miss_path == simulator.hierarchy._beyond_l1:
        return False
    assert miss_path.__qualname__.endswith("_make_miss_path.<locals>.miss_path")
    return True


def simulator_for(config, hierarchy=None):
    traces = [looping_trace(8), strided_trace(64, base_address=1 << 30)]
    return CMPSimulator(config, traces, hierarchy=hierarchy)


def with_cache(config, level, **changes):
    hierarchy = config.hierarchy
    cache = dataclasses.replace(getattr(hierarchy, level), **changes)
    return dataclasses.replace(
        config, hierarchy=dataclasses.replace(hierarchy, **{level: cache})
    )


class SpillOverride(InclusiveHierarchy):
    def _spill_to_l2(self, core, victim):
        super()._spill_to_l2(core, victim)


class TestGate:
    @pytest.fixture(autouse=True)
    def _no_sanitizer(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV_VAR, raising=False)

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("mode", MODES)
    def test_inclusive_and_non_inclusive_take_the_closure(self, mode, preset):
        config = tiny_sim_config(mode=mode, tla=tla_preset(preset))
        assert takes_closure(simulator_for(config))

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(tiny_sim_config(mode="exclusive"), id="exclusive"),
            pytest.param(
                dataclasses.replace(
                    tiny_sim_config(),
                    hierarchy=dataclasses.replace(
                        tiny_sim_config().hierarchy, victim_cache_entries=4
                    ),
                ),
                id="victim-cache",
            ),
            pytest.param(
                with_cache(tiny_sim_config(), "l2", index_hash=True),
                id="hashed-l2",
            ),
            pytest.param(
                with_cache(tiny_sim_config(), "llc", index_hash=True),
                id="hashed-llc",
            ),
            pytest.param(
                with_cache(tiny_sim_config(), "l2", replacement="fifo"),
                id="fifo-l2",
            ),
            pytest.param(
                with_cache(tiny_sim_config(), "l2", replacement="plru"),
                id="plru-l2",
            ),
            pytest.param(
                with_cache(tiny_sim_config(), "l1d", replacement="lip"),
                id="lip-l1d",
            ),
            pytest.param(
                with_cache(tiny_sim_config(), "llc", replacement="srrip"),
                id="srrip-llc",
            ),
        ],
    )
    def test_other_shapes_keep_the_method(self, config):
        assert not takes_closure(simulator_for(config))

    def test_subclass_overriding_the_spill_keeps_the_method(self):
        config = tiny_sim_config()
        simulator = simulator_for(config, SpillOverride(config.hierarchy))
        assert not takes_closure(simulator)

    def test_replaced_l2_fill_keeps_the_method_and_is_called(self):
        config = tiny_sim_config()
        simulator = simulator_for(config)
        # Core 1 streams, so its L1 victims spill into its L2.
        l2 = simulator.hierarchy.cores[1].l2
        closure = l2.fill
        calls = []

        def counting_fill(line_addr, dirty=False, exclude_ways=()):
            calls.append(line_addr)
            return closure(line_addr, dirty, exclude_ways)

        l2.fill = counting_fill
        assert takes_closure(simulator, core_index=0)
        assert not takes_closure(simulator, core_index=1)
        simulator.run()
        assert calls


class MethodPath(InclusiveHierarchy):
    """Overrides ``_beyond_l1`` without changing it: the gate then hands
    the bare loop the method."""

    def _beyond_l1(self, *args):
        return super()._beyond_l1(*args)


class NonInclusiveMethodPath(NonInclusiveHierarchy):
    def _beyond_l1(self, *args):
        return super()._beyond_l1(*args)


def method_twin(config, hierarchy_cls):
    """``build_hierarchy(config.hierarchy)``, but of ``hierarchy_cls``."""
    hierarchy = hierarchy_cls(config.hierarchy)
    if config.hierarchy.tla.policy != "none":
        hierarchy.attach_tla(make_tla_policy(config.hierarchy.tla))
    return hierarchy


class TestTracerBetweenBursts:
    @pytest.mark.parametrize(
        "mode, preset, method_cls",
        [
            ("inclusive", "none", MethodPath),
            ("inclusive", "eci", MethodPath),
            ("inclusive", "qbs", MethodPath),
            ("non_inclusive", "tlh-l1", NonInclusiveMethodPath),
        ],
    )
    def test_tracer_attached_mid_run_records_the_method_events(
        self, monkeypatch, mode, preset, method_cls
    ):
        monkeypatch.delenv(SANITIZE_ENV_VAR, raising=False)
        config = tiny_sim_config(mode=mode, tla=tla_preset(preset), quota=4_000)
        fast = simulator_for(config)
        reference = simulator_for(config, method_twin(config, method_cls))
        runs = (fast, reference)
        assert takes_closure(fast)
        assert not takes_closure(reference)
        tracers = []
        for simulator in runs:
            drivers = [core.burst_driver(8) for core in simulator.cores]
            for _ in range(40):
                for driver in drivers:
                    driver.send(False)
            tracer = Tracer()
            simulator.hierarchy.tracer = tracer
            for _ in range(40):
                for driver in drivers:
                    driver.send(False)
            for driver in drivers:
                driver.close()
            tracers.append(tracer)
        assert tracers[0].counts, "no event was traced"
        assert tracers[0].events == tracers[1].events
        assert hierarchy_state(fast.hierarchy) == hierarchy_state(
            reference.hierarchy
        )
