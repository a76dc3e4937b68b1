"""Behavioural tests for Temporal Locality Hints."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.access import AccessType
from repro.coherence import MessageType
from repro.config import TLAConfig
from repro.core import TemporalLocalityHints
from repro.errors import ConfigurationError
from repro.hierarchy import build_hierarchy
from tests.conftest import tiny_hierarchy

LINE = 64


def make(levels=("il1", "dl1"), sample_rate=1.0):
    config = tiny_hierarchy(
        "inclusive",
        num_cores=1,
        tla=TLAConfig(policy="tlh", levels=levels, sample_rate=sample_rate),
    )
    return build_hierarchy(config)


def addr(line: int) -> int:
    return line * LINE


class TestHintGeneration:
    def test_l1_hit_sends_hint(self):
        h = make()
        h.access(0, addr(1))
        h.access(0, addr(1))  # L1 hit
        assert h.traffic.counts[MessageType.TLH_HINT] == 1
        assert h.tla.hints_sent == 1

    def test_miss_sends_no_hint(self):
        h = make()
        h.access(0, addr(1))
        assert h.traffic.counts[MessageType.TLH_HINT] == 0

    def test_level_filter_ifetch(self):
        h = make(levels=("dl1",))
        h.access(0, addr(1), AccessType.IFETCH)
        h.access(0, addr(1), AccessType.IFETCH)  # IL1 hit, filtered out
        assert h.tla.hints_sent == 0

    def test_l2_level_hints(self):
        h = make(levels=("l2",))
        # Build an L2 hit: fill, evict from L1 (spill to L2), re-access.
        h.access(0, addr(0))
        for line in (4, 8, 12, 16):  # conflict L1D set 0 (4 ways)
            h.access(0, addr(line))
        h.access(0, addr(0))  # L2 hit
        assert h.tla.hints_sent == 1

    def test_hint_promotes_llc_line(self):
        h = make()
        h.access(0, addr(1))
        before = h.llc.stats.promotions
        h.access(0, addr(1))
        assert h.llc.stats.promotions == before + 1
        assert h.tla.hints_applied == h.tla.hints_sent


class TestHintEffectiveness:
    def test_tlh_protects_hot_l1_line(self):
        """The Figure 3 scenario: the hot line survives under TLH.

        TLH-L1 cannot protect L2-only-resident thrash lines (their
        hits never reach the L1), so total victims may not be zero,
        but the constantly-L1-hit line must never be refetched and
        victims must drop versus the baseline.
        """
        from repro.hierarchy import HIT_L1

        base = build_hierarchy(tiny_hierarchy("inclusive", num_cores=1))
        tlh = make()
        refetches = {id(base): 0, id(tlh): 0}
        for h in (base, tlh):
            h.access(0, addr(8))
            for i in range(2, 200):
                h.access(0, addr(i * 8))
                if h.access(0, addr(8)) != HIT_L1:
                    refetches[id(h)] += 1
        # TLH is not perfect (a hint set just before an NRU clear-all
        # can still be wiped — the reason the paper's TLH bridges 85 %
        # of the gap rather than all of it), but it must clearly win.
        assert refetches[id(base)] > 0
        assert refetches[id(tlh)] < refetches[id(base)]
        assert tlh.total_inclusion_victims <= base.total_inclusion_victims


class TestSampling:
    def test_zero_ish_rate_drops_hints(self):
        h = make(sample_rate=0.1)
        h.access(0, addr(1))
        for _ in range(100):
            h.access(0, addr(1))
        # Deterministic accumulator: exactly 10% of 100 hits fire.
        assert h.tla.hints_sent == 10
        assert h.tla.hints_dropped == 90

    def test_full_rate_sends_all(self):
        h = make(sample_rate=1.0)
        h.access(0, addr(1))
        for _ in range(50):
            h.access(0, addr(1))
        assert h.tla.hints_sent == 50

    def test_sampling_accumulator_is_deterministic(self):
        a = make(sample_rate=0.3)
        b = make(sample_rate=0.3)
        for h in (a, b):
            h.access(0, addr(1))
            for _ in range(40):
                h.access(0, addr(1))
        assert a.tla.hints_sent == b.tla.hints_sent == 12


class TestValidation:
    def test_empty_levels_rejected(self):
        with pytest.raises(ConfigurationError):
            TemporalLocalityHints(levels=())

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            TemporalLocalityHints(sample_rate=1.5)


class TestMRUFilter:
    def test_repeat_hits_filtered(self):
        h = make()
        h.hierarchy = None  # unused; silence lint
        h = build_hierarchy(
            tiny_hierarchy(
                "inclusive",
                num_cores=1,
                tla=TLAConfig(policy="tlh", levels=("dl1",), mru_filter=True),
            )
        )
        h.access(0, addr(1))
        for _ in range(10):
            h.access(0, addr(1))  # always the MRU line
        assert h.tla.hints_sent == 0
        assert h.tla.hints_dropped == 10

    def test_alternating_hits_pass_filter(self):
        h = build_hierarchy(
            tiny_hierarchy(
                "inclusive",
                num_cores=1,
                tla=TLAConfig(policy="tlh", levels=("dl1",), mru_filter=True),
            )
        )
        # Two lines in the same L1D set: each hit displaces the other
        # from the set's MRU slot, so the filter passes every hit.
        h.access(0, addr(8))
        h.access(0, addr(16))
        for _ in range(5):
            h.access(0, addr(8))
            h.access(0, addr(16))
        assert h.tla.hints_sent == 10

    def test_filter_reduces_traffic_but_keeps_protection(self):
        """The paper's point: the filter cuts traffic, not benefit."""
        from repro.coherence import MessageType
        from repro.hierarchy import HIT_L1

        def run(mru_filter):
            h = build_hierarchy(
                tiny_hierarchy(
                    "inclusive",
                    num_cores=1,
                    tla=TLAConfig(
                        policy="tlh", levels=("il1", "dl1"), mru_filter=mru_filter
                    ),
                )
            )
            refetches = 0
            # Two alternating hot lines plus an LLC-thrashing stream;
            # each line is touched in small bursts, so the burst tails
            # are MRU hits the filter can drop without losing the
            # (burst-head) refresh.
            h.access(0, addr(8))
            h.access(0, addr(16))
            for i in range(3, 120):
                h.access(0, addr(i * 8))
                for line in (8, 16):
                    for _ in range(3):  # burst: head + 2 MRU repeats
                        if h.access(0, addr(line)) != HIT_L1:
                            refetches += 1
            return refetches, h.traffic.counts[MessageType.TLH_HINT]

    
        refetch_full, hints_full = run(False)
        refetch_filtered, hints_filtered = run(True)
        assert hints_filtered < hints_full
        assert refetch_filtered <= refetch_full + 2


class TestHintHook:
    """Plain TLH's one-call hint closure vs :meth:`on_core_cache_hit`."""

    @staticmethod
    def twins(levels):
        """A hierarchy on the closure and one on the method, each with
        its own tracer."""
        from repro.telemetry import Tracer

        pair = []
        for _ in range(2):
            h = build_hierarchy(
                tiny_hierarchy(
                    "inclusive", tla=TLAConfig(policy="tlh", levels=levels)
                )
            )
            pair.append((h, Tracer()))
        reference = pair[1][0]
        reference._tla_hit_hook = reference.tla.on_core_cache_hit
        return pair

    @staticmethod
    def state_of(h, tracer):
        tla = h.tla
        return (
            dict(h.traffic.counts),
            (tla.hints_sent, tla.hints_applied, tla.hints_dropped),
            bytes(h.llc.policy._ref),
            h.llc.stats.snapshot(),
            [(e.cycle, e.event, e.core, e.line) for e in tracer.events],
        )

    @given(
        levels=st.sampled_from(
            [("il1", "dl1"), ("il1",), ("dl1",), ("l2",), ("il1", "dl1", "l2")]
        ),
        ops=st.lists(
            st.tuples(
                st.integers(0, 1),
                # Hot lines for core-cache hits, a wide range for LLC
                # evictions.
                st.one_of(st.integers(0, 12), st.integers(0, 400)),
                st.sampled_from(list(AccessType)),
                st.booleans(),
            ),
            max_size=300,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_closure_matches_method(self, levels, ops):
        pair = self.twins(levels)
        fast = pair[0][0]
        assert not hasattr(fast._tla_hit_hook, "__self__")  # the closure
        for core_id, line, kind, traced in ops:
            # The closure reads the tracer slot on every hint.
            for h, tracer in pair:
                h.tracer = tracer if traced else None
                h.access(core_id, addr(line), kind)
            assert self.state_of(*pair[0]) == self.state_of(*pair[1])

    def test_sampled_and_filtered_tlh_keep_the_method(self):
        for tla in (
            TLAConfig(policy="tlh", sample_rate=0.5),
            TLAConfig(policy="tlh", mru_filter=True),
        ):
            h = build_hierarchy(tiny_hierarchy("inclusive", num_cores=1, tla=tla))
            assert h._tla_hit_hook == h.tla.on_core_cache_hit

    def test_policies_that_ignore_hits_cache_no_hook(self):
        for policy in ("none", "eci", "qbs"):
            h = build_hierarchy(
                tiny_hierarchy("inclusive", tla=TLAConfig(policy=policy))
            )
            assert h._tla_hit_hook is None
