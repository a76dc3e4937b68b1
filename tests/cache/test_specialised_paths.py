"""Specialised ``access`` / ``fill`` / ``promote`` closures vs the generic methods.

For an un-hashed cache under the stock LRU family, :class:`Cache`
shadows ``access`` (and, for plain LRU only, ``fill``) with closures
that do the whole operation in one body; under plain NRU it shadows
``promote``.  The class methods stay the behavioural reference: this
module drives identical random operation sequences through a cache
using the closures and a twin with them removed, and requires equal
returns and equal internal state after every operation — tag store,
residency-map order, recency stamps, set clocks, cold counters (NRU:
reference bits), stats and the ``last_hit_was_mru`` flag TLH's MRU
filter reads.
"""

from hypothesis import example, given, settings, strategies as st

from repro.cache import Cache
from repro.config import CacheConfig


def build_cache(sets: int, ways: int, replacement: str, index_hash=False) -> Cache:
    return Cache(
        CacheConfig(
            sets * ways * 64, ways, 64, replacement, name="twin",
            index_hash=index_hash,
        )
    )


def generic_twin(sets: int, ways: int, replacement: str) -> Cache:
    """The same cache with the instance closures removed, so ``access``,
    ``fill`` and ``promote`` resolve to the class methods."""
    cache = build_cache(sets, ways, replacement)
    for name in ("access", "fill", "promote"):
        vars(cache).pop(name, None)
    return cache


def state_of(cache: Cache):
    policy = cache.policy
    return (
        list(cache._addrs),
        bytes(cache._valid),
        bytes(cache._dirty),
        list(cache._map.items()),
        list(policy._stamp),
        list(policy._clock),
        list(policy._cold),
        cache.stats.snapshot(),
        policy.last_hit_was_mru,
    )


GEOMETRY = st.sampled_from([1, 2, 4, 8])
ADDRESSES = st.integers(min_value=0, max_value=95)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("access"), ADDRESSES, st.booleans()),
        st.tuples(st.just("fill"), ADDRESSES, st.booleans()),
        st.tuples(
            st.just("fill_excluding"),
            ADDRESSES,
            st.booleans(),
            st.frozensets(st.integers(0, 7), min_size=1, max_size=7),
        ),
        st.tuples(st.just("invalidate"), ADDRESSES),
        st.tuples(st.just("promote"), ADDRESSES),
    ),
    max_size=250,
)


def apply(cache: Cache, op):
    name = op[0]
    if name == "access":
        return cache.access(op[1], write=op[2])
    if name == "fill":
        return cache.fill(op[1], dirty=op[2])
    if name == "fill_excluding":
        return cache.fill(op[1], op[2], op[3])
    if name == "invalidate":
        return cache.invalidate(op[1])
    return cache.promote(op[1])


class TestClosuresMatchGenericMethods:
    @given(
        sets=GEOMETRY,
        ways=GEOMETRY,
        policy=st.sampled_from(["lru", "lip", "mru"]),
        ops=OPS,
    )
    # Evictions from a 1-way set, where the evicted way was also the
    # set's top stamp, so the set clock resyncs to its cold stamp.
    @example(
        sets=1,
        ways=1,
        policy="lru",
        ops=[("fill", 0, False), ("fill", 1, True), ("fill", 2, False)],
    )
    @settings(max_examples=150, deadline=None)
    def test_same_returns_and_state_after_every_op(self, sets, ways, policy, ops):
        fast = build_cache(sets, ways, policy)
        reference = generic_twin(sets, ways, policy)
        assert "access" in vars(fast)
        assert ("fill" in vars(fast)) == (policy == "lru")
        assert state_of(fast) == state_of(reference)
        for op in ops:
            if op[0] == "fill_excluding":
                excluded = frozenset(way for way in op[3] if way < ways)
                if not excluded or len(excluded) >= ways:
                    continue
                op = (op[0], op[1], op[2], excluded)
            assert apply(fast, op) == apply(reference, op), op
            assert state_of(fast) == state_of(reference), op


def nru_state_of(cache: Cache):
    return (
        list(cache._addrs),
        bytes(cache._valid),
        bytes(cache._dirty),
        list(cache._map.items()),
        bytes(cache.policy._ref),
        cache.stats.snapshot(),
    )


#: few addresses, so sets fill, the all-set reference bits get cleared
#: and promotes land on lines whose bit is clear.
NRU_ADDRESSES = st.integers(min_value=0, max_value=15)
NRU_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("access"), NRU_ADDRESSES, st.booleans()),
        st.tuples(st.just("fill"), NRU_ADDRESSES, st.booleans()),
        st.tuples(
            st.just("fill_excluding"),
            NRU_ADDRESSES,
            st.booleans(),
            st.frozensets(st.integers(0, 7), min_size=1, max_size=7),
        ),
        st.tuples(st.just("invalidate"), NRU_ADDRESSES),
        st.tuples(st.just("promote"), NRU_ADDRESSES),
    ),
    max_size=250,
)


class TestNRUPromoteClosure:
    @given(sets=st.sampled_from([1, 2, 4]), ways=GEOMETRY, ops=NRU_OPS)
    # A full set's third fill clears every reference bit, so the
    # promote lands on a line whose bit is clear.
    @example(
        sets=1,
        ways=2,
        ops=[("fill", 0, False), ("fill", 1, False), ("fill", 2, False),
             ("promote", 1)],
    )
    @settings(max_examples=150, deadline=None)
    def test_same_returns_and_state_after_every_op(self, sets, ways, ops):
        fast = build_cache(sets, ways, "nru")
        reference = generic_twin(sets, ways, "nru")
        assert "promote" in vars(fast)
        assert "promote" not in vars(reference)
        assert nru_state_of(fast) == nru_state_of(reference)
        for op in ops:
            if op[0] == "fill_excluding":
                excluded = frozenset(way for way in op[3] if way < ways)
                if not excluded or len(excluded) >= ways:
                    continue
                op = (op[0], op[1], op[2], excluded)
            assert apply(fast, op) == apply(reference, op), op
            assert nru_state_of(fast) == nru_state_of(reference), op


class TestGenericPathKept:
    def test_lip_and_mru_keep_generic_fill(self):
        for policy in ("lip", "mru"):
            cache = build_cache(4, 4, policy)
            assert "fill" not in vars(cache), policy
            assert cache.fill.__func__ is Cache.fill

    def test_fifo_keeps_generic_access_and_fill(self):
        cache = build_cache(4, 4, "fifo")
        assert "access" not in vars(cache)
        assert "fill" not in vars(cache)

    def test_hashed_index_keeps_generic_access_and_fill(self):
        cache = build_cache(4, 4, "lru", index_hash=True)
        assert "access" not in vars(cache)
        assert "fill" not in vars(cache)
        assert cache.fill.__func__ is Cache.fill

    def test_only_plain_unhashed_nru_gets_the_promote_closure(self):
        for cache in (
            build_cache(4, 4, "lru"),
            build_cache(4, 4, "srrip"),
            build_cache(4, 4, "nru", index_hash=True),
        ):
            assert "promote" not in vars(cache)
            assert cache.promote.__func__ is Cache.promote

    def test_fill_closure_adds_no_reference_cycle(self):
        import gc
        import weakref

        cache = build_cache(4, 4, "lru")
        ref = weakref.ref(cache)
        gc.disable()
        try:
            del cache
            assert ref() is None
        finally:
            gc.enable()
