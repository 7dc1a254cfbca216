"""Unit + property tests for the L2 cache model."""

from hypothesis import given, settings, strategies as st

from repro.common.types import CacheState
from repro.node.cache import Cache


def make_cache(capacity=4):
    return Cache(node_id=0, capacity_lines=capacity)


class TestBasics:
    def test_empty_lookup_misses(self):
        cache = make_cache()
        assert cache.lookup(0x100) is None
        assert cache.misses == 1

    def test_fill_then_hit(self):
        cache = make_cache()
        cache.fill(0x100, "v", CacheState.SHARED)
        line = cache.lookup(0x100)
        assert line is not None and line.value == "v"
        assert cache.hits == 1

    def test_write_lookup_on_shared_misses(self):
        cache = make_cache()
        cache.fill(0x100, "v", CacheState.SHARED)
        assert cache.lookup(0x100, for_write=True) is None

    def test_write_lookup_on_exclusive_hits(self):
        cache = make_cache()
        cache.fill(0x100, "v", CacheState.EXCLUSIVE)
        assert cache.lookup(0x100, for_write=True) is not None

    def test_write_updates_value(self):
        cache = make_cache()
        cache.fill(0x100, "old", CacheState.EXCLUSIVE)
        cache.write(0x100, "new")
        assert cache.lookup(0x100).value == "new"

    def test_write_to_shared_raises(self):
        cache = make_cache()
        cache.fill(0x100, "v", CacheState.SHARED)
        try:
            cache.write(0x100, "new")
        except RuntimeError:
            pass
        else:
            raise AssertionError("expected RuntimeError")

    def test_state_of_absent_line(self):
        assert make_cache().state_of(0x500) == CacheState.INVALID


class TestEviction:
    def test_lru_victim_selected(self):
        cache = make_cache(capacity=2)
        cache.fill(0x100, "a", CacheState.SHARED)
        cache.fill(0x200, "b", CacheState.SHARED)
        cache.lookup(0x100)            # 0x200 becomes LRU
        victim = cache.fill(0x300, "c", CacheState.SHARED)
        assert victim[0] == 0x200

    def test_refill_existing_line_does_not_evict(self):
        cache = make_cache(capacity=2)
        cache.fill(0x100, "a", CacheState.SHARED)
        cache.fill(0x200, "b", CacheState.SHARED)
        assert cache.fill(0x100, "a2", CacheState.EXCLUSIVE) is None

    def test_victim_carries_state_and_value(self):
        cache = make_cache(capacity=1)
        cache.fill(0x100, "dirty", CacheState.EXCLUSIVE)
        victim_addr, victim_line = cache.fill(0x200, "x", CacheState.SHARED)
        assert victim_addr == 0x100
        assert victim_line.state == CacheState.EXCLUSIVE
        assert victim_line.value == "dirty"


class TestInvalidationAndFlush:
    def test_invalidate_dirty_returns_value(self):
        cache = make_cache()
        cache.fill(0x100, "dirty", CacheState.EXCLUSIVE)
        assert cache.invalidate(0x100) == "dirty"
        assert not cache.contains(0x100)

    def test_invalidate_clean_returns_none(self):
        cache = make_cache()
        cache.fill(0x100, "clean", CacheState.SHARED)
        assert cache.invalidate(0x100) is None

    def test_invalidate_absent_returns_none(self):
        assert make_cache().invalidate(0x900) is None

    def test_downgrade_returns_value_and_changes_state(self):
        cache = make_cache()
        cache.fill(0x100, "v", CacheState.EXCLUSIVE)
        assert cache.downgrade(0x100) == "v"
        assert cache.state_of(0x100) == CacheState.SHARED

    def test_flush_all_returns_only_dirty(self):
        cache = make_cache()
        cache.fill(0x100, "d1", CacheState.EXCLUSIVE)
        cache.fill(0x200, "c", CacheState.SHARED)
        cache.fill(0x300, "d2", CacheState.EXCLUSIVE)
        dirty = dict(cache.flush_all())
        assert dirty == {0x100: "d1", 0x300: "d2"}
        assert len(cache) == 0

    def test_drop_all_loses_everything_silently(self):
        cache = make_cache()
        cache.fill(0x100, "d", CacheState.EXCLUSIVE)
        cache.drop_all()
        assert len(cache) == 0


# --- property tests -----------------------------------------------------------

@given(st.lists(st.tuples(st.integers(0, 19),
                          st.sampled_from(["fill_s", "fill_e", "inval",
                                           "lookup"])),
                max_size=60))
@settings(max_examples=80, deadline=None)
def test_property_capacity_never_exceeded(operations):
    cache = make_cache(capacity=4)
    for line_no, action in operations:
        address = line_no * 0x80
        if action == "fill_s":
            cache.fill(address, "v", CacheState.SHARED)
        elif action == "fill_e":
            cache.fill(address, "v", CacheState.EXCLUSIVE)
        elif action == "inval":
            cache.invalidate(address)
        else:
            cache.lookup(address)
        assert len(cache) <= 4


@given(st.lists(st.integers(0, 9), min_size=1, max_size=40))
@settings(max_examples=80, deadline=None)
def test_property_flush_returns_each_dirty_line_once(fill_order):
    cache = make_cache(capacity=100)
    expected = {}
    for line_no in fill_order:
        address = line_no * 0x80
        cache.fill(address, ("v", line_no), CacheState.EXCLUSIVE)
        expected[address] = ("v", line_no)
    dirty = cache.flush_all()
    assert sorted(dirty) == sorted(expected.items())
