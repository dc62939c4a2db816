"""Tests for the bounded LRU primitive (repro.cache.lru)."""

from __future__ import annotations

import sys

from repro.cache import LRUCache, MISSING, approx_size


class TestApproxSize:
    def test_scalars(self):
        assert approx_size("abc") == sys.getsizeof("abc")
        assert approx_size(42) == sys.getsizeof(42)

    def test_containers_sum_members(self):
        assert approx_size(["ab", "cd"]) > approx_size(["ab"])
        assert approx_size({"k": "v"}) > approx_size({})

    def test_shared_objects_counted_once(self):
        shared = "x" * 1000
        assert approx_size([shared, shared]) < 2 * approx_size(shared)

    def test_objects_with_dict_and_slots(self):
        class WithDict:
            def __init__(self):
                self.payload = "y" * 500

        class WithSlots:
            __slots__ = ("payload",)

            def __init__(self):
                self.payload = "y" * 500

        assert approx_size(WithDict()) > 500
        assert approx_size(WithSlots()) > 500


class TestLRUCache:
    def test_get_put_roundtrip(self):
        cache = LRUCache()
        assert cache.get("k") is MISSING
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert len(cache) == 1

    def test_counters(self):
        cache = LRUCache()
        cache.get("absent")
        cache.put("k", "v")
        cache.get("k")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["bytes"] > 0

    def test_get_many_counts_and_refreshes_like_get(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get_many(["a", "absent", "a"]) == [1, MISSING, 1]
        assert (cache.hits, cache.misses) == (2, 1)
        cache.put("c", 3)  # "a" was refreshed, so "b" is the LRU victim
        assert cache.peek("a") == 1
        assert cache.peek("b") is MISSING

    def test_peek_moves_no_counters(self):
        cache = LRUCache()
        cache.put("k", "v")
        assert cache.peek("k") == "v"
        assert cache.peek("absent") is MISSING
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_entry_bound_evicts_least_recent(self):
        cache = LRUCache(max_entries=2, max_bytes=0)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # freshen a; b is now least recently used
        cache.put("c", 3)
        assert cache.get("b") is MISSING
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_byte_bound_evicts(self):
        item = "x" * 1000
        cache = LRUCache(max_entries=0, max_bytes=3 * approx_size(item))
        for key in range(6):
            cache.put(key, "x" * 1000)
        assert len(cache) < 6
        assert cache.current_bytes <= 3 * approx_size(item)

    def test_zero_bounds_disable_limits(self):
        cache = LRUCache(max_entries=0, max_bytes=0)
        for key in range(500):
            cache.put(key, key)
        assert len(cache) == 500

    def test_put_replaces_and_reaccounts(self):
        cache = LRUCache()
        cache.put("k", "small")
        small = cache.current_bytes
        cache.put("k", "x" * 10_000)
        assert len(cache) == 1
        assert cache.current_bytes > small
        cache.put("k", "small")
        assert cache.current_bytes == small

    def test_discard(self):
        cache = LRUCache()
        cache.put("k", "v")
        cache.discard("k")
        cache.discard("k")  # idempotent
        assert cache.get("k") is MISSING
        assert cache.current_bytes == 0

    def test_invalidate_where(self):
        cache = LRUCache()
        for key in ("a1", "a2", "b1"):
            cache.put(key, key)
        dropped = cache.invalidate_where(lambda key: key.startswith("a"))
        assert dropped == 2
        assert cache.get("b1") == "b1"
        assert cache.get("a1") is MISSING
        assert cache.stats()["invalidations"] == 2

    def test_clear(self):
        cache = LRUCache()
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.current_bytes == 0

    def test_explicit_size_overrides_estimate(self):
        cache = LRUCache(max_entries=0, max_bytes=100)
        cache.put("k", "x" * 10_000, size=10)
        assert cache.get("k") is not MISSING
