"""Tests for repro.mem: caches, TLBs, the hierarchy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.mem import Cache, CacheConfig, MemoryHierarchy, Tlb
from repro.mem.hierarchy import HierarchyConfig


def small_cache(sets=4, ways=2, block=16):
    return Cache(
        CacheConfig(
            size_bytes=sets * ways * block,
            associativity=ways,
            block_bytes=block,
            latency=2,
            name="test",
        )
    )


class TestCacheConfig:
    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=96, associativity=2, block_bytes=16, latency=1)

    def test_rejects_indivisible_geometry(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=100, associativity=3, block_bytes=16, latency=1)

    def test_rejects_zero_size(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=0, associativity=1, block_bytes=16, latency=1)

    def test_num_sets(self):
        config = CacheConfig(size_bytes=128, associativity=2, block_bytes=16, latency=1)
        assert config.num_sets == 4


class TestCache:
    def test_first_access_misses_then_hits(self):
        cache = small_cache()
        assert not cache.access(0x100)
        assert cache.access(0x100)
        assert cache.access(0x10F)  # Same block.
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1

    def test_lru_eviction_order(self):
        cache = small_cache(sets=1, ways=2, block=16)
        cache.access(0x00)  # A
        cache.access(0x10)  # B
        cache.access(0x00)  # Touch A: B is now LRU.
        cache.access(0x20)  # C evicts B.
        assert cache.probe(0x00)
        assert not cache.probe(0x10)
        assert cache.probe(0x20)
        assert cache.stats.evictions == 1

    def test_different_sets_do_not_conflict(self):
        cache = small_cache(sets=4, ways=1, block=16)
        for index in range(4):
            cache.access(index * 16)
        assert all(cache.probe(index * 16) for index in range(4))

    def test_probe_does_not_change_state(self):
        cache = small_cache()
        cache.access(0x100)
        hits_before = cache.stats.hits
        cache.probe(0x100)
        cache.probe(0x999)
        assert cache.stats.hits == hits_before

    def test_invalidate(self):
        cache = small_cache()
        cache.access(0x100)
        assert cache.invalidate(0x100)
        assert not cache.probe(0x100)
        assert not cache.invalidate(0x100)

    def test_flush(self):
        cache = small_cache()
        cache.access(0x100)
        cache.flush()
        assert not cache.probe(0x100)

    def test_resident_never_exceeds_capacity(self):
        cache = small_cache(sets=2, ways=2, block=16)
        for address in range(0, 4096, 16):
            cache.access(address)
        assert sum(cache.probe(address) for address in range(0, 4096, 16)) <= 4

    @given(st.lists(st.integers(min_value=0, max_value=1 << 16), max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_hit_rate_monotone_in_capacity(self, addresses):
        """A strictly larger fully-backwards-compatible cache (same sets,
        more ways) never hits less on the same trace (LRU inclusion)."""
        small = small_cache(sets=4, ways=1)
        large = small_cache(sets=4, ways=4)
        for address in addresses:
            small.access(address)
            large.access(address)
        assert large.stats.hits >= small.stats.hits


class TestTlb:
    def test_hit_after_fill(self):
        tlb = Tlb(entries=2, page_size=4096)
        assert not tlb.access(0x1000)
        assert tlb.access(0x1FFF)  # Same page.

    def test_lru_eviction(self):
        tlb = Tlb(entries=2, page_size=4096)
        tlb.access(0x0000)
        tlb.access(0x1000)
        tlb.access(0x0000)  # Page 0 is MRU.
        tlb.access(0x2000)  # Evicts page 1.
        assert tlb.access(0x0000)
        assert not tlb.access(0x1000)

    def test_rejects_bad_page_size(self):
        with pytest.raises(ConfigurationError):
            Tlb(entries=4, page_size=3000)

    def test_rejects_zero_entries(self):
        with pytest.raises(ConfigurationError):
            Tlb(entries=0)

    def test_resident_bounded(self):
        tlb = Tlb(entries=3, page_size=4096)
        for page in range(10):
            tlb.access(page * 4096)
        assert all(tlb.access(page * 4096) for page in (7, 8, 9))
        assert not tlb.access(6 * 4096)


class TestHierarchy:
    def test_latency_tiers(self):
        hierarchy = MemoryHierarchy()
        config = hierarchy.config
        cold = hierarchy.load_latency(0x1234)
        assert cold == config.l1.latency + config.l2.latency + config.dram_latency
        warm = hierarchy.load_latency(0x1234)
        assert warm == config.l1.latency

    def test_l2_hit_latency(self):
        hierarchy = MemoryHierarchy()
        config = hierarchy.config
        hierarchy.load_latency(0x1234)  # Fill both levels.
        # Evict from L1 by sweeping its capacity with conflicting blocks.
        for address in range(0x100000, 0x100000 + 2 * config.l1.size_bytes, 64):
            hierarchy.load_latency(address)
        latency = hierarchy.load_latency(0x1234)
        assert latency == config.l1.latency + config.l2.latency

    def test_flush(self):
        hierarchy = MemoryHierarchy()
        hierarchy.load_latency(0x40)
        hierarchy.flush()
        cold = hierarchy.load_latency(0x40)
        assert cold > hierarchy.config.l1.latency

    def test_table1_defaults(self):
        config = HierarchyConfig()
        assert config.l1.size_bytes == 32 * 1024
        assert config.l1.associativity == 2
        assert config.l2.size_bytes == 2 * 1024 * 1024
        assert config.l2.associativity == 16
        assert config.dram_latency == 90
