"""Tests for the FSQ, the MD cache + M-TLB, and the Stack-Update Unit."""

import pytest

from repro.common.errors import ConfigurationError
from repro.fade.fsq import FilterStoreQueue
from repro.fade.inv_rf import InvariantRegisterFile
from repro.fade.md_cache import MetadataCache, MetadataCacheConfig
from repro.fade.suu import StackUpdateUnit
from repro.isa.events import StackOp, StackUpdate
from repro.metadata import ShadowMemory


class TestFilterStoreQueue:
    def test_lookup_returns_newest(self):
        fsq = FilterStoreQueue(capacity=4)
        fsq.insert(0x100, 1, owner_sequence=10)
        fsq.insert(0x100, 2, owner_sequence=11)
        assert fsq.lookup(0x100) == 2

    def test_lookup_miss(self):
        fsq = FilterStoreQueue()
        assert fsq.lookup(0x500) is None

    def test_release_discards_owned_entries(self):
        fsq = FilterStoreQueue()
        fsq.insert(0x100, 1, owner_sequence=10)
        fsq.insert(0x200, 2, owner_sequence=11)
        assert fsq.release(10) == 1
        assert fsq.lookup(0x100) is None
        assert fsq.lookup(0x200) == 2

    def test_capacity(self):
        fsq = FilterStoreQueue(capacity=2)
        fsq.insert(1, 1, 1)
        fsq.insert(2, 2, 2)
        assert fsq.is_full
        with pytest.raises(ConfigurationError):
            fsq.insert(3, 3, 3)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            FilterStoreQueue(capacity=0)

    def test_hit_statistics(self):
        fsq = FilterStoreQueue()
        fsq.insert(0x100, 1, 1)
        assert fsq.lookup(0x100) == 1
        assert fsq.lookup(0x999) is None
        assert fsq.max_occupancy == 1


class TestMetadataCache:
    def test_metadata_address_is_word_index(self):
        assert MetadataCache.metadata_address(0x1000) == 0x400

    def test_hit_and_miss_latency(self):
        cache = MetadataCache()
        first = cache.access(0x1000)
        assert not first.hit
        assert first.cycles == cache.config.miss_latency
        second = cache.access(0x1000)
        assert second.hit
        assert second.cycles == cache.config.hit_latency

    def test_one_block_covers_256_app_bytes(self):
        """64 B of metadata = 256 B of application data (1 byte per word)."""
        cache = MetadataCache()
        cache.access(0x1000)
        assert cache.access(0x10FC).hit  # Same 256 B app span.
        assert not cache.access(0x1100).hit

    def test_mtlb_reach_is_16kb_per_entry(self):
        cache = MetadataCache()
        first = cache.access(0x4000)
        assert first.tlb_miss
        # Anywhere within the same 16 KB app region translates.
        assert not cache.access(0x4000 + 16 * 1024 - 4).tlb_miss
        assert cache.access(0x4000 + 16 * 1024).tlb_miss

    def test_bulk_touch_counts_blocks(self):
        cache = MetadataCache()
        # 1024 app bytes = 256 metadata bytes = 4 blocks of 64.
        assert cache.bulk_touch(0x2000, 1024) == 4
        assert cache.bulk_touch(0x2000, 1) == 1

    def test_flush(self):
        cache = MetadataCache()
        cache.access(0x1000)
        cache.flush()
        assert not cache.access(0x1000).hit

    def test_section6_defaults(self):
        config = MetadataCacheConfig()
        assert config.size_bytes == 4 * 1024
        assert config.associativity == 2
        assert config.hit_latency == 1
        assert config.tlb_entries == 16


class TestStackUpdateUnit:
    def make_suu(self, call_value=0x01, return_value=0x00):
        inv_rf = InvariantRegisterFile()
        inv_rf.load([call_value, return_value])
        suu = StackUpdateUnit(
            inv_rf=inv_rf,
            md_cache=MetadataCache(),
            call_inv_id=0,
            return_inv_id=1,
        )
        return suu

    def test_call_fills_with_call_invariant(self):
        suu = self.make_suu(call_value=0x01)
        metadata = ShadowMemory(default=0)
        suu.process(StackUpdate(StackOp.CALL, frame_base=0x7000, frame_size=64), metadata)
        for offset in range(0, 64, 4):
            assert metadata.read(0x7000 + offset) == 0x01

    def test_return_fills_with_return_invariant(self):
        suu = self.make_suu(call_value=0x01, return_value=0x00)
        metadata = ShadowMemory(default=0xFF)
        suu.process(StackUpdate(StackOp.CALL, 0x7000, 32), metadata)
        suu.process(StackUpdate(StackOp.RETURN, 0x7000, 32), metadata)
        assert metadata.read(0x7000) == 0x00

    def test_cycles_scale_with_blocks(self):
        suu = self.make_suu()
        metadata = ShadowMemory()
        small = suu.process(StackUpdate(StackOp.CALL, 0x8000, 64), metadata)
        large = suu.process(StackUpdate(StackOp.CALL, 0x10000, 4096), metadata)
        assert small >= StackUpdateUnit.SETUP_CYCLES + 1
        assert large > small

    def test_statistics(self):
        suu = self.make_suu()
        metadata = ShadowMemory()
        suu.process(StackUpdate(StackOp.CALL, 0x8000, 64), metadata)
        assert suu.stats.updates == 1
        assert suu.stats.words_written == 16
        assert suu.stats.busy_cycles > 0
