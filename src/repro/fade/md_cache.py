"""The metadata cache (MD cache) and metadata TLB (M-TLB).

Section 4.1/6: a 4 KB, two-way MD cache with one-cycle access latency and a
16-entry M-TLB holding application-page -> metadata-page translations, with
misses serviced in software.  With one metadata byte per application word the
metadata address space is the application address space shifted right by two;
a 64 B metadata block therefore covers 256 B of application data.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict

from repro.common.errors import check_int
from repro.common.units import KB, WORD_SIZE
from repro.mem.cache import Cache, CacheConfig
from repro.mem.tlb import Tlb


@dataclasses.dataclass(frozen=True)
class MetadataCacheConfig:
    """Geometry of the MD cache and M-TLB (Table 1 text + Section 6)."""

    size_bytes: int = 4 * KB
    associativity: int = 2
    block_bytes: int = 64
    hit_latency: int = 1
    #: Fill latency on an MD-cache miss (from the shared L2, Table 1).
    miss_latency: int = 10
    tlb_entries: int = 16
    #: Software M-TLB-miss service cost, in monitor-core instructions.
    tlb_service_instructions: int = 30

    def __post_init__(self) -> None:
        for name in ("size_bytes", "associativity", "block_bytes",
                     "tlb_entries"):
            check_int(name, getattr(self, name), 1)
        for name in ("hit_latency", "miss_latency",
                     "tlb_service_instructions"):
            check_int(name, getattr(self, name), 0)


@dataclasses.dataclass(frozen=True)
class MetadataAccess:
    """Timing result of one metadata access."""

    hit: bool
    cycles: int
    tlb_miss: bool


class MetadataCache:
    """Timing model of the MD cache + M-TLB pair.

    Functional metadata lives in the monitor's shadow structures; this class
    only answers "how many cycles did that access cost, and did the M-TLB
    miss" (an M-TLB miss additionally costs software service time, charged by
    the system model to the monitor core).
    """

    def __init__(self, config: MetadataCacheConfig = MetadataCacheConfig()) -> None:
        self.config = config
        self._cache = Cache(
            CacheConfig(
                size_bytes=config.size_bytes,
                associativity=config.associativity,
                block_bytes=config.block_bytes,
                latency=config.hit_latency,
            )
        )
        self._tlb = Tlb(config.tlb_entries)

    @staticmethod
    def metadata_address(app_address: int) -> int:
        """Metadata byte address of the word containing ``app_address``."""
        return app_address // WORD_SIZE

    def access(self, app_address: int) -> MetadataAccess:
        """One metadata read or write for an application address.

        The M-TLB translates at *metadata-page* granularity: one entry maps
        the (4 KB) metadata page backing 16 KB of application space, which is
        what gives a 16-entry M-TLB its reach.
        """
        tlb_hit = self._tlb.access(self.metadata_address(app_address))
        hit = self._cache.access(self.metadata_address(app_address))
        cycles = self.config.hit_latency if hit else self.config.miss_latency
        return MetadataAccess(hit=hit, cycles=cycles, tlb_miss=not tlb_hit)

    def access_cycles(self, app_address: int) -> "tuple[int, bool]":
        """``(cycles, tlb_miss)`` of one access, without the
        :class:`MetadataAccess` wrapper.

        State effects (TLB and cache fills, recency, statistics) are exactly
        those of :meth:`access` — the TLB and cache bodies are inlined here
        because the filter memo's replay path performs one call per memory
        event, keeping per-event MD-cache timing while skipping the chain
        walk.  Any edit to ``Tlb.access``/``Cache.access`` must be mirrored
        here; ``tests/test_burst_drain.py::test_access_cycles_mirrors_access``
        pins the equivalence.
        """
        metadata_address = app_address // WORD_SIZE
        # Inlined Tlb.access(metadata_address).
        tlb = self._tlb
        page = metadata_address // tlb.page_size
        pages = tlb._pages
        if page in pages:
            pages.move_to_end(page)
            tlb.stats.hits += 1
            tlb_miss = False
        else:
            tlb.stats.misses += 1
            if len(pages) >= tlb.entries:
                pages.popitem(last=False)
            pages[page] = None
            tlb_miss = True
        # Inlined Cache.access(metadata_address).
        cache = self._cache
        block = metadata_address // cache._block_bytes
        try:
            ways = cache._sets[block % cache._num_sets]
        except KeyError:  # First touch of this set.
            ways = cache._sets[block % cache._num_sets] = OrderedDict()
        tag = block // cache._num_sets
        stats = cache.stats
        if tag in ways:
            ways.move_to_end(tag)
            stats.hits += 1
            return self.config.hit_latency, tlb_miss
        stats.misses += 1
        if len(ways) >= cache._associativity:
            ways.popitem(last=False)
            stats.evictions += 1
        ways[tag] = None
        return self.config.miss_latency, tlb_miss

    def bulk_touch(self, start: int, length: int) -> int:
        """Touch every metadata block covering an application range.

        Used by the Stack-Update Unit; returns the number of metadata blocks
        written (one SUU write each).
        """
        first_block = self.metadata_address(start) // self.config.block_bytes
        last_block = self.metadata_address(start + max(0, length - 1))
        last_block //= self.config.block_bytes
        blocks = last_block - first_block + 1
        for block in range(first_block, last_block + 1):
            self._cache.access(block * self.config.block_bytes)
        return blocks

    @property
    def cache_stats(self):
        return self._cache.stats

    @property
    def tlb_stats(self):
        return self._tlb.stats

    def flush(self) -> None:
        self._cache.flush()
        self._tlb.flush()

