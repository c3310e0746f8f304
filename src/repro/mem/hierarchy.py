"""The application core's cache hierarchy (Table 1).

    L1: 32 KB, 2-way, 64 B blocks, 2-cycle latency
    L2: 2 MB, 16-way, 64 B blocks, 10-cycle latency (shared)
    DRAM: 90-cycle latency

``load_latency`` walks the levels and returns the total access latency in
cycles — the number the core model uses as the execute latency of a load.
"""

from __future__ import annotations

import dataclasses

from repro.common.errors import ConfigurationError, check_int
from repro.common.units import KB, MB
from repro.mem.cache import Cache, CacheConfig


@dataclasses.dataclass(frozen=True)
class HierarchyConfig:
    """Latencies and geometry for the L1/L2/DRAM stack."""

    l1: CacheConfig = dataclasses.field(
        default_factory=lambda: CacheConfig(
            size_bytes=32 * KB, associativity=2, block_bytes=64, latency=2
        )
    )
    l2: CacheConfig = dataclasses.field(
        default_factory=lambda: CacheConfig(
            size_bytes=2 * MB, associativity=16, block_bytes=64, latency=10
        )
    )
    dram_latency: int = 90

    def __post_init__(self) -> None:
        for level in ("l1", "l2"):
            if not isinstance(getattr(self, level), CacheConfig):
                raise ConfigurationError(
                    f"{level} must be a cache config, got "
                    f"{getattr(self, level)!r}"
                )
        check_int("dram_latency", self.dram_latency, 0)


class MemoryHierarchy:
    """Two cache levels over DRAM, returning load-to-use latencies."""

    def __init__(self, config: HierarchyConfig = HierarchyConfig()) -> None:
        self.config = config
        self.l1 = Cache(config.l1)
        self.l2 = Cache(config.l2)
        # Hoisted latencies: one load_latency call per load of every trace.
        self._l1_latency = config.l1.latency
        self._l2_latency = config.l1.latency + config.l2.latency
        self._dram_latency = config.l1.latency + config.l2.latency + config.dram_latency
        self._l1_access = self.l1.access
        self._l2_access = self.l2.access

    def load_latency(self, address: int) -> int:
        """Total latency of a load to ``address``, filling caches on miss."""
        if self._l1_access(address):
            return self._l1_latency
        if self._l2_access(address):
            return self._l2_latency
        return self._dram_latency

    def store_latency(self, address: int) -> int:
        """Stores allocate like loads; retirement hides store latency, but
        the returned value still orders the write in the ROB model."""
        return self.load_latency(address)

    def flush(self) -> None:
        self.l1.flush()
        self.l2.flush()
