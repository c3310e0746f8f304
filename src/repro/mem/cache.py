"""A set-associative cache timing model with true LRU replacement.

Only timing state (tags and recency) is modelled; data travel through the
functional shadow structures.  The model is deliberately small and fast: a
single dict lookup per access on the hit path, because the application-core
model performs one cache access per load/store of the trace.

Sets are built on first touch: a fresh cache holds no per-set objects, so
building one costs the same for a 64-set L1 and a 2,048-set L2, and a short
trace pays only for the sets it reaches.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Dict

from repro.common.errors import ConfigurationError, check_int


@dataclasses.dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level.

    Attributes:
        size_bytes: total capacity.
        associativity: ways per set.
        block_bytes: cache-block size.
        latency: access (hit) latency in cycles.
        name: label used in statistics output.
    """

    size_bytes: int
    associativity: int
    block_bytes: int
    latency: int
    name: str = "cache"

    def __post_init__(self) -> None:
        for field in ("size_bytes", "associativity", "block_bytes"):
            check_int(f"{self.name}.{field}", getattr(self, field), 1)
        check_int(f"{self.name}.latency", self.latency, 0)
        if self.size_bytes % (self.associativity * self.block_bytes) != 0:
            raise ConfigurationError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"associativity*block ({self.associativity}*{self.block_bytes})"
            )
        num_sets = self.size_bytes // (self.associativity * self.block_bytes)
        if num_sets & (num_sets - 1) != 0:
            raise ConfigurationError(f"{self.name}: set count {num_sets} not a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.block_bytes)


@dataclasses.dataclass
class CacheStats:
    """Hit/miss counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class Cache:
    """One level of set-associative cache with LRU replacement.

    ``access`` returns ``True`` on a hit.  The caller composes levels into a
    hierarchy (see :mod:`repro.mem.hierarchy`); this class knows nothing about
    what backs it.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        # Geometry hoisted to plain ints: ``access`` runs once per
        # load/store of every trace, and ``config.num_sets`` is a computed
        # property.
        self._block_bytes = config.block_bytes
        self._num_sets = config.num_sets
        self._associativity = config.associativity
        # Set index -> OrderedDict of tag -> None, most recent last, for
        # the sets touched so far.  A plain dict, not a defaultdict: warm
        # states pickle their caches through an allow-list that admits
        # OrderedDict and dict only.
        self._sets: Dict[int, OrderedDict] = {}

    def _locate(self, address: int) -> tuple:
        block = address // self._block_bytes
        return block % self._num_sets, block // self._num_sets

    def access(self, address: int) -> bool:
        """Look up ``address``; allocate on miss.  Returns hit status."""
        block = address // self._block_bytes
        try:
            ways = self._sets[block % self._num_sets]
        except KeyError:  # First touch of this set.
            ways = self._sets[block % self._num_sets] = OrderedDict()
        tag = block // self._num_sets
        stats = self.stats
        if tag in ways:
            ways.move_to_end(tag)
            stats.hits += 1
            return True
        stats.misses += 1
        if len(ways) >= self._associativity:
            ways.popitem(last=False)
            stats.evictions += 1
        ways[tag] = None
        return False

    def probe(self, address: int) -> bool:
        """Check residency without updating recency or statistics."""
        set_index, tag = self._locate(address)
        return tag in self._sets.get(set_index, ())

    def invalidate(self, address: int) -> bool:
        """Drop the block containing ``address`` if resident."""
        set_index, tag = self._locate(address)
        ways = self._sets.get(set_index, ())
        if tag in ways:
            del ways[tag]
            return True
        return False

    def flush(self) -> None:
        self._sets.clear()

