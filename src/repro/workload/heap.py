"""A bump-with-reuse heap model for the trace generator.

Tracks live allocations so the generator can direct accesses at allocated
memory (the common case a clean check filters) and so malloc/free high-level
events carry real address ranges for the monitors' bulk metadata updates.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.common.rng import DeterministicRng
from repro.common.units import WORD_SIZE, align_up

#: Base virtual address of the modelled heap segment.
HEAP_BASE = 0x1000_0000


@dataclasses.dataclass
class Allocation:
    """One live heap allocation."""

    base: int
    size: int

    @property
    def num_words(self) -> int:
        return self.size // WORD_SIZE

    def word_at(self, index: int) -> int:
        """Address of the ``index``-th word of the allocation."""
        return self.base + (index % max(1, self.num_words)) * WORD_SIZE

    def contains(self, address: int) -> bool:
        return self.base <= address < self.base + self.size


class HeapModel:
    """Live-allocation bookkeeping with address reuse.

    Freed regions go on a free list and are preferentially reused, which
    matters for AddrCheck/MemCheck: re-allocating a previously freed region
    exercises the unallocated -> allocated metadata transitions.
    """

    def __init__(self, rng: DeterministicRng) -> None:
        self._rng = rng
        self._next_address = HEAP_BASE
        self._free_list: List[Allocation] = []
        self.live: List[Allocation] = []
        self.total_allocated = 0
        self.total_freed = 0

    def malloc(self, size: int) -> Allocation:
        """Allocate ``size`` bytes (word-aligned), reusing freed space."""
        size = max(WORD_SIZE, align_up(size, WORD_SIZE))
        allocation = self._take_from_free_list(size)
        if allocation is None:
            allocation = Allocation(base=self._next_address, size=size)
            self._next_address += size
        self.live.append(allocation)
        self.total_allocated += 1
        return allocation

    def _take_from_free_list(self, size: int) -> Optional[Allocation]:
        for index, freed in enumerate(self._free_list):
            if freed.size >= size:
                del self._free_list[index]
                return Allocation(base=freed.base, size=size)
        return None

    def free_random(self) -> Optional[Allocation]:
        """Free a uniformly chosen live allocation, or None if heap empty."""
        if not self.live:
            return None
        index = self._rng.randint(0, len(self.live) - 1)
        allocation = self.live.pop(index)
        self._free_list.append(allocation)
        self.total_freed += 1
        return allocation

    def free(self, allocation: Allocation) -> None:
        """Free a specific allocation (used by bug-injection traces)."""
        self.live.remove(allocation)
        self._free_list.append(allocation)
        self.total_freed += 1

    def random_live(self) -> Optional[Allocation]:
        if not self.live:
            return None
        return self._rng.choice(self.live)
