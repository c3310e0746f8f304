"""A small fully-associative TLB with LRU replacement.

Used for FADE's metadata TLB (M-TLB, Section 4.1): it holds translations
from virtual application pages to the physical pages that contain the
associated memory metadata.  Misses are serviced in software, which the
system model charges to the monitor core.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict

from repro.common.errors import ConfigurationError
from repro.common.units import PAGE_SIZE


@dataclasses.dataclass
class TlbStats:
    hits: int = 0
    misses: int = 0

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


class Tlb:
    """Fully-associative, LRU-replaced translation buffer."""

    def __init__(self, entries: int, page_size: int = PAGE_SIZE) -> None:
        if entries <= 0:
            raise ConfigurationError("TLB must have at least one entry")
        if page_size <= 0 or page_size & (page_size - 1) != 0:
            raise ConfigurationError("page size must be a positive power of two")
        self.entries = entries
        self.page_size = page_size
        self.stats = TlbStats()
        self._pages: OrderedDict = OrderedDict()

    def access(self, address: int) -> bool:
        """Translate the page containing ``address``; fill on miss."""
        page = address // self.page_size
        if page in self._pages:
            self._pages.move_to_end(page)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(self._pages) >= self.entries:
            self._pages.popitem(last=False)
        self._pages[page] = None
        return False

    def flush(self) -> None:
        self._pages.clear()

