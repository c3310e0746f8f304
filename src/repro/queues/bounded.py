"""A bounded FIFO with occupancy tracking.

``capacity=None`` models the infinite queue of the Section 3.2 study.  The
queue never drops entries: a full queue rejects the enqueue (``try_enqueue``
returns ``False``) and the producer must stall, which is exactly the
backpressure mechanism between the application core and FADE.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, deque
from typing import Deque, Generic, Iterator, Optional, TypeVar

from repro.common.errors import ConfigurationError, QueueFullError

T = TypeVar("T")


@dataclasses.dataclass
class QueueStats:
    """Lifetime statistics of a bounded queue.

    ``occupancy_histogram`` counts, per sampled cycle, how many entries were
    resident — the raw data behind the cumulative occupancy distributions of
    Figure 3(a, b).  The simulator adds to it directly, a whole
    constant-occupancy interval at a time.
    """

    enqueued: int = 0
    dequeued: int = 0
    rejected: int = 0
    max_occupancy: int = 0
    occupancy_histogram: Counter = dataclasses.field(default_factory=Counter)

    def to_dict(self) -> dict:
        """Plain-JSON representation (histogram keys become strings); the
        inverse of :meth:`from_dict`."""
        return {
            "enqueued": self.enqueued,
            "dequeued": self.dequeued,
            "rejected": self.rejected,
            "max_occupancy": self.max_occupancy,
            "occupancy_histogram": {
                str(occupancy): count
                for occupancy, count in sorted(self.occupancy_histogram.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QueueStats":
        histogram = Counter(
            {int(occupancy): count
             for occupancy, count in data.get("occupancy_histogram", {}).items()}
        )
        return cls(
            enqueued=data.get("enqueued", 0),
            dequeued=data.get("dequeued", 0),
            rejected=data.get("rejected", 0),
            max_occupancy=data.get("max_occupancy", 0),
            occupancy_histogram=histogram,
        )


class BoundedQueue(Generic[T]):
    """FIFO with optional capacity bound and statistics."""

    def __init__(self, capacity: Optional[int] = None, name: str = "queue") -> None:
        if capacity is not None and capacity <= 0:
            raise ConfigurationError(f"{name}: capacity must be positive or None")
        self.capacity = capacity
        self.name = name
        self.stats = QueueStats()
        self._entries: Deque[T] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[T]:
        return iter(self._entries)

    @property
    def is_empty(self) -> bool:
        return not self._entries

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._entries) >= self.capacity

    def try_enqueue(self, item: T) -> bool:
        """Enqueue unless full.  Returns whether the item was accepted."""
        if self.is_full:
            self.stats.rejected += 1
            return False
        self._entries.append(item)
        self.stats.enqueued += 1
        if len(self._entries) > self.stats.max_occupancy:
            self.stats.max_occupancy = len(self._entries)
        return True

    def enqueue(self, item: T) -> None:
        """Enqueue or raise :class:`QueueFullError`."""
        if not self.try_enqueue(item):
            raise QueueFullError(f"{self.name} is full (capacity {self.capacity})")

    def dequeue(self) -> T:
        """Remove and return the head (raises IndexError when empty)."""
        item = self._entries.popleft()
        self.stats.dequeued += 1
        return item

    def clear(self) -> None:
        while self._entries:
            self.dequeue()
