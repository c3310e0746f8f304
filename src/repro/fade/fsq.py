"""The Filter Store Queue (FSQ).

In Non-Blocking mode, critical-metadata updates for *memory* operands of
unfilterable events are committed to the FSQ in the Metadata Write stage
(register updates go straight to the MD RF).  Dependent younger events search
the FSQ in parallel with the MD cache and the newest matching entry wins.
When the software handler of the owning event completes — having written the
full (critical + non-critical) metadata through the regular path — the FSQ
entry is discarded (Section 5.2).

The software model indexes the (at most 16-entry) queue two ways so both
hot operations are O(1) amortized instead of linear scans:

* ``lookup`` reads the top of a per-word value stack (newest entry last,
  exactly the reversed-scan winner of the associative search);
* ``release`` walks a per-owner entry list and unlinks each entry from its
  word stack, instead of rebuilding the whole queue.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.verify.coverage import COVERAGE as _COVERAGE


@dataclasses.dataclass(frozen=True)
class FsqEntry:
    """One in-flight critical-metadata store."""

    word_address: int
    value: int
    owner_sequence: int  # The unfiltered event this update belongs to.


class FilterStoreQueue:
    """A small associatively-searched store queue."""

    def __init__(self, capacity: int = 16) -> None:
        if capacity <= 0:
            raise ConfigurationError("FSQ capacity must be positive")
        self.capacity = capacity
        #: Per-word stacks of live entries, insertion order (newest last).
        self._by_word: Dict[int, List[FsqEntry]] = {}
        #: Per-owner lists of live entries (the ``release`` index).
        self._by_owner: Dict[int, List[FsqEntry]] = {}
        self._size = 0
        self.inserts = 0
        #: Entries discarded by ``release``; at any instant ``inserts``
        #: equals ``releases`` plus the entries still queued.
        self.releases = 0
        self.max_occupancy = 0

    def __len__(self) -> int:
        return self._size

    @property
    def is_full(self) -> bool:
        return self._size >= self.capacity

    def insert(self, word_address: int, value: int, owner_sequence: int) -> None:
        """Allocate an entry (the caller must have checked capacity)."""
        if self._size >= self.capacity:
            raise ConfigurationError("FSQ overflow — caller must stall on full")
        entry = FsqEntry(word_address, value, owner_sequence)
        stack = self._by_word.get(word_address)
        if stack is None:
            self._by_word[word_address] = [entry]
        else:
            stack.append(entry)
        owned = self._by_owner.get(owner_sequence)
        if owned is None:
            self._by_owner[owner_sequence] = [entry]
        else:
            owned.append(entry)
        self._size += 1
        self.inserts += 1
        if self._size > self.max_occupancy:
            self.max_occupancy = self._size
        if _COVERAGE.enabled:
            _COVERAGE.hit("fsq.insert")
            if self._size >= self.capacity:
                _COVERAGE.hit("fsq.saturated")

    def lookup(self, word_address: int) -> Optional[int]:
        """Newest value for a word, or None (then the MD cache value is used)."""
        stack = self._by_word.get(word_address)
        if stack:
            if _COVERAGE.enabled:
                _COVERAGE.hit("fsq.forward")
            return stack[-1].value
        return None

    def release(self, owner_sequence: int) -> int:
        """Discard entries owned by a completed handler; returns the count."""
        owned = self._by_owner.pop(owner_sequence, None)
        if not owned:
            return 0
        by_word = self._by_word
        for entry in owned:
            word = entry.word_address
            stack = by_word[word]
            if len(stack) == 1:
                del by_word[word]
            else:
                # Entries are value-equal only when interchangeable, so
                # removing the first match preserves stack contents exactly.
                stack.remove(entry)
        released = len(owned)
        self._size -= released
        self.releases += released
        if _COVERAGE.enabled:
            _COVERAGE.hit("fsq.release")
        return released

