"""The event table: per-event filtering rules (Figure 6(b)).

Each entry describes, for the three potential operands (s1, s2, d):

* ``valid`` — is the operand evaluated;
* ``mem`` — is it a memory operand (else register);
* ``md_bytes`` — how many metadata bytes to evaluate (we model one byte per
  application word, so this is 1 throughout, but the field is encoded);
* ``mask`` — bit mask extracting the relevant metadata bits;
* ``inv_id`` — which invariant register a clean check compares against.

Plus the entry-level controls: ``cc`` (clean check), ``ru`` (redundant-update
compose kind), ``ms``/``next_entry`` (multi-shot chaining), ``partial`` (the
P bit), the software handler PC, and the Non-Blocking update spec.

The size of an event table entry is 96 bits (Figure 6 caption); entries here
round-trip through a bit-exact :meth:`EventTableEntry.encode` /
:meth:`EventTableEntry.decode` pair, which pins the hardware budget the area
model charges for.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Optional, Tuple

from repro.common.errors import ProgrammingError
from repro.fade.update_logic import NonBlockCondition, NonBlockRule, UpdateSpec

#: Entries in the event table (Section 6: "The event table has 128 entries").
EVENT_TABLE_SIZE = 128

#: Encoded entry width in bits (Figure 6(b) caption).
ENTRY_BITS = 96


class RuKind(enum.Enum):
    """The RU field: how source metadata compose for a redundant-update check.

    "In case of one source operand, the source metadata are directly compared
    to the destination metadata.  In case of two source operands, the source
    metadata are composed using either OR or AND and then compared to the
    destination metadata." (Section 4.1)
    """

    NONE = 0
    DIRECT = 1
    OR = 2
    AND = 3


@dataclasses.dataclass(frozen=True)
class OperandRule:
    """Per-operand fields of an event-table entry."""

    valid: bool = False
    mem: bool = False
    md_bytes: int = 1
    mask: int = 0xFF
    inv_id: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.mask <= 0xFF:
            raise ProgrammingError("operand mask must fit in 8 bits")
        if not 1 <= self.md_bytes <= 4:
            raise ProgrammingError("md_bytes must be 1..4")
        if not 0 <= self.inv_id <= 3:
            raise ProgrammingError("per-operand INV id is 2 bits (0..3)")


#: An invalid operand slot.
NO_OPERAND = OperandRule()


@dataclasses.dataclass(frozen=True)
class EventTableEntry:
    """One row of the event table (Figure 6(b))."""

    s1: OperandRule = NO_OPERAND
    s2: OperandRule = NO_OPERAND
    d: OperandRule = NO_OPERAND
    cc: bool = False
    ru: RuKind = RuKind.NONE
    ms: bool = False
    next_entry: int = 0
    partial: bool = False
    handler_pc: int = 0
    update: UpdateSpec = UpdateSpec()

    def __post_init__(self) -> None:
        if not 0 <= self.next_entry < EVENT_TABLE_SIZE:
            raise ProgrammingError("next_entry out of table range")
        if not 0 <= self.handler_pc < (1 << 32):
            raise ProgrammingError("handler PC must fit in 32 bits")
        if self.cc and self.ru is not RuKind.NONE:
            raise ProgrammingError("an entry is either a clean check or an RU")
        if self.ms and self.next_entry == 0:
            raise ProgrammingError("multi-shot entries need a next_entry")

    @property
    def has_check(self) -> bool:
        return self.cc or self.ru is not RuKind.NONE

    # --- bit-exact encoding ----------------------------------------------------
    #
    # Layout (LSB first):
    #   [ 0:42)   3 x operand rule: valid(1) mem(1) md_bytes(2) mask(8) inv_id(2)
    #   [42:43)   cc
    #   [43:45)   ru
    #   [45:46)   ms
    #   [46:53)   next_entry (7 bits)
    #   [53:54)   partial
    #   [54:57)   nb rule (3 bits)
    #   [57:60)   nb condition (3 bits)
    #   [60:62)   nb inv id (2 bits)
    #   [62:94)   handler PC (32 bits)
    #   [94:96)   reserved
    # Total: 96 bits.

    def encode(self) -> int:
        """Pack the entry into its 96-bit hardware representation."""
        word = 0
        shift = 0
        for operand in (self.s1, self.s2, self.d):
            word |= (1 if operand.valid else 0) << shift
            word |= (1 if operand.mem else 0) << (shift + 1)
            word |= (operand.md_bytes - 1) << (shift + 2)
            word |= operand.mask << (shift + 4)
            word |= operand.inv_id << (shift + 12)
            shift += 14
        word |= (1 if self.cc else 0) << 42
        word |= self.ru.value << 43
        word |= (1 if self.ms else 0) << 45
        word |= self.next_entry << 46
        word |= (1 if self.partial else 0) << 53
        word |= self.update.rule.value << 54
        word |= self.update.condition.value << 57
        word |= self.update.inv_id << 60
        word |= self.handler_pc << 62
        assert word < (1 << ENTRY_BITS)
        return word

    @staticmethod
    def decode(word: int) -> "EventTableEntry":
        """Unpack a 96-bit entry (inverse of :meth:`encode`)."""
        if not 0 <= word < (1 << ENTRY_BITS):
            raise ProgrammingError(f"encoded entry must fit in {ENTRY_BITS} bits")
        operands = []
        shift = 0
        for _ in range(3):
            operands.append(
                OperandRule(
                    valid=bool((word >> shift) & 1),
                    mem=bool((word >> (shift + 1)) & 1),
                    md_bytes=((word >> (shift + 2)) & 0b11) + 1,
                    mask=(word >> (shift + 4)) & 0xFF,
                    inv_id=(word >> (shift + 12)) & 0b11,
                )
            )
            shift += 14
        return EventTableEntry(
            s1=operands[0],
            s2=operands[1],
            d=operands[2],
            cc=bool((word >> 42) & 1),
            ru=RuKind((word >> 43) & 0b11),
            ms=bool((word >> 45) & 1),
            next_entry=(word >> 46) & 0x7F,
            partial=bool((word >> 53) & 1),
            update=UpdateSpec(
                rule=NonBlockRule((word >> 54) & 0b111),
                condition=NonBlockCondition((word >> 57) & 0b111),
                inv_id=(word >> 60) & 0b11,
            ),
            handler_pc=(word >> 62) & 0xFFFF_FFFF,
        )


class EventTable:
    """The 128-entry, memory-mapped event table."""

    def __init__(self, size: int = EVENT_TABLE_SIZE) -> None:
        self.size = size
        self._entries: Dict[int, EventTableEntry] = {}
        self._chain_cache: Dict[int, Tuple[Tuple[int, EventTableEntry], ...]] = {}
        #: Bumped on every reprogramming; the filter memo keys cached chain
        #: walks on it so run-time table writes invalidate them.
        self.generation = 0

    def program(self, index: int, entry: EventTableEntry) -> None:
        if not 0 <= index < self.size:
            raise ProgrammingError(f"event table index {index} out of range")
        self._entries[index] = entry
        self._chain_cache.clear()  # Chains may now resolve differently.
        self.generation += 1

    def lookup(self, index: int) -> Optional[EventTableEntry]:
        """Entry for an event ID; None means the event has no rules
        (it is always unfilterable and goes straight to software)."""
        if not 0 <= index < self.size:
            raise ProgrammingError(f"event table index {index} out of range")
        return self._entries.get(index)

    def chain(self, index: int) -> Tuple[Tuple[int, EventTableEntry], ...]:
        """The full multi-shot chain starting at ``index``.

        The result is memoized (and invalidated on :meth:`program`): the
        pipeline walks the chain once per filtered event, on the hot path.

        Raises:
            ProgrammingError: on a dangling next_entry or a chain cycle.
        """
        cached = self._chain_cache.get(index)
        if cached is not None:
            return cached
        chain = []
        seen = set()
        current: Optional[int] = index
        while current is not None:
            if current in seen:
                raise ProgrammingError(f"event-table chain cycle at entry {current}")
            seen.add(current)
            entry = self.lookup(current)
            if entry is None:
                raise ProgrammingError(f"dangling next_entry -> {current}")
            chain.append((current, entry))
            current = entry.next_entry if entry.ms else None
        result = tuple(chain)
        self._chain_cache[index] = result
        return result

    def programmed_indices(self) -> Tuple[int, ...]:
        return tuple(sorted(self._entries))


    def __len__(self) -> int:
        return len(self._entries)
