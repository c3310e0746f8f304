"""Programming FADE: the FadeProgram container and a builder DSL.

"FADE's hardware is fully programmable and allows for per-event definition
of the filtering rules.  Programmability is achieved by configuring two
structures: (1) the event table ... and (2) the Invariant Register File"
(Section 4.1).  A :class:`FadeProgram` is exactly those contents, plus the
SUU's two invariant ids.  Monitors build programs with
:class:`ProgramBuilder`; nothing in :mod:`repro.fade` knows which monitor a
program implements.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.common.errors import ProgrammingError
from repro.fade.event_table import (
    EVENT_TABLE_SIZE,
    EventTable,
    EventTableEntry,
    OperandRule,
    RuKind,
)
from repro.fade.inv_rf import INV_RF_SIZE, InvariantRegisterFile
from repro.fade.update_logic import UpdateSpec

#: Event-table indices below this are base event IDs (6-bit, Figure 6(a));
#: indices from here up hold multi-shot continuation and PC-holder entries.
FIRST_CHAIN_ENTRY = 64


@dataclasses.dataclass
class FadeProgram:
    """A complete accelerator configuration for one monitoring tool."""

    name: str
    event_table: EventTable
    inv_values: List[int]
    #: INV ids of the SUU's call/return fill values; None disables the SUU
    #: (the monitor does not shadow stack frames, e.g. AtomCheck).
    suu_call_inv_id: Optional[int] = None
    suu_return_inv_id: Optional[int] = None
    #: Human-readable names of the invariants (diagnostics only).
    inv_names: Dict[int, str] = dataclasses.field(default_factory=dict)

    @property
    def uses_suu(self) -> bool:
        return self.suu_call_inv_id is not None and self.suu_return_inv_id is not None

    def make_inv_rf(self) -> InvariantRegisterFile:
        inv_rf = InvariantRegisterFile()
        inv_rf.load(self.inv_values)
        return inv_rf


class ProgramBuilder:
    """Declarative construction of event-table / INV-RF contents.

    Typical use (MemLeak's load rule: filter when neither the loaded word
    nor the destination register holds a pointer)::

        builder = ProgramBuilder("memleak")
        nonptr = builder.invariant(NONPTR, "non-pointer")
        builder.clean_check(
            LOAD_ID,
            s1=builder.mem_operand(inv_id=nonptr),
            d=builder.reg_operand(inv_id=nonptr),
            update=UpdateSpec(rule=NonBlockRule.PROP_S1),
            handler_pc=PC_LOAD,
        )
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._event_table = EventTable()
        self._inv_values: List[int] = []
        self._inv_names: Dict[int, str] = {}
        self._next_chain_entry = FIRST_CHAIN_ENTRY
        self._suu_call: Optional[int] = None
        self._suu_return: Optional[int] = None

    # ------------------------------------------------------------ invariants

    def invariant(self, value: int, name: str = "") -> int:
        """Allocate an INV register holding ``value``; returns its id."""
        for index, existing in enumerate(self._inv_values):
            if existing == value and self._inv_names.get(index, "") == name:
                return index
        if len(self._inv_values) >= INV_RF_SIZE:
            raise ProgrammingError("INV RF exhausted")
        index = len(self._inv_values)
        self._inv_values.append(value)
        if name:
            self._inv_names[index] = name
        return index

    def suu_values(self, call_value: int, return_value: int) -> None:
        """Program the Stack-Update Unit's call/return fill invariants."""
        self._suu_call = self.invariant(call_value, "suu-call")
        self._suu_return = self.invariant(return_value, "suu-return")

    # --------------------------------------------------------------- operands

    @staticmethod
    def mem_operand(inv_id: int = 0, mask: int = 0xFF) -> OperandRule:
        return OperandRule(valid=True, mem=True, mask=mask, inv_id=inv_id)

    @staticmethod
    def reg_operand(inv_id: int = 0, mask: int = 0xFF) -> OperandRule:
        return OperandRule(valid=True, mem=False, mask=mask, inv_id=inv_id)

    # ---------------------------------------------------------------- entries

    def _alloc_chain_entry(self) -> int:
        if self._next_chain_entry >= EVENT_TABLE_SIZE:
            raise ProgrammingError("event table exhausted (chain entries)")
        index = self._next_chain_entry
        self._next_chain_entry += 1
        return index

    def raw_entry(self, index: int, entry: EventTableEntry) -> int:
        self._event_table.program(index, entry)
        return index

    def clean_check(
        self,
        event_id: int,
        s1: OperandRule = OperandRule(),
        s2: OperandRule = OperandRule(),
        d: OperandRule = OperandRule(),
        handler_pc: int = 0,
        update: UpdateSpec = UpdateSpec(),
    ) -> int:
        """Single-shot clean check: filtered if all operands match their INVs."""
        return self.raw_entry(
            event_id,
            EventTableEntry(
                s1=s1, s2=s2, d=d, cc=True, handler_pc=handler_pc, update=update
            ),
        )

    def redundant_update(
        self,
        event_id: int,
        ru: RuKind,
        s1: OperandRule = OperandRule(),
        s2: OperandRule = OperandRule(),
        d: OperandRule = OperandRule(),
        handler_pc: int = 0,
        update: UpdateSpec = UpdateSpec(),
    ) -> int:
        """Single-shot redundant update: filtered if composed sources == dest."""
        return self.raw_entry(
            event_id,
            EventTableEntry(
                s1=s1, s2=s2, d=d, ru=ru, handler_pc=handler_pc, update=update
            ),
        )

    def multi_shot(
        self,
        event_id: int,
        checks: List[EventTableEntry],
        handler_pc: int = 0,
        update: UpdateSpec = UpdateSpec(),
    ) -> int:
        """Chain several checks; the event filters only if all of them pass.

        The first check sits at the base event ID; continuations are placed
        in the chain region.  The head entry carries the handler PC and the
        Non-Blocking update spec.
        """
        if not checks:
            raise ProgrammingError("multi_shot needs at least one check")
        indices = [event_id] + [self._alloc_chain_entry() for _ in checks[1:]]
        for position, check in enumerate(checks):
            is_last = position == len(checks) - 1
            entry = dataclasses.replace(
                check,
                ms=not is_last,
                next_entry=0 if is_last else indices[position + 1],
                handler_pc=handler_pc if position == 0 else check.handler_pc,
                update=update if position == 0 else check.update,
            )
            self.raw_entry(indices[position], entry)
        return event_id

    def partial_filter(
        self,
        event_id: int,
        full_check: EventTableEntry,
        partial_check: EventTableEntry,
        short_handler_pc: int,
        long_handler_pc: int,
        update: UpdateSpec = UpdateSpec(),
    ) -> int:
        """Full check filters; otherwise the partial check picks the handler.

        Layout: head entry (full check, MS) -> partial entry (P=1, long PC,
        ``next_entry`` -> PC-holder row with the short handler's PC).
        """
        partial_index = self._alloc_chain_entry()
        holder_index = self._alloc_chain_entry()
        self.raw_entry(
            event_id,
            dataclasses.replace(
                full_check,
                ms=True,
                next_entry=partial_index,
                handler_pc=long_handler_pc,
                update=update,
            ),
        )
        self.raw_entry(
            partial_index,
            dataclasses.replace(
                partial_check,
                partial=True,
                ms=False,
                next_entry=holder_index,
                handler_pc=long_handler_pc,
            ),
        )
        self.raw_entry(holder_index, EventTableEntry(handler_pc=short_handler_pc))
        return event_id

    # ------------------------------------------------------------------ build

    def build(self) -> FadeProgram:
        return FadeProgram(
            name=self.name,
            event_table=self._event_table,
            inv_values=list(self._inv_values),
            suu_call_inv_id=self._suu_call,
            suu_return_inv_id=self._suu_return,
            inv_names=dict(self._inv_names),
        )
