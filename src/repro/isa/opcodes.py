"""Instruction op classes and event-ID assignment.

The event table is indexed by a 6-bit event ID (Figure 6(a) gives the event
entry format: ``event ID`` is 6 bits, hence up to 64 base IDs; the table
itself has 128 entries so multi-shot chains have room for continuation
entries).  We assign one event ID per (op class, operand shape) pair, which
matches how the paper programs per-event filtering rules such as
``ld mem, rd``.
"""

from __future__ import annotations

import enum

#: Width of the event-ID field in the event record (Figure 6(a)).
EVENT_ID_BITS = 6

#: Highest base event ID representable in the event record.
MAX_EVENT_ID = (1 << EVENT_ID_BITS) - 1


class OpClass(enum.Enum):
    """Coarse instruction classes of the modelled SPARC subset.

    Classes, not opcodes, are what monitoring cares about: a monitor decides
    whether to observe "loads", "integer ALU ops", and so on.
    """

    LOAD = "load"
    STORE = "store"
    ALU = "alu"  # Integer arithmetic/logic, may propagate pointers/taint.
    MOVE = "move"  # Register-to-register copy.
    FP = "fp"  # Floating point; never carries pointers or taint.
    BRANCH = "branch"
    CALL = "call"
    RETURN = "return"
    NOP = "nop"

    @property
    def is_memory(self) -> bool:
        return self in (OpClass.LOAD, OpClass.STORE)

    @property
    def is_stack_op(self) -> bool:
        """Does this instruction allocate or free a stack frame?"""
        return self in (OpClass.CALL, OpClass.RETURN)


#: Deterministic base event IDs, one per (op class, #source operands).
#: The layout is arbitrary but fixed; programming.py relies on it.
_EVENT_IDS = {
    (OpClass.LOAD, 1): 1,
    (OpClass.STORE, 1): 2,
    (OpClass.ALU, 1): 3,
    (OpClass.ALU, 2): 4,
    (OpClass.MOVE, 1): 5,
    (OpClass.FP, 1): 6,
    (OpClass.FP, 2): 7,
    (OpClass.BRANCH, 1): 8,
    (OpClass.BRANCH, 2): 9,
    (OpClass.CALL, 0): 10,
    (OpClass.RETURN, 0): 11,
    (OpClass.NOP, 0): 12,
}


def event_id_for(op_class: OpClass, num_sources: int) -> int:
    """Return the base event-table ID for an instruction shape.

    Raises:
        KeyError: if the (op class, source count) pair is not part of the
            modelled subset.
    """
    return _EVENT_IDS[(op_class, num_sources)]


#: Event IDs the monitors' per-event handlers dispatch on, resolved once
#: here instead of through ``event_id_for`` on every handled event.
LOAD_EVENT_ID = _EVENT_IDS[(OpClass.LOAD, 1)]
STORE_EVENT_ID = _EVENT_IDS[(OpClass.STORE, 1)]
BRANCH_EVENT_ID = _EVENT_IDS[(OpClass.BRANCH, 1)]


def known_event_ids() -> dict:
    """Expose the full shape-to-ID map (used by the table programmer)."""
    return dict(_EVENT_IDS)
