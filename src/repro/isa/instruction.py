"""Instruction records produced by the workload generator.

An :class:`Instruction` is a *retired dynamic* instruction, not a static
encoding: it carries resolved memory addresses and, for calls/returns, the
stack-frame geometry the Stack-Update Unit needs.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional, Tuple

from repro.isa.opcodes import OpClass, event_id_for


class OperandKind(enum.Enum):
    """Where an operand's metadata lives (register file or memory)."""

    REGISTER = "register"
    MEMORY = "memory"


@dataclasses.dataclass(frozen=True, slots=True)
class Operand:
    """A single instruction operand.

    Attributes:
        kind: register or memory operand.
        value: register index for registers, byte address for memory.
    """

    kind: OperandKind
    value: int

    @property
    def is_memory(self) -> bool:
        return self.kind is OperandKind.MEMORY

    @staticmethod
    def register(index: int) -> "Operand":
        return Operand(OperandKind.REGISTER, index)

    @staticmethod
    def memory(address: int) -> "Operand":
        return Operand(OperandKind.MEMORY, address)


@dataclasses.dataclass(frozen=True, slots=True)
class Instruction:
    """A retired dynamic instruction.

    Attributes:
        pc: program counter of the instruction.
        op_class: coarse instruction class.
        sources: up to two source operands, in (s1, s2) order.
        dest: optional destination operand.
        frame_base: for CALL/RETURN, the base address of the stack frame
            being allocated or freed.
        frame_size: for CALL/RETURN, the frame size in bytes.
        thread: hardware-thread ID of the retiring instruction (parallel
            benchmarks are time-sliced over one core, Section 6).
        depends_on_prev: True if this instruction consumes the previous
            instruction's result — the core model serialises on it.  Set by
            the workload generator according to the profile's ILP.
    """

    pc: int
    op_class: OpClass
    sources: Tuple[Operand, ...] = ()
    dest: Optional[Operand] = None
    frame_base: int = 0
    frame_size: int = 0
    thread: int = 0
    depends_on_prev: bool = False

    def __post_init__(self) -> None:
        if len(self.sources) > 2:
            raise ValueError("at most two source operands are modelled")

    @property
    def event_id(self) -> int:
        """Event-table ID for this instruction's shape."""
        return event_id_for(self.op_class, len(self.sources))

    @property
    def memory_address(self) -> Optional[int]:
        """The memory address touched, if any (at most one per instruction)."""
        for operand in self.sources:
            if operand.is_memory:
                return operand.value
        if self.dest is not None and self.dest.is_memory:
            return self.dest.value
        return None

    @property
    def is_store(self) -> bool:
        return self.op_class is OpClass.STORE
