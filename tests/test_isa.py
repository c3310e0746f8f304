"""Tests for repro.isa: op classes, instructions, event records."""

import pytest

from repro.isa import (
    Instruction,
    MonitoredEvent,
    OpClass,
    Operand,
    OperandKind,
    StackOp,
    StackUpdate,
    event_id_for,
)
from repro.isa.opcodes import MAX_EVENT_ID, known_event_ids


class TestOpClass:
    def test_memory_classes(self):
        assert OpClass.LOAD.is_memory
        assert OpClass.STORE.is_memory
        assert not OpClass.ALU.is_memory

    def test_stack_classes(self):
        assert OpClass.CALL.is_stack_op
        assert OpClass.RETURN.is_stack_op
        assert not OpClass.LOAD.is_stack_op


class TestEventIds:
    def test_ids_are_unique(self):
        ids = list(known_event_ids().values())
        assert len(ids) == len(set(ids))

    def test_ids_fit_the_field(self):
        assert all(0 < event_id <= MAX_EVENT_ID for event_id in known_event_ids().values())

    def test_unknown_shape_raises(self):
        with pytest.raises(KeyError):
            event_id_for(OpClass.LOAD, 2)

    def test_alu_shapes_are_distinct(self):
        assert event_id_for(OpClass.ALU, 1) != event_id_for(OpClass.ALU, 2)


class TestInstruction:
    def test_at_most_two_sources(self):
        with pytest.raises(ValueError):
            Instruction(
                pc=0,
                op_class=OpClass.ALU,
                sources=(
                    Operand.register(1),
                    Operand.register(2),
                    Operand.register(3),
                ),
            )

    def test_memory_address_of_load(self):
        load = Instruction(
            pc=0,
            op_class=OpClass.LOAD,
            sources=(Operand.memory(0x1000),),
            dest=Operand.register(3),
        )
        assert load.memory_address == 0x1000
        assert not load.is_store

    def test_memory_address_of_store(self):
        store = Instruction(
            pc=0,
            op_class=OpClass.STORE,
            sources=(Operand.register(3),),
            dest=Operand.memory(0x2000),
        )
        assert store.memory_address == 0x2000

    def test_alu_has_no_memory_address(self):
        alu = Instruction(
            pc=0,
            op_class=OpClass.ALU,
            sources=(Operand.register(1),),
            dest=Operand.register(2),
        )
        assert alu.memory_address is None

    def test_event_id_matches_shape(self):
        load = Instruction(
            pc=0,
            op_class=OpClass.LOAD,
            sources=(Operand.memory(4),),
            dest=Operand.register(1),
        )
        assert load.event_id == event_id_for(OpClass.LOAD, 1)


class TestMonitoredEvent:
    def test_from_load_instruction(self):
        load = Instruction(
            pc=0x400,
            op_class=OpClass.LOAD,
            sources=(Operand.memory(0x1000),),
            dest=Operand.register(7),
        )
        event = MonitoredEvent.from_instruction(load, sequence=42)
        assert event.app_pc == 0x400
        assert event.app_addr == 0x1000
        assert event.src1_reg is None  # s1 is the memory operand.
        assert event.dest_reg == 7
        assert event.sequence == 42
        assert not event.is_stack_update

    def test_from_store_instruction(self):
        store = Instruction(
            pc=0x404,
            op_class=OpClass.STORE,
            sources=(Operand.register(5),),
            dest=Operand.memory(0x2000),
        )
        event = MonitoredEvent.from_instruction(store)
        assert event.src1_reg == 5
        assert event.dest_reg is None
        assert event.app_addr == 0x2000

    def test_from_call_instruction(self):
        call = Instruction(
            pc=0x408,
            op_class=OpClass.CALL,
            frame_base=0x7FFE_0000,
            frame_size=128,
        )
        event = MonitoredEvent.from_instruction(call)
        assert event.is_stack_update
        assert event.stack_update.op is StackOp.CALL
        assert event.stack_update.frame_base == 0x7FFE_0000
        assert event.stack_update.frame_size == 128

    def test_from_return_instruction(self):
        ret = Instruction(
            pc=0x40C, op_class=OpClass.RETURN, frame_base=0x7FFE_0000, frame_size=64
        )
        event = MonitoredEvent.from_instruction(ret)
        assert event.stack_update.op is StackOp.RETURN

    def test_two_source_alu(self):
        alu = Instruction(
            pc=0,
            op_class=OpClass.ALU,
            sources=(Operand.register(1), Operand.register(2)),
            dest=Operand.register(3),
        )
        event = MonitoredEvent.from_instruction(alu)
        assert (event.src1_reg, event.src2_reg, event.dest_reg) == (1, 2, 3)


class TestStackUpdate:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            StackUpdate(op=StackOp.CALL, frame_base=0, frame_size=-4)
