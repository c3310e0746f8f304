"""Tests for the ProgramBuilder DSL and FadeProgram container."""

import pytest

from repro.common.errors import ProgrammingError
from repro.fade.event_table import EventTableEntry, RuKind
from repro.fade.programming import FIRST_CHAIN_ENTRY, ProgramBuilder
from repro.fade.update_logic import NonBlockRule, UpdateSpec


class TestInvariants:
    def test_allocation_and_dedup(self):
        builder = ProgramBuilder("test")
        first = builder.invariant(3, "x")
        again = builder.invariant(3, "x")
        other = builder.invariant(3, "y")  # Same value, different meaning.
        assert first == again
        assert other != first

    def test_exhaustion(self):
        builder = ProgramBuilder("test")
        from repro.fade.inv_rf import INV_RF_SIZE

        for index in range(INV_RF_SIZE):
            builder.invariant(index, f"v{index}")
        with pytest.raises(ProgrammingError):
            builder.invariant(99, "overflow")

    def test_suu_values(self):
        builder = ProgramBuilder("test")
        builder.suu_values(call_value=0x01, return_value=0x00)
        program = builder.build()
        assert program.uses_suu
        assert program.inv_values[program.suu_call_inv_id] == 0x01
        assert program.inv_values[program.suu_return_inv_id] == 0x00

    def test_program_without_suu(self):
        program = ProgramBuilder("test").build()
        assert not program.uses_suu


class TestEntries:
    def test_clean_check_entry(self):
        builder = ProgramBuilder("test")
        inv = builder.invariant(1, "allocated")
        builder.clean_check(
            5, s1=builder.mem_operand(inv_id=inv), handler_pc=0x44
        )
        program = builder.build()
        entry = program.event_table.lookup(5)
        assert entry.cc and entry.s1.valid and entry.s1.mem
        assert entry.handler_pc == 0x44

    def test_redundant_update_entry(self):
        builder = ProgramBuilder("test")
        builder.redundant_update(
            6, ru=RuKind.OR, s1=builder.reg_operand(), s2=builder.reg_operand(),
            d=builder.reg_operand(),
        )
        entry = builder.build().event_table.lookup(6)
        assert entry.ru is RuKind.OR and not entry.cc

    def test_multi_shot_layout(self):
        builder = ProgramBuilder("test")
        builder.multi_shot(
            7,
            checks=[
                EventTableEntry(s1=builder.mem_operand(), cc=True),
                EventTableEntry(d=builder.reg_operand(), cc=True),
            ],
            handler_pc=0x88,
            update=UpdateSpec(rule=NonBlockRule.PROP_S1),
        )
        table = builder.build().event_table
        chain = table.chain(7)
        assert len(chain) == 2
        head_index, head = chain[0]
        assert head_index == 7
        assert head.ms and head.handler_pc == 0x88
        assert head.update.rule is NonBlockRule.PROP_S1
        tail_index, tail = chain[1]
        assert tail_index >= FIRST_CHAIN_ENTRY
        assert not tail.ms

    def test_multi_shot_requires_checks(self):
        builder = ProgramBuilder("test")
        with pytest.raises(ProgrammingError):
            builder.multi_shot(7, checks=[])

    def test_partial_filter_layout(self):
        builder = ProgramBuilder("test")
        builder.partial_filter(
            8,
            full_check=EventTableEntry(d=builder.mem_operand(), cc=True),
            partial_check=EventTableEntry(
                d=builder.mem_operand(mask=0x83), cc=True
            ),
            short_handler_pc=0x10,
            long_handler_pc=0x20,
        )
        table = builder.build().event_table
        chain = table.chain(8)
        assert len(chain) == 2
        partial_entry = chain[1][1]
        assert partial_entry.partial
        assert partial_entry.handler_pc == 0x20
        holder = table.lookup(partial_entry.next_entry)
        assert holder.handler_pc == 0x10

    def test_chain_region_exhaustion(self):
        builder = ProgramBuilder("test")
        from repro.fade.event_table import EVENT_TABLE_SIZE

        checks = [EventTableEntry(cc=True, s1=builder.reg_operand())] * 2
        with pytest.raises(ProgrammingError):
            for event_id in range(1, EVENT_TABLE_SIZE):
                builder.multi_shot(event_id % 60 + 1, checks=list(checks))


class TestFadeProgram:
    def test_make_inv_rf(self):
        builder = ProgramBuilder("test")
        builder.invariant(0x42, "magic")
        inv_rf = builder.build().make_inv_rf()
        assert inv_rf.read(0) == 0x42


class TestMonitorPrograms:
    """Every bundled monitor's program must be structurally valid."""

    @pytest.mark.parametrize(
        "monitor_name",
        ["addrcheck", "memcheck", "taintcheck", "memleak", "atomcheck"],
    )
    def test_programs_are_walkable_and_encodable(self, monitor_name):
        from repro.monitors import create_monitor

        program = create_monitor(monitor_name).fade_program()
        table = program.event_table
        assert len(table) > 0
        for index in table.programmed_indices():
            entry = table.lookup(index)
            # Round-trips through the 96-bit hardware encoding.
            assert EventTableEntry.decode(entry.encode()) == entry
            if entry.ms:
                table.chain(index)  # Raises on dangling/cyclic chains.

    def test_memleak_program_matches_figure6(self):
        """The MemLeak load rule is the paper's Figure 6(b) example: CC on
        (s1=mem, d=reg) against the non-pointer invariant."""
        from repro.isa.opcodes import OpClass, event_id_for
        from repro.monitors import create_monitor

        program = create_monitor("memleak").fade_program()
        entry = program.event_table.lookup(event_id_for(OpClass.LOAD, 1))
        assert entry.cc
        assert entry.s1.valid and entry.s1.mem
        assert entry.d.valid and not entry.d.mem
        assert program.inv_values[entry.s1.inv_id] == 0x00  # Non-pointer.
