"""Tests for the filtering pipeline: functional decisions, multi-shot,
partial filtering, Non-Blocking commits and FSQ forwarding."""

import pytest

from repro.common.errors import ProgrammingError
from repro.fade.event_table import EventTable, EventTableEntry, OperandRule, RuKind
from repro.fade.fsq import FilterStoreQueue
from repro.fade.inv_rf import InvariantRegisterFile
from repro.fade.md_cache import MetadataCache
from repro.fade.pipeline import FilteringPipeline, HandlerKind
from repro.fade.update_logic import NonBlockRule, UpdateSpec
from repro.metadata import ShadowMemory, ShadowRegisters


def mem_op(inv_id=0, mask=0xFF):
    return OperandRule(valid=True, mem=True, mask=mask, inv_id=inv_id)


def reg_op(inv_id=0, mask=0xFF):
    return OperandRule(valid=True, mem=False, mask=mask, inv_id=inv_id)


def make_pipeline(entries, invariants=(0, 1, 2, 3), non_blocking=True):
    table = EventTable()
    for index, entry in entries.items():
        table.program(index, entry)
    inv_rf = InvariantRegisterFile()
    inv_rf.load(invariants)
    md_regs = ShadowRegisters()
    md_mem = ShadowMemory()
    fsq = FilterStoreQueue() if non_blocking else None
    pipeline = FilteringPipeline(
        event_table=table,
        inv_rf=inv_rf,
        md_registers=md_regs,
        md_memory=md_mem,
        md_cache=MetadataCache(),
        fsq=fsq,
        non_blocking=non_blocking,
    )
    return pipeline, md_regs, md_mem, fsq


def load_event(addr=0x1000, dest=5, seq=0):
    """A load's pipeline arguments: (event id, app addr, src1, src2, dest,
    sequence)."""
    return (1, addr, None, None, dest, seq)


class TestSingleShot:
    def test_clean_check_filters_matching_metadata(self):
        pipeline, _, md_mem, _ = make_pipeline(
            {1: EventTableEntry(s1=mem_op(inv_id=1), cc=True)}
        )
        md_mem.write(0x1000, 1)
        outcome = pipeline.process(*load_event())
        assert outcome.filtered
        assert outcome.handler_kind is HandlerKind.NONE
        assert outcome.checks == 1

    def test_clean_check_rejects_mismatching_metadata(self):
        pipeline, _, md_mem, _ = make_pipeline(
            {1: EventTableEntry(s1=mem_op(inv_id=1), cc=True, handler_pc=0xAB)}
        )
        md_mem.write(0x1000, 0)
        outcome = pipeline.process(*load_event())
        assert not outcome.filtered
        assert outcome.handler_kind is HandlerKind.FULL
        assert outcome.handler_pc == 0xAB

    def test_unprogrammed_event_goes_to_software(self):
        pipeline, _, _, _ = make_pipeline({})
        outcome = pipeline.process(*load_event())
        assert not outcome.filtered
        assert outcome.handler_kind is HandlerKind.FULL

    def test_redundant_update_mem_to_reg(self):
        pipeline, md_regs, md_mem, _ = make_pipeline(
            {1: EventTableEntry(s1=mem_op(), d=reg_op(), ru=RuKind.DIRECT)}
        )
        md_mem.write(0x1000, 3)
        md_regs.write(5, 3)
        assert pipeline.process(*load_event()).filtered
        md_regs.write(5, 4)
        assert not pipeline.process(*load_event()).filtered


class TestMultiShot:
    def make_two_check_pipeline(self):
        return make_pipeline(
            {
                1: EventTableEntry(
                    s1=mem_op(inv_id=1), cc=True, ms=True, next_entry=64
                ),
                64: EventTableEntry(d=reg_op(inv_id=1), cc=True),
            },
            invariants=(0, 3),
        )

    def test_all_checks_must_pass(self):
        pipeline, md_regs, md_mem, _ = self.make_two_check_pipeline()
        md_mem.write(0x1000, 3)
        md_regs.write(5, 3)
        outcome = pipeline.process(*load_event())
        assert outcome.filtered
        assert outcome.checks == 2

    def test_second_check_failing_unfilters(self):
        pipeline, md_regs, md_mem, _ = self.make_two_check_pipeline()
        md_mem.write(0x1000, 3)
        md_regs.write(5, 0)
        assert not pipeline.process(*load_event()).filtered

    def test_multi_shot_occupies_more_cycles(self):
        pipeline, md_regs, md_mem, _ = self.make_two_check_pipeline()
        md_mem.write(0x1000, 3)
        md_regs.write(5, 3)
        pipeline.process(*load_event())  # Warm the MD cache.
        outcome = pipeline.process(*load_event())
        assert outcome.occupancy_cycles >= 2


class TestPartialFiltering:
    def make_partial_pipeline(self):
        # Full check: metadata == INV[1] (0x85); partial: thread bits only.
        return make_pipeline(
            {
                1: EventTableEntry(
                    d=mem_op(inv_id=1), cc=True, ms=True, next_entry=64,
                    handler_pc=0x100,
                ),
                64: EventTableEntry(
                    d=mem_op(inv_id=1, mask=0x83),
                    cc=True,
                    partial=True,
                    next_entry=65,
                    handler_pc=0x200,  # Long handler.
                ),
                65: EventTableEntry(handler_pc=0x300),  # Short-PC holder.
            },
            invariants=(0, 0x85),
        )

    def test_full_match_filters(self):
        pipeline, _, md_mem, _ = self.make_partial_pipeline()
        md_mem.write(0x1000, 0x85)
        assert pipeline.process(*load_event()).filtered

    def test_partial_match_selects_short_handler(self):
        pipeline, _, md_mem, _ = self.make_partial_pipeline()
        md_mem.write(0x1000, 0x81)  # Same thread bits, different type bit.
        outcome = pipeline.process(*load_event())
        assert not outcome.filtered
        assert outcome.handler_kind is HandlerKind.SHORT
        assert outcome.handler_pc == 0x300

    def test_partial_mismatch_selects_long_handler(self):
        pipeline, _, md_mem, _ = self.make_partial_pipeline()
        md_mem.write(0x1000, 0x82)  # Different thread bits.
        outcome = pipeline.process(*load_event())
        assert not outcome.filtered
        assert outcome.handler_kind is HandlerKind.FULL
        assert outcome.handler_pc == 0x200

    def test_pure_partial_never_fully_filters(self):
        pipeline, _, md_mem, _ = make_pipeline(
            {
                1: EventTableEntry(
                    d=mem_op(inv_id=1), cc=True, partial=True, next_entry=65,
                    handler_pc=0x200,
                ),
                65: EventTableEntry(handler_pc=0x300),
            },
            invariants=(0, 0x85),
        )
        md_mem.write(0x1000, 0x85)
        outcome = pipeline.process(*load_event())
        assert not outcome.filtered
        assert outcome.handler_kind is HandlerKind.SHORT

    def test_missing_short_pc_holder_raises(self):
        pipeline, _, md_mem, _ = make_pipeline(
            {
                1: EventTableEntry(
                    d=mem_op(inv_id=1), cc=True, partial=True, next_entry=99,
                    handler_pc=0x200,
                ),
            },
            invariants=(0, 0x85),
        )
        md_mem.write(0x1000, 0x85)
        with pytest.raises(ProgrammingError):
            pipeline.process(*load_event())


class TestNonBlockingCommit:
    def test_register_update_committed(self):
        pipeline, md_regs, md_mem, _ = make_pipeline(
            {
                1: EventTableEntry(
                    s1=mem_op(inv_id=0), d=reg_op(inv_id=0), cc=True,
                    update=UpdateSpec(rule=NonBlockRule.PROP_S1),
                )
            }
        )
        md_mem.write(0x1000, 1)  # Pointer: CC against INV 0 fails.
        outcome = pipeline.process(*load_event(dest=5))
        assert not outcome.filtered
        assert outcome.md_update == ("reg", 5, 1)
        assert md_regs.read(5) == 1

    def test_memory_update_goes_through_fsq(self):
        store_entry = EventTableEntry(
            s1=reg_op(inv_id=0), d=mem_op(inv_id=0), cc=True,
            update=UpdateSpec(rule=NonBlockRule.PROP_S1),
        )
        pipeline, md_regs, md_mem, fsq = make_pipeline({2: store_entry})
        md_regs.write(3, 1)  # Tainted/pointer source: CC fails.
        outcome = pipeline.process(2, 0x2000, 3, None, None, 9)
        assert outcome.md_update == ("mem", 0x2000, 1)
        assert fsq.lookup(0x2000) == 1
        assert md_mem.read(0x2000) == 1

    def test_filtered_event_commits_nothing(self):
        pipeline, md_regs, md_mem, fsq = make_pipeline(
            {
                1: EventTableEntry(
                    s1=mem_op(inv_id=0), d=reg_op(inv_id=0), cc=True,
                    update=UpdateSpec(rule=NonBlockRule.PROP_S1),
                )
            }
        )
        outcome = pipeline.process(*load_event())
        assert outcome.filtered
        assert outcome.md_update is None
        assert len(fsq) == 0

    def test_blocking_mode_commits_nothing(self):
        pipeline, md_regs, md_mem, _ = make_pipeline(
            {
                1: EventTableEntry(
                    s1=mem_op(inv_id=0), d=reg_op(inv_id=0), cc=True,
                    update=UpdateSpec(rule=NonBlockRule.PROP_S1),
                )
            },
            non_blocking=False,
        )
        md_mem.write(0x1000, 1)
        outcome = pipeline.process(*load_event())
        assert not outcome.filtered
        assert outcome.md_update is None
        assert md_regs.read(5) == 0

    def test_fsq_forwarding_beats_stale_memory(self):
        """A dependent read observes the FSQ value even if the backing
        shadow memory is stale (the Section 5.2 dependence case)."""
        entry = EventTableEntry(s1=mem_op(inv_id=0), cc=True)
        pipeline, _, md_mem, fsq = make_pipeline({1: entry})
        fsq.insert(0x1000, 1, owner_sequence=1)  # In-flight update: value 1.
        md_mem.write(0x1000, 0)  # Stale backing value would pass the check.
        outcome = pipeline.process(*load_event())
        assert not outcome.filtered  # The forwarded value 1 fails the CC.


class TestTlbReporting:
    def test_first_access_reports_tlb_miss(self):
        pipeline, _, _, _ = make_pipeline(
            {1: EventTableEntry(s1=mem_op(inv_id=0), cc=True)}
        )
        assert pipeline.process(*load_event()).tlb_miss
        assert not pipeline.process(*load_event()).tlb_miss
