"""Tests for the filter logic (Figure 7): clean checks, redundant updates,
masks and multi-shot chaining."""

from hypothesis import given, settings, strategies as st

from repro.fade.event_table import EventTableEntry, OperandRule, RuKind
from repro.fade.filter_logic import FilterLogic, OperandMetadata
from repro.fade.inv_rf import InvariantRegisterFile


def make_logic(invariants=(0, 1, 2, 3)):
    inv_rf = InvariantRegisterFile()
    inv_rf.load(invariants)
    return FilterLogic(inv_rf)


def operand(mem=False, mask=0xFF, inv_id=0):
    return OperandRule(valid=True, mem=mem, mask=mask, inv_id=inv_id)


class TestCleanCheck:
    def test_single_operand_match(self):
        logic = make_logic(invariants=(7,))
        entry = EventTableEntry(s1=operand(inv_id=0), cc=True)
        assert logic.evaluate(entry, OperandMetadata(s1=7))
        assert not logic.evaluate(entry, OperandMetadata(s1=6))

    def test_all_valid_operands_must_match(self):
        logic = make_logic(invariants=(1, 1, 1))
        entry = EventTableEntry(
            s1=operand(inv_id=0), s2=operand(inv_id=1), d=operand(inv_id=2), cc=True
        )
        assert logic.evaluate(entry, OperandMetadata(s1=1, s2=1, d=1))
        assert not logic.evaluate(entry, OperandMetadata(s1=1, s2=0, d=1))

    def test_per_operand_invariants_differ(self):
        logic = make_logic(invariants=(3, 5))
        entry = EventTableEntry(s1=operand(inv_id=0), d=operand(inv_id=1), cc=True)
        assert logic.evaluate(entry, OperandMetadata(s1=3, d=5))
        assert not logic.evaluate(entry, OperandMetadata(s1=5, d=3))

    def test_mask_limits_comparison(self):
        logic = make_logic(invariants=(0x83,))
        entry = EventTableEntry(s1=operand(mask=0x83, inv_id=0), cc=True)
        # Bits outside the mask (0x04) are ignored.
        assert logic.evaluate(entry, OperandMetadata(s1=0x87))
        assert not logic.evaluate(entry, OperandMetadata(s1=0x82))

    def test_missing_programmed_operand_fails_closed(self):
        """A valid-programmed operand missing at run time is unfilterable —
        the hardware never guesses."""
        logic = make_logic()
        entry = EventTableEntry(s1=operand(inv_id=0), cc=True)
        assert not logic.evaluate(entry, OperandMetadata(s1=None))

    def test_invalid_operands_are_ignored(self):
        logic = make_logic(invariants=(9,))
        entry = EventTableEntry(s1=operand(inv_id=0), cc=True)
        # s2/d carry garbage but are not valid in the entry.
        assert logic.evaluate(entry, OperandMetadata(s1=9, s2=1, d=2))


class TestRedundantUpdate:
    def test_direct_compare(self):
        logic = make_logic()
        entry = EventTableEntry(s1=operand(), d=operand(), ru=RuKind.DIRECT)
        assert logic.evaluate(entry, OperandMetadata(s1=4, d=4))
        assert not logic.evaluate(entry, OperandMetadata(s1=4, d=5))

    def test_or_compose(self):
        logic = make_logic()
        entry = EventTableEntry(
            s1=operand(), s2=operand(), d=operand(), ru=RuKind.OR
        )
        assert logic.evaluate(entry, OperandMetadata(s1=0b01, s2=0b10, d=0b11))
        assert not logic.evaluate(entry, OperandMetadata(s1=0b01, s2=0b10, d=0b01))

    def test_and_compose(self):
        logic = make_logic()
        entry = EventTableEntry(
            s1=operand(), s2=operand(), d=operand(), ru=RuKind.AND
        )
        assert logic.evaluate(entry, OperandMetadata(s1=0b11, s2=0b01, d=0b01))
        assert not logic.evaluate(entry, OperandMetadata(s1=0b11, s2=0b11, d=0b01))

    def test_single_source_or(self):
        """A missing source is the identity for the composition."""
        logic = make_logic()
        entry = EventTableEntry(s1=operand(), d=operand(), ru=RuKind.OR)
        assert logic.evaluate(entry, OperandMetadata(s1=2, d=2))

    def test_missing_dest_fails(self):
        logic = make_logic()
        entry = EventTableEntry(s1=operand(), d=operand(), ru=RuKind.DIRECT)
        assert not logic.evaluate(entry, OperandMetadata(s1=2, d=None))

    @given(
        st.integers(0, 255), st.integers(0, 255), st.integers(0, 255),
        st.sampled_from([RuKind.OR, RuKind.AND]),
    )
    @settings(max_examples=100, deadline=None)
    def test_compose_semantics(self, s1, s2, d, kind):
        """Property: the RU outcome is exactly (s1 op s2) == d."""
        logic = make_logic()
        entry = EventTableEntry(
            s1=operand(), s2=operand(), d=operand(), ru=kind
        )
        expected = (s1 | s2 if kind is RuKind.OR else s1 & s2) == d
        assert logic.evaluate(entry, OperandMetadata(s1=s1, s2=s2, d=d)) == expected


class TestChaining:
    def test_previous_outcome_is_anded(self):
        logic = make_logic(invariants=(1,))
        entry = EventTableEntry(s1=operand(inv_id=0), cc=True)
        metadata = OperandMetadata(s1=1)
        assert logic.evaluate(entry, metadata, previous_outcome=True)
        assert not logic.evaluate(entry, metadata, previous_outcome=False)

    def test_checkless_entry_passes_through(self):
        logic = make_logic()
        entry = EventTableEntry()  # PC-holder row: no check.
        assert logic.evaluate(entry, OperandMetadata(), previous_outcome=True)
        assert not logic.evaluate(entry, OperandMetadata(), previous_outcome=False)
