"""The filter logic (Figure 7).

Three identical two-operand comparison blocks (f1, f2, f3) each compare one
event operand against another operand or an invariant.  Together they
evaluate the most complex single-shot condition — all three operands against
three different invariants — in one cycle.  Multi-shot chaining feeds the
previous outcome back through a clocked register (the bold circuit of
Figure 7), which here is the ``previous_outcome`` argument.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.fade.event_table import EventTableEntry, OperandRule, RuKind
from repro.fade.inv_rf import InvariantRegisterFile


class OperandMetadata(NamedTuple):
    """Metadata bytes of the three event operands as read in Metadata Read.

    ``None`` means the operand is not present for this event (the entry's
    valid bit should then be clear; a programmed-valid operand that is
    missing at run time fails its check, making the event unfilterable —
    hardware never guesses).  A NamedTuple: one is built per chain entry
    per event on the filtering hot path.
    """

    s1: Optional[int] = None
    s2: Optional[int] = None
    d: Optional[int] = None


class FilterLogic:
    """Evaluates one event-table entry's filtering condition."""

    def __init__(self, inv_rf: InvariantRegisterFile) -> None:
        self.inv_rf = inv_rf

    def evaluate(
        self,
        entry: EventTableEntry,
        metadata: OperandMetadata,
        previous_outcome: bool = True,
    ) -> bool:
        """Outcome of this entry's check, ANDed with the chained outcome.

        Clean check: every valid operand's masked metadata equals the masked
        invariant selected by its INV id.  Redundant update: the composed
        source metadata equal the destination metadata.
        """
        if entry.cc:
            outcome = self._clean_check(entry, metadata)
        elif entry.ru is not RuKind.NONE:
            outcome = self._redundant_update(entry, metadata)
        else:
            outcome = True  # No check: chain link or PC-holder entry.
        # The MS mux folds the previous outcome into the final one; for a
        # standalone entry the register is primed with True, so the AND is
        # the identity.
        return outcome and previous_outcome

    # ------------------------------------------------------------------ checks

    def _clean_check(self, entry: EventTableEntry, metadata: OperandMetadata) -> bool:
        # Unrolled over the three operands: this comparator runs once per
        # chain entry per event, on the filtering hot path.
        read_invariant = self.inv_rf.read
        rule = entry.s1
        if rule.valid:
            value = metadata.s1
            if value is None:
                return False
            mask = rule.mask
            if (value & mask) != (read_invariant(rule.inv_id) & mask):
                return False
        rule = entry.s2
        if rule.valid:
            value = metadata.s2
            if value is None:
                return False
            mask = rule.mask
            if (value & mask) != (read_invariant(rule.inv_id) & mask):
                return False
        rule = entry.d
        if rule.valid:
            value = metadata.d
            if value is None:
                return False
            mask = rule.mask
            if (value & mask) != (read_invariant(rule.inv_id) & mask):
                return False
        return True

    def _redundant_update(
        self, entry: EventTableEntry, metadata: OperandMetadata
    ) -> bool:
        composed = self.compose_sources(entry, metadata)
        if composed is None or metadata.d is None or not entry.d.valid:
            return False
        mask = entry.d.mask
        return (composed & mask) == (metadata.d & mask)

    def compose_sources(
        self, entry: EventTableEntry, metadata: OperandMetadata
    ) -> Optional[int]:
        """Source-metadata composition for the RU comparison.

        DIRECT uses s1 alone; OR/AND combine both sources (a missing source
        is the identity for the respective operation, matching hardware that
        gates invalid operands off).
        """
        s1 = self._masked(entry.s1, metadata.s1)
        s2 = self._masked(entry.s2, metadata.s2)
        if entry.ru is RuKind.DIRECT:
            return s1
        if entry.ru is RuKind.OR:
            if s1 is None:
                return s2
            if s2 is None:
                return s1
            return s1 | s2
        if entry.ru is RuKind.AND:
            if s1 is None:
                return s2
            if s2 is None:
                return s1
            return s1 & s2
        return None

    @staticmethod
    def _masked(rule: OperandRule, value: Optional[int]) -> Optional[int]:
        if not rule.valid or value is None:
            return None
        return value & rule.mask
