"""TaintCheck: dynamic taint analysis (Newsome & Song).

Detects overwrite-related security exploits by tracking the flow of external
("tainted") data and reporting when it reaches a control transfer.  Critical
metadata have two states — untainted / tainted (Section 6); non-critical
metadata record taint origins.  FADE filters propagation events whose
destination metadata would not change (redundant updates with OR
composition) and clean branch checks; Non-Blocking rules propagate taint
(PROP_S1 / COMPOSE_OR), which is exactly FlexiTaint's propagation function
expressed as table data.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.common.units import keys_in_range, words_in_range
from repro.fade.event_table import RuKind
from repro.fade.pipeline import HandlerKind
from repro.fade.programming import FadeProgram, ProgramBuilder
from repro.fade.update_logic import NonBlockRule, UpdateSpec
from repro.isa.events import StackUpdate
from repro.isa.opcodes import (
    BRANCH_EVENT_ID,
    LOAD_EVENT_ID,
    STORE_EVENT_ID,
    OpClass,
    event_id_for,
)
from repro.metadata.shadow import ShadowMemory
from repro.monitors.base import HandlerClass, HandlerResult, Monitor
from repro.monitors.handlers import TAINTCHECK_COSTS, HandlerCosts
from repro.monitors.reports import BugKind, BugReport
from repro.workload.trace import HighLevelEvent, HighLevelKind

#: Critical-metadata encodings.
UNTAINTED = 0x00
TAINTED = 0x01


class TaintCheck(Monitor):
    """Taint-propagation tracker with tainted-jump detection."""

    name = "TaintCheck"
    monitored_op_classes = frozenset(
        {OpClass.LOAD, OpClass.STORE, OpClass.ALU, OpClass.MOVE, OpClass.BRANCH}
    )
    monitors_stack_updates = True

    def __init__(self, costs: HandlerCosts = TAINTCHECK_COSTS) -> None:
        super().__init__(costs)
        self._tainted_words: Set[int] = set()  # Authoritative taint state.
        self._tainted_regs: Set[int] = set()
        self._origins: Dict[int, int] = {}  # Non-critical: word -> origin id.
        self._next_origin = 1

    # ---------------------------------------------------------------- program

    def fade_program(self) -> FadeProgram:
        builder = ProgramBuilder(self.name)
        untainted = builder.invariant(UNTAINTED, "untainted")
        builder.suu_values(call_value=UNTAINTED, return_value=UNTAINTED)

        # Propagation events filter when the composed source taint equals
        # the destination taint — a redundant update.  This subsumes the
        # all-untainted clean check (0 | 0 == 0).
        builder.redundant_update(
            event_id_for(OpClass.LOAD, 1),
            ru=RuKind.DIRECT,
            s1=builder.mem_operand(),
            d=builder.reg_operand(),
            handler_pc=0x300,
            update=UpdateSpec(rule=NonBlockRule.PROP_S1),
        )
        builder.redundant_update(
            event_id_for(OpClass.STORE, 1),
            ru=RuKind.DIRECT,
            s1=builder.reg_operand(),
            d=builder.mem_operand(),
            handler_pc=0x304,
            update=UpdateSpec(rule=NonBlockRule.PROP_S1),
        )
        for op, sources in ((OpClass.ALU, 1), (OpClass.MOVE, 1)):
            builder.redundant_update(
                event_id_for(op, sources),
                ru=RuKind.DIRECT,
                s1=builder.reg_operand(),
                d=builder.reg_operand(),
                handler_pc=0x308,
                update=UpdateSpec(rule=NonBlockRule.PROP_S1),
            )
        builder.redundant_update(
            event_id_for(OpClass.ALU, 2),
            ru=RuKind.OR,
            s1=builder.reg_operand(),
            s2=builder.reg_operand(),
            d=builder.reg_operand(),
            handler_pc=0x30C,
            update=UpdateSpec(rule=NonBlockRule.COMPOSE_OR),
        )
        # Control transfers: a tainted target is the exploit TaintCheck
        # detects; untainted targets are clean checks.
        builder.clean_check(
            event_id_for(OpClass.BRANCH, 1),
            s1=builder.reg_operand(inv_id=untainted),
            handler_pc=0x310,
        )
        return builder.build()

    # ----------------------------------------------------------------- state

    def _word_tainted(self, address: int) -> bool:
        return ShadowMemory.word_address(address) in self._tainted_words

    def _set_word(self, address: int, tainted: bool, origin: int = 0) -> bool:
        word = ShadowMemory.word_address(address)
        old = word in self._tainted_words
        if tainted:
            self._tainted_words.add(word)
            if origin:
                self._origins[word] = origin
        else:
            self._tainted_words.discard(word)
            self._origins.pop(word, None)
        self.critical_mem.write(word, TAINTED if tainted else UNTAINTED)
        return old != tainted

    def _set_reg(self, index: int, tainted: bool) -> bool:
        old = index in self._tainted_regs
        if tainted:
            self._tainted_regs.add(index)
        else:
            self._tainted_regs.discard(index)
        self.critical_regs.write(index, TAINTED if tainted else UNTAINTED)
        return old != tainted

    # ----------------------------------------------------------------- events

    def _handle_fields(
        self, event_id: int, app_pc: int, app_addr: Optional[int],
        src1_reg: Optional[int], src2_reg: Optional[int],
        dest_reg: Optional[int], sequence: int, kind: HandlerKind,
    ) -> HandlerResult:
        tainted_regs = self._tainted_regs
        if event_id == BRANCH_EVENT_ID:
            return self._handle_branch(app_pc, src1_reg)
        if event_id == LOAD_EVENT_ID:
            tainted = self._word_tainted(app_addr)
            changed = self._set_reg(dest_reg, tainted)
            return self._propagation_result(tainted, changed)
        if event_id == STORE_EVENT_ID:
            tainted = src1_reg in tainted_regs
            changed = self._set_word(app_addr, tainted)
            return self._propagation_result(tainted, changed)
        # ALU / MOVE: taint union of the present sources.
        tainted = (src1_reg is not None and src1_reg in tainted_regs) or (
            src2_reg is not None and src2_reg in tainted_regs
        )
        changed = self._set_reg(dest_reg, tainted)
        return self._propagation_result(tainted, changed)

    def _propagation_result(self, tainted: bool, changed: bool) -> HandlerResult:
        if changed:
            return self._result(self.costs.update, HandlerClass.UPDATE, True)
        if tainted:
            # Re-propagating taint that was already there: redundant update.
            return self._result(
                self.costs.redundant_update, HandlerClass.REDUNDANT_UPDATE
            )
        return self._result(self.costs.clean_check, HandlerClass.CLEAN_CHECK)

    def _handle_branch(self, pc: int, src1_reg: int) -> HandlerResult:
        if src1_reg not in self._tainted_regs:
            return self._result(self.costs.clean_check, HandlerClass.CLEAN_CHECK)
        report = BugReport(
            monitor=self.name,
            kind=BugKind.TAINTED_JUMP,
            pc=pc,
            thread=self.current_thread,
            message="control transfer through tainted data",
        )
        return self._result(self.costs.complex_op, HandlerClass.COMPLEX, False, report)

    # ------------------------------------------------------------ stack/heap

    def _clear_range(self, start: int, size: int) -> int:
        # Bulk equivalent of per-word _set_word(word, False) calls.
        self._untaint_words(start, size)
        return self.critical_mem.fill(start, size, UNTAINTED)

    def _untaint_words(self, start: int, size: int) -> None:
        """Drop the range's words from the taint set and origin map,
        visiting only entries that can be in the range."""
        words = words_in_range(start, size)
        tainted = self._tainted_words
        tainted.difference_update(keys_in_range(tainted, words))
        origins = self._origins
        for word in keys_in_range(origins, words):
            del origins[word]

    def handle_stack_update(self, update: StackUpdate) -> HandlerResult:
        words = self._clear_range(update.frame_base, update.frame_size)
        return self._result(
            self.costs.stack_update(words), HandlerClass.STACK_UPDATE, changed=True
        )

    def on_suu_stack_update(self, update: StackUpdate) -> None:
        self._untaint_words(update.frame_base, update.frame_size)

    def _handle_memory_event(self, event: HighLevelEvent) -> HandlerResult:
        if event.kind is HighLevelKind.TAINT_SOURCE:
            origin = self._next_origin
            self._next_origin += 1
            words = words_in_range(event.address, event.size)
            self._tainted_words.update(words)
            self._origins.update(dict.fromkeys(words, origin))
            self.critical_mem.fill(event.address, event.size, TAINTED)
            return self._result(
                self.costs.taint_source(len(words)),
                HandlerClass.HIGH_LEVEL,
                changed=True,
            )
        if event.kind in (HighLevelKind.MALLOC, HighLevelKind.FREE):
            words = self._clear_range(event.address, event.size)
            cost = (
                self.costs.malloc(words)
                if event.kind is HighLevelKind.MALLOC
                else self.costs.free(words)
            )
            return self._result(cost, HandlerClass.HIGH_LEVEL, changed=True)
        return self._result(0, HandlerClass.HIGH_LEVEL)
