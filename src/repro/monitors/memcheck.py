"""MemCheck: addressability + definedness tracking (Valgrind's memcheck).

Extends AddrCheck to detect the use of uninitialised values.  Critical
metadata have three states per word — unallocated, uninitialised, initialised
— and two per register — undefined, defined (Section 6).  The encodings are
chosen so that hardware AND composition is exactly definedness meet:

    INIT/DEF   = 0b11
    UNINIT/UNDEF = 0b01
    UNALLOC    = 0b00        (0b11 & 0b01 = 0b01, 0b11 & 0b11 = 0b11)

FADE performs clean checks for legitimate accesses and filters redundant
updates when metadata remain unchanged; Non-Blocking rules propagate
definedness (PROP_S1 for copies, COMPOSE_AND for two-source ALU ops).
"""

from __future__ import annotations

from typing import Optional

from repro.fade.event_table import EventTableEntry
from repro.fade.pipeline import HandlerKind
from repro.fade.programming import FadeProgram, ProgramBuilder
from repro.fade.update_logic import NonBlockRule, UpdateSpec
from repro.isa.events import MonitoredEvent, StackOp, StackUpdate
from repro.isa.opcodes import (
    BRANCH_EVENT_ID,
    LOAD_EVENT_ID,
    STORE_EVENT_ID,
    OpClass,
    event_id_for,
)
from repro.metadata.shadow import ShadowMemory, WordBytes
from repro.monitors.base import HandlerClass, HandlerResult, Monitor
from repro.monitors.handlers import MEMCHECK_COSTS, HandlerCosts
from repro.monitors.addrcheck import LAZY_REGION_END, LAZY_REGION_START
from repro.monitors.reports import BugKind, BugReport
from repro.workload.trace import HighLevelEvent, HighLevelKind

#: Memory-state encodings (critical metadata).
UNALLOC = 0x00
UNINIT = 0x01
INIT = 0x03
#: Register encodings share the INIT/UNINIT bit patterns.
UNDEF = 0x01
DEFINED = 0x03


class MemCheck(Monitor):
    """Addressability and definedness checker."""

    name = "MemCheck"
    #: Loads, stores and the integer ops that propagate definedness.  (FP
    #: and control flow are not monitored; uninitialised uses are reported
    #: at the consuming load, as in MemTracker-style hardware monitors.)
    monitored_op_classes = frozenset(
        {OpClass.LOAD, OpClass.STORE, OpClass.ALU, OpClass.MOVE}
    )
    monitors_stack_updates = True

    def __init__(self, costs: HandlerCosts = MEMCHECK_COSTS) -> None:
        super().__init__(costs)
        # Authoritative state: word -> UNALLOC/UNINIT/INIT, reg -> bool.
        self._words = WordBytes(UNALLOC)
        self._reg_defined = [True] * self.critical_regs.num_registers

    def register_default(self) -> int:
        return DEFINED

    def memory_default(self) -> int:
        return UNALLOC

    # ---------------------------------------------------------------- program

    def fade_program(self) -> FadeProgram:
        builder = ProgramBuilder(self.name)
        init = builder.invariant(INIT, "initialised")
        defined = builder.invariant(DEFINED, "defined")
        builder.suu_values(call_value=UNINIT, return_value=UNALLOC)

        # ld [mem] -> rd: filter when the word is initialised and the
        # destination is already defined (the update would be redundant).
        builder.multi_shot(
            event_id_for(OpClass.LOAD, 1),
            checks=[
                EventTableEntry(s1=builder.mem_operand(inv_id=init), cc=True),
                EventTableEntry(d=builder.reg_operand(inv_id=defined), cc=True),
            ],
            handler_pc=0x200,
            update=UpdateSpec(rule=NonBlockRule.PROP_S1),
        )
        # st rs -> [mem]: filter when the source is defined and the word is
        # already initialised.
        builder.multi_shot(
            event_id_for(OpClass.STORE, 1),
            checks=[
                EventTableEntry(s1=builder.reg_operand(inv_id=defined), cc=True),
                EventTableEntry(d=builder.mem_operand(inv_id=init), cc=True),
            ],
            handler_pc=0x204,
            update=UpdateSpec(rule=NonBlockRule.PROP_S1),
        )
        # Single-source ALU and moves: defined -> defined is a no-op.
        for op, sources in ((OpClass.ALU, 1), (OpClass.MOVE, 1)):
            builder.clean_check(
                event_id_for(op, sources),
                s1=builder.reg_operand(inv_id=defined),
                d=builder.reg_operand(inv_id=defined),
                handler_pc=0x208,
                update=UpdateSpec(rule=NonBlockRule.PROP_S1),
            )
        # Two-source ALU: all three operands defined in one single-shot
        # evaluation (the three comparison blocks of Figure 7).
        builder.clean_check(
            event_id_for(OpClass.ALU, 2),
            s1=builder.reg_operand(inv_id=defined),
            s2=builder.reg_operand(inv_id=defined),
            d=builder.reg_operand(inv_id=defined),
            handler_pc=0x20C,
            update=UpdateSpec(rule=NonBlockRule.COMPOSE_AND),
        )
        # Conditional branches: using an undefined value is the bug MemCheck
        # exists to find; defined conditions are filtered.
        builder.clean_check(
            event_id_for(OpClass.BRANCH, 1),
            s1=builder.reg_operand(inv_id=defined),
            handler_pc=0x210,
        )
        return builder.build()

    # ----------------------------------------------------------------- state

    def _word_state(self, address: int) -> int:
        return self._words.read(address)

    def _set_word(self, address: int, state: int) -> bool:
        word = ShadowMemory.word_address(address)
        changed = self._words.write(word, state)
        self.critical_mem.write(word, state)
        return changed

    def _set_reg(self, index: int, defined: bool) -> bool:
        old = self._reg_defined[index]
        self._reg_defined[index] = defined
        self.critical_regs.write(index, DEFINED if defined else UNDEF)
        return old != defined

    # ----------------------------------------------------------------- events

    def handle_event(
        self, event: MonitoredEvent, kind: HandlerKind = HandlerKind.FULL
    ) -> HandlerResult:
        event_id = event.event_id
        if event_id == LOAD_EVENT_ID:
            return self._handle_load(event)
        if event_id == STORE_EVENT_ID:
            return self._handle_store(event)
        if event_id == BRANCH_EVENT_ID:
            return self._handle_branch(event)
        return self._handle_alu(event)

    def _lazy_materialize(self, address: int) -> Optional[HandlerResult]:
        """First touch of the lazily shadowed static segment (see AddrCheck):
        materialise its shadow as initialised instead of reporting."""
        word = ShadowMemory.word_address(address)
        if LAZY_REGION_START <= word < LAZY_REGION_END:
            self._set_word(word, INIT)
            return self._result(self.costs.update, HandlerClass.UPDATE, changed=True)
        return None

    def _handle_load(self, event: MonitoredEvent) -> HandlerResult:
        state = self._word_state(event.app_addr)
        report = None
        if state == UNALLOC:
            lazy = self._lazy_materialize(event.app_addr)
            if lazy is not None:
                self._set_reg(event.dest_reg, True)
                return lazy
            report = BugReport(
                monitor=self.name,
                kind=BugKind.INVALID_READ,
                pc=event.app_pc,
                address=event.app_addr,
                message="read of unallocated memory",
            )
        elif state == UNINIT:
            report = BugReport(
                monitor=self.name,
                kind=BugKind.UNINITIALIZED_USE,
                pc=event.app_pc,
                address=event.app_addr,
                message="read of uninitialised memory",
            )
        defined = state == INIT
        changed = self._set_reg(event.dest_reg, defined)
        if report is not None:
            return self._result(
                self.costs.complex_op, HandlerClass.COMPLEX, changed, report
            )
        if changed:
            return self._result(self.costs.update, HandlerClass.UPDATE, True)
        if not defined:
            # Propagated an undefined value without change: redundant update.
            return self._result(
                self.costs.redundant_update, HandlerClass.REDUNDANT_UPDATE
            )
        return self._result(self.costs.clean_check, HandlerClass.CLEAN_CHECK)

    def _handle_store(self, event: MonitoredEvent) -> HandlerResult:
        state = self._word_state(event.app_addr)
        if state == UNALLOC:
            lazy = self._lazy_materialize(event.app_addr)
            if lazy is not None:
                return lazy
            report = BugReport(
                monitor=self.name,
                kind=BugKind.INVALID_WRITE,
                pc=event.app_pc,
                address=event.app_addr,
                message="write to unallocated memory",
            )
            # The location stays unaddressable; rewrite the critical byte in
            # case a Non-Blocking hint speculated a propagation onto it.
            self._set_word(event.app_addr, UNALLOC)
            return self._result(
                self.costs.complex_op, HandlerClass.COMPLEX, False, report
            )
        src_defined = self._reg_defined[event.src1_reg]
        new_state = INIT if src_defined else UNINIT
        changed = self._set_word(event.app_addr, new_state)
        if changed:
            return self._result(self.costs.update, HandlerClass.UPDATE, True)
        if not src_defined:
            return self._result(
                self.costs.redundant_update, HandlerClass.REDUNDANT_UPDATE
            )
        return self._result(self.costs.clean_check, HandlerClass.CLEAN_CHECK)

    def _handle_alu(self, event: MonitoredEvent) -> HandlerResult:
        sources = [reg for reg in (event.src1_reg, event.src2_reg) if reg is not None]
        defined = all(self._reg_defined[reg] for reg in sources)
        changed = self._set_reg(event.dest_reg, defined)
        if changed:
            return self._result(self.costs.update, HandlerClass.UPDATE, True)
        if not defined:
            return self._result(
                self.costs.redundant_update, HandlerClass.REDUNDANT_UPDATE
            )
        return self._result(self.costs.clean_check, HandlerClass.CLEAN_CHECK)

    def _handle_branch(self, event: MonitoredEvent) -> HandlerResult:
        if self._reg_defined[event.src1_reg]:
            return self._result(self.costs.clean_check, HandlerClass.CLEAN_CHECK)
        report = BugReport(
            monitor=self.name,
            kind=BugKind.UNINITIALIZED_USE,
            pc=event.app_pc,
            message="conditional branch on uninitialised value",
        )
        return self._result(self.costs.complex_op, HandlerClass.COMPLEX, False, report)

    # ------------------------------------------------------------ stack/heap

    def _set_range(self, start: int, size: int, state: int) -> int:
        # Bulk equivalent of per-word _set_word calls: malloc/free/stack
        # ranges cover thousands of words, so both stores fill them page by
        # page.
        self._words.fill(start, size, state)
        return self.critical_mem.bulk_set(start, size, state)

    def handle_stack_update(self, update: StackUpdate) -> HandlerResult:
        state = UNINIT if update.op is StackOp.CALL else UNALLOC
        words = self._set_range(update.frame_base, update.frame_size, state)
        return self._result(
            self.costs.stack_update(words), HandlerClass.STACK_UPDATE, changed=True
        )

    def on_suu_stack_update(self, update: StackUpdate) -> None:
        state = UNINIT if update.op is StackOp.CALL else UNALLOC
        self._words.fill(update.frame_base, update.frame_size, state)

    def _handle_memory_event(self, event: HighLevelEvent) -> HandlerResult:
        if event.kind is HighLevelKind.MALLOC:
            # Static segments registered at program launch are initialised
            # data; fresh heap allocations start uninitialised.
            state = INIT if event.startup else UNINIT
            words = self._set_range(event.address, event.size, state)
            return self._result(
                self.costs.malloc(words), HandlerClass.HIGH_LEVEL, changed=True
            )
        if event.kind is HighLevelKind.FREE:
            words = self._set_range(event.address, event.size, UNALLOC)
            return self._result(
                self.costs.free(words), HandlerClass.HIGH_LEVEL, changed=True
            )
        if event.kind is HighLevelKind.TAINT_SOURCE:
            # External data arriving initialises the buffer.
            words = self._set_range(event.address, event.size, INIT)
            return self._result(
                self.costs.taint_source(words), HandlerClass.HIGH_LEVEL, changed=True
            )
        return self._result(0, HandlerClass.HIGH_LEVEL)
