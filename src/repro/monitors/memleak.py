"""MemLeak: precise memory-leak detection via reference counting (Maebe et
al.).

Tracks, for every register and memory word, whether it holds a pointer and —
non-critically — *which allocation context* it points to.  A context records
the allocation site (PC), a unique id and a reference count; an allocation
whose references all disappear without a free is a leak.

Critical metadata are just the pointer / non-pointer status (Section 5.1:
"just checking the pointer/non-pointer status of a memory location or a
register suffices to make the filtering decision"); the context pointers are
non-critical.  FADE performs clean checks against the non-pointer invariant
and Non-Blocking rules propagate pointerness (PROP_S1 / COMPOSE_OR).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.common.units import keys_in_range, words_in_range
from repro.fade.pipeline import HandlerKind
from repro.fade.programming import FadeProgram, ProgramBuilder
from repro.fade.update_logic import NonBlockRule, UpdateSpec
from repro.isa.events import MonitoredEvent, StackUpdate
from repro.isa.opcodes import (
    LOAD_EVENT_ID,
    STORE_EVENT_ID,
    OpClass,
    event_id_for,
)
from repro.metadata.shadow import ShadowMemory
from repro.monitors.base import HandlerClass, HandlerResult, Monitor
from repro.monitors.handlers import MEMLEAK_COSTS, HandlerCosts
from repro.monitors.reports import BugKind, BugReport
from repro.workload.trace import HighLevelEvent, HighLevelKind

#: Critical-metadata encodings.
NONPTR = 0x00
PTR = 0x01


@dataclasses.dataclass
class AllocationContext:
    """Non-critical metadata of one allocation (Section 5.1: unique ID, PC
    and a reference counter)."""

    context_id: int
    pc: int
    base: int
    size: int
    refcount: int = 0
    freed: bool = False


class MemLeak(Monitor):
    """Reference-counting leak detector."""

    name = "MemLeak"
    monitored_op_classes = frozenset(
        {OpClass.LOAD, OpClass.STORE, OpClass.ALU, OpClass.MOVE}
    )
    monitors_stack_updates = True

    def __init__(self, costs: HandlerCosts = MEMLEAK_COSTS) -> None:
        super().__init__(costs)
        self.contexts: Dict[int, AllocationContext] = {}
        self._reg_ctx: Dict[int, int] = {}  # register -> context id
        self._word_ctx: Dict[int, int] = {}  # word address -> context id
        self._next_context = 1

    # ---------------------------------------------------------------- program

    def fade_program(self) -> FadeProgram:
        builder = ProgramBuilder(self.name)
        nonptr = builder.invariant(NONPTR, "non-pointer")
        builder.suu_values(call_value=NONPTR, return_value=NONPTR)

        # The event table entries mirror Figure 6(b)'s MemLeak example:
        # ``ld mem, rd`` filters when both the loaded word and the
        # destination register are non-pointers (CC against INV "non-ptr").
        builder.clean_check(
            event_id_for(OpClass.LOAD, 1),
            s1=builder.mem_operand(inv_id=nonptr),
            d=builder.reg_operand(inv_id=nonptr),
            handler_pc=0x400,
            update=UpdateSpec(rule=NonBlockRule.PROP_S1),
        )
        builder.clean_check(
            event_id_for(OpClass.STORE, 1),
            s1=builder.reg_operand(inv_id=nonptr),
            d=builder.mem_operand(inv_id=nonptr),
            handler_pc=0x404,
            update=UpdateSpec(rule=NonBlockRule.PROP_S1),
        )
        for op, sources in ((OpClass.ALU, 1), (OpClass.MOVE, 1)):
            builder.clean_check(
                event_id_for(op, sources),
                s1=builder.reg_operand(inv_id=nonptr),
                d=builder.reg_operand(inv_id=nonptr),
                handler_pc=0x408,
                update=UpdateSpec(rule=NonBlockRule.PROP_S1),
            )
        builder.clean_check(
            event_id_for(OpClass.ALU, 2),
            s1=builder.reg_operand(inv_id=nonptr),
            s2=builder.reg_operand(inv_id=nonptr),
            d=builder.reg_operand(inv_id=nonptr),
            handler_pc=0x40C,
            update=UpdateSpec(rule=NonBlockRule.COMPOSE_OR),
        )
        return builder.build()

    # ------------------------------------------------------------- refcounts

    def _retain(self, context_id: Optional[int]) -> None:
        if context_id is not None and context_id in self.contexts:
            self.contexts[context_id].refcount += 1

    def _release(self, context_id: Optional[int]) -> None:
        if context_id is not None and context_id in self.contexts:
            self.contexts[context_id].refcount -= 1

    def _set_reg_ctx(self, index: int, context_id: Optional[int]) -> bool:
        old = self._reg_ctx.get(index)
        if old == context_id:
            # Pointer status may still need (redundant) refresh.
            return self.critical_regs.write(index, PTR if context_id else NONPTR)
        self._release(old)
        self._retain(context_id)
        if context_id is None:
            self._reg_ctx.pop(index, None)
        else:
            self._reg_ctx[index] = context_id
        self.critical_regs.write(index, PTR if context_id else NONPTR)
        return True

    def _set_word_ctx(self, address: int, context_id: Optional[int]) -> bool:
        word = ShadowMemory.word_address(address)
        old = self._word_ctx.get(word)
        if old == context_id:
            return self.critical_mem.write(word, PTR if context_id else NONPTR)
        self._release(old)
        self._retain(context_id)
        if context_id is None:
            self._word_ctx.pop(word, None)
        else:
            self._word_ctx[word] = context_id
        self.critical_mem.write(word, PTR if context_id else NONPTR)
        return True

    def _reg_context(self, index: Optional[int]) -> Optional[int]:
        if index is None:
            return None
        return self._reg_ctx.get(index)

    def _word_context(self, address: int) -> Optional[int]:
        return self._word_ctx.get(ShadowMemory.word_address(address))

    # ----------------------------------------------------------------- events

    def handle_event(
        self, event: MonitoredEvent, kind: HandlerKind = HandlerKind.FULL
    ) -> HandlerResult:
        event_id = event.event_id
        if event_id == LOAD_EVENT_ID:
            source_ctx = self._word_context(event.app_addr)
            changed = self._set_reg_ctx(event.dest_reg, source_ctx)
            return self._propagation_result(source_ctx, changed)
        if event_id == STORE_EVENT_ID:
            source_ctx = self._reg_context(event.src1_reg)
            changed = self._set_word_ctx(event.app_addr, source_ctx)
            return self._propagation_result(source_ctx, changed)
        # ALU / MOVE: the destination points into whichever source context
        # is a pointer (pointer arithmetic keeps the context).
        source_ctx = self._reg_context(event.src1_reg)
        if source_ctx is None:
            source_ctx = self._reg_context(event.src2_reg)
        changed = self._set_reg_ctx(event.dest_reg, source_ctx)
        return self._propagation_result(source_ctx, changed)

    def _propagation_result(
        self, context_id: Optional[int], changed: bool
    ) -> HandlerResult:
        if changed:
            # Reference-count churn: the heavyweight MemLeak path.
            return self._result(self.costs.complex_op, HandlerClass.COMPLEX, True)
        if context_id is not None:
            return self._result(
                self.costs.redundant_update, HandlerClass.REDUNDANT_UPDATE
            )
        return self._result(self.costs.clean_check, HandlerClass.CLEAN_CHECK)

    # ------------------------------------------------------------ stack/heap

    def _clear_word_range(self, start: int, size: int) -> int:
        """Bulk equivalent of per-word ``_set_word_ctx(word, None)`` calls:
        release every tracked context in the range, drop the words from the
        context map, and clear the critical bytes."""
        self._drop_word_contexts(start, size)
        return self.critical_mem.bulk_set(start, size, NONPTR)

    def _drop_word_contexts(self, start: int, size: int) -> None:
        """Release and forget the contexts of every tracked word in the
        range, in ascending address order."""
        word_ctx = self._word_ctx
        release = self._release
        for word in keys_in_range(word_ctx, words_in_range(start, size)):
            release(word_ctx.pop(word))

    def handle_stack_update(self, update: StackUpdate) -> HandlerResult:
        words = self._clear_word_range(update.frame_base, update.frame_size)
        return self._result(
            self.costs.stack_update(words), HandlerClass.STACK_UPDATE, changed=True
        )

    def on_suu_stack_update(self, update: StackUpdate) -> None:
        self._drop_word_contexts(update.frame_base, update.frame_size)

    def _handle_memory_event(self, event: HighLevelEvent) -> HandlerResult:
        if event.kind is HighLevelKind.MALLOC:
            context = AllocationContext(
                context_id=self._next_context,
                pc=0,
                base=event.address,
                size=event.size,
            )
            self._next_context += 1
            self.contexts[context.context_id] = context
            words = self._clear_word_range(event.address, event.size)
            self._set_reg_ctx(event.register, context.context_id)
            return self._result(
                self.costs.malloc(words), HandlerClass.HIGH_LEVEL, changed=True
            )
        if event.kind is HighLevelKind.FREE:
            words = self._clear_word_range(event.address, event.size)
            context = self._context_at(event.address)
            if context is not None:
                context.freed = True
            return self._result(
                self.costs.free(words), HandlerClass.HIGH_LEVEL, changed=True
            )
        return self._result(0, HandlerClass.HIGH_LEVEL)

    def _context_at(self, base: int) -> Optional[AllocationContext]:
        for context in self.contexts.values():
            if context.base == base and not context.freed:
                return context
        return None

    # ---------------------------------------------------------------- analysis

    def finalize(self) -> List[BugReport]:
        """Leak check at program exit: allocations that were never freed and
        have no live references are definitely lost."""
        leaks = []
        for context in self.contexts.values():
            if not context.freed and context.refcount <= 0:
                leaks.append(
                    BugReport(
                        monitor=self.name,
                        kind=BugKind.MEMORY_LEAK,
                        pc=context.pc,
                        address=context.base,
                        message=(
                            f"allocation of {context.size} bytes "
                            f"(context {context.context_id}) is unreachable"
                        ),
                    )
                )
        return leaks
