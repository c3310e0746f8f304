"""AddrCheck: allocation checking (Nethercote & Seward's addrcheck).

Checks that every memory access goes to an allocated region.  Critical
metadata encode two states per memory word — allocated or unallocated
(Section 6).  The paper's non-critical metadata (allocation sites for bug
reporting) are not modelled: no report here carries them.  FADE filters
accesses to allocated data through clean checks; there is no Non-Blocking
update rule because the handler's critical effect (lazy shadow
materialisation or nothing at all) is not a propagation.
"""

from __future__ import annotations

from typing import Optional

from repro.fade.pipeline import HandlerKind
from repro.fade.programming import FadeProgram, ProgramBuilder
from repro.isa.events import StackOp, StackUpdate
from repro.isa.opcodes import STORE_EVENT_ID, OpClass, event_id_for
from repro.metadata.shadow import ShadowMemory, WordBytes
from repro.monitors.base import HandlerClass, HandlerResult, Monitor
from repro.monitors.handlers import ADDRCHECK_COSTS, HandlerCosts
from repro.monitors.reports import BugKind, BugReport
from repro.workload.generator import FRESH_BASE
from repro.workload.trace import HighLevelEvent, HighLevelKind

#: Critical-metadata encodings.
UNALLOCATED = 0x00
ALLOCATED = 0x01

#: The lazily shadowed static segment: first touch materialises its shadow
#: instead of reporting (mirrors how real tools treat mmap'd/static data).
LAZY_REGION_START = FRESH_BASE
LAZY_REGION_END = FRESH_BASE + (1 << 24)


class AddrCheck(Monitor):
    """Allocation checker."""

    name = "AddrCheck"
    monitored_op_classes = frozenset({OpClass.LOAD, OpClass.STORE})
    monitors_stack_updates = True

    def __init__(self, costs: HandlerCosts = ADDRCHECK_COSTS) -> None:
        super().__init__(costs)
        # Authoritative allocation state: word -> ALLOCATED/UNALLOCATED.
        self._allocated = WordBytes(UNALLOCATED)

    # ---------------------------------------------------------------- program

    def fade_program(self) -> FadeProgram:
        builder = ProgramBuilder(self.name)
        allocated = builder.invariant(ALLOCATED, "allocated")
        builder.suu_values(call_value=ALLOCATED, return_value=UNALLOCATED)
        # Loads carry the memory operand as s1; stores as the destination.
        builder.clean_check(
            event_id_for(OpClass.LOAD, 1),
            s1=builder.mem_operand(inv_id=allocated),
            handler_pc=0x100,
        )
        builder.clean_check(
            event_id_for(OpClass.STORE, 1),
            d=builder.mem_operand(inv_id=allocated),
            handler_pc=0x104,
        )
        return builder.build()

    # ----------------------------------------------------------------- events

    def _handle_fields(
        self, event_id: int, app_pc: int, app_addr: Optional[int],
        src1_reg: Optional[int], src2_reg: Optional[int],
        dest_reg: Optional[int], sequence: int, kind: HandlerKind,
    ) -> HandlerResult:
        assert app_addr is not None, "AddrCheck only monitors memory events"
        word = ShadowMemory.word_address(app_addr)
        if self._allocated.read(word):
            # Clean access: the handler checks and exits.
            return self._result(self.costs.clean_check, HandlerClass.CLEAN_CHECK)
        if LAZY_REGION_START <= word < LAZY_REGION_END:
            # First touch of lazily shadowed static data: materialise it.
            self._allocated.write(word, ALLOCATED)
            self.critical_mem.write(word, ALLOCATED)
            return self._result(
                self.costs.update, HandlerClass.UPDATE, changed=True
            )
        is_store = event_id == STORE_EVENT_ID
        kind_ = BugKind.INVALID_WRITE if is_store else BugKind.INVALID_READ
        report = BugReport(
            monitor=self.name,
            kind=kind_,
            pc=app_pc,
            address=app_addr,
            thread=self.current_thread,
            message="access to unallocated memory",
        )
        return self._result(self.costs.complex_op, HandlerClass.COMPLEX, report=report)

    # ------------------------------------------------------------ stack/heap

    def _set_range(self, start: int, size: int, allocate: bool) -> int:
        # Bulk equivalent of per-word updates: malloc/free/stack ranges
        # cover thousands of words, so both stores fill them page by page.
        state = ALLOCATED if allocate else UNALLOCATED
        self._allocated.fill(start, size, state)
        return self.critical_mem.fill(start, size, state)

    def handle_stack_update(self, update: StackUpdate) -> HandlerResult:
        words = self._set_range(
            update.frame_base, update.frame_size, update.op is StackOp.CALL
        )
        return self._result(
            self.costs.stack_update(words), HandlerClass.STACK_UPDATE, changed=True
        )

    def on_suu_stack_update(self, update: StackUpdate) -> None:
        # The SUU wrote the critical bytes; mirror into authoritative state.
        state = ALLOCATED if update.op is StackOp.CALL else UNALLOCATED
        self._allocated.fill(update.frame_base, update.frame_size, state)

    def _handle_memory_event(self, event: HighLevelEvent) -> HandlerResult:
        if event.kind is HighLevelKind.MALLOC:
            words = self._set_range(event.address, event.size, allocate=True)
            return self._result(
                self.costs.malloc(words), HandlerClass.HIGH_LEVEL, changed=True
            )
        if event.kind is HighLevelKind.FREE:
            words = self._set_range(event.address, event.size, allocate=False)
            return self._result(
                self.costs.free(words), HandlerClass.HIGH_LEVEL, changed=True
            )
        # TAINT_SOURCE: no addressability effect.
        return self._result(0, HandlerClass.HIGH_LEVEL)
