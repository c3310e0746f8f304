"""AtomCheck: atomicity-violation detection via access-interleaving
invariants (AVIO-style, Lu et al.).

Tracks the last access (thread and read/write type) to every application
word.  An access by thread *t* to a word last touched by another thread *r*
forms an interleaving triple (t's previous access, r's interleaved access,
t's current access); the four unserialisable triples are reported.

Critical metadata: one byte per word holding a valid bit, the access-type
bit and the thread id (Section 6: "one byte of critical metadata per
application word with the thread status bit and the thread id").
Non-critical metadata: per-thread local access-history tables.

AtomCheck is the paper's showcase for **partial filtering**: the hardware
checks whether the word was last referenced by the same thread.  If the full
tag (thread + type) matches, the event is fully redundant and filtered.  If
only the thread matches, a simple short handler updates the access type.
Otherwise a long handler runs the interleaving analysis (Section 4.1).
The monitor reprograms FADE's INV registers with the current thread's
read/write tags at every time-slice switch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.units import keys_in_range, words_in_range
from repro.fade.event_table import EventTableEntry
from repro.fade.pipeline import HandlerKind
from repro.fade.programming import FadeProgram, ProgramBuilder
from repro.fade.update_logic import NonBlockRule, UpdateSpec
from repro.isa.events import MonitoredEvent, StackUpdate
from repro.isa.opcodes import STORE_EVENT_ID, OpClass, event_id_for
from repro.metadata.shadow import ShadowMemory
from repro.monitors.base import HandlerClass, HandlerResult, Monitor
from repro.monitors.handlers import ATOMCHECK_COSTS, HandlerCosts
from repro.monitors.reports import BugKind, BugReport
from repro.workload.trace import HighLevelEvent, HighLevelKind

#: Critical-metadata byte layout: valid(0x80) | type(0x04: 0=read 1=write)
#: | thread id (0x03).
VALID_BIT = 0x80
TYPE_BIT = 0x04
THREAD_MASK = 0x03
#: Mask ignoring the access-type bit: valid + thread id.
SAME_THREAD_MASK = VALID_BIT | THREAD_MASK

#: Accesses above this address are thread-private stack; not monitored.
STACK_REGION_START = 0x7000_0000

READ, WRITE = "R", "W"

#: The four unserialisable interleavings of AVIO:
#: (local previous, remote interleaved, local current).
UNSERIALIZABLE: frozenset = frozenset(
    [(READ, WRITE, READ), (WRITE, WRITE, READ), (READ, WRITE, WRITE),
     (WRITE, READ, WRITE)]
)


def access_tag(thread: int, access_type: str) -> int:
    """Critical-metadata byte for an access by ``thread`` of a given type."""
    return VALID_BIT | (TYPE_BIT if access_type == WRITE else 0) | (thread & THREAD_MASK)


class AtomCheck(Monitor):
    """Atomicity-violation detector."""

    name = "AtomCheck"
    monitored_op_classes = frozenset({OpClass.LOAD, OpClass.STORE})
    monitors_stack_updates = False
    #: Accesses at or above STACK_REGION_START are thread-private stack.
    wants_memory_below = STACK_REGION_START

    #: INV RF allocation: ids 0/1 hold the current thread's read/write tags.
    READ_TAG_INV = 0
    WRITE_TAG_INV = 1

    def __init__(self, costs: HandlerCosts = ATOMCHECK_COSTS) -> None:
        super().__init__(costs)
        # Authoritative: word -> (last thread, last type).
        self._last_access: Dict[int, Tuple[int, str]] = {}
        # Non-critical: (word, thread) -> that thread's previous access type.
        self._local_history: Dict[Tuple[int, int], str] = {}

    # ---------------------------------------------------------------- program

    def fade_program(self) -> FadeProgram:
        builder = ProgramBuilder(self.name)
        read_tag = builder.invariant(access_tag(0, READ), "cur-thread-read-tag")
        write_tag = builder.invariant(access_tag(0, WRITE), "cur-thread-write-tag")
        assert read_tag == self.READ_TAG_INV and write_tag == self.WRITE_TAG_INV

        # Loads: check the word's tag against the current thread's read tag.
        # AtomCheck evaluates and updates the *memory* operand for loads and
        # stores alike, so both entries use the d slot for the word.
        builder.partial_filter(
            event_id_for(OpClass.LOAD, 1),
            full_check=EventTableEntry(
                d=builder.mem_operand(inv_id=read_tag), cc=True
            ),
            partial_check=EventTableEntry(
                d=builder.mem_operand(inv_id=read_tag, mask=SAME_THREAD_MASK),
                cc=True,
            ),
            short_handler_pc=0x500,
            long_handler_pc=0x504,
            update=UpdateSpec(rule=NonBlockRule.SET_CONST, inv_id=read_tag),
        )
        builder.partial_filter(
            event_id_for(OpClass.STORE, 1),
            full_check=EventTableEntry(
                d=builder.mem_operand(inv_id=write_tag), cc=True
            ),
            partial_check=EventTableEntry(
                d=builder.mem_operand(inv_id=write_tag, mask=SAME_THREAD_MASK),
                cc=True,
            ),
            short_handler_pc=0x508,
            long_handler_pc=0x50C,
            update=UpdateSpec(rule=NonBlockRule.SET_CONST, inv_id=write_tag),
        )
        return builder.build()

    def runtime_invariant_updates(self, event: HighLevelEvent) -> List[tuple]:
        if event.kind is HighLevelKind.THREAD_SWITCH:
            return [
                (self.READ_TAG_INV, access_tag(event.thread, READ)),
                (self.WRITE_TAG_INV, access_tag(event.thread, WRITE)),
            ]
        return []

    # ----------------------------------------------------------------- events

    def handle_event(
        self, event: MonitoredEvent, kind: HandlerKind = HandlerKind.FULL
    ) -> HandlerResult:
        address = event.app_addr
        assert address is not None, "AtomCheck only monitors memory events"
        word = ShadowMemory.word_address(address)
        access_type = (
            WRITE if event.event_id == STORE_EVENT_ID else READ
        )
        thread = self.current_thread
        last = self._last_access.get(word)
        report: Optional[BugReport] = None

        if last is not None and last[0] != thread:
            # Interleaved remote access: run the AVIO serializability check.
            previous_local = self._local_history.get((word, thread))
            if previous_local is not None:
                triple = (previous_local, last[1], access_type)
                if triple in UNSERIALIZABLE:
                    report = BugReport(
                        monitor=self.name,
                        kind=BugKind.ATOMICITY_VIOLATION,
                        pc=event.app_pc,
                        address=word,
                        thread=thread,
                        message=(
                            f"unserialisable interleaving {triple[0]}-"
                            f"{triple[1]}-{triple[2]} with thread {last[0]}"
                        ),
                    )

        changed = self._update_access(word, thread, access_type)
        if report is not None:
            return self._result(
                self.costs.complex_op, HandlerClass.COMPLEX, changed, report
            )
        if last is not None and last[0] != thread:
            # Cross-thread access without a violation: long handler anyway.
            return self._result(self.costs.complex_op, HandlerClass.COMPLEX, changed)
        if changed:
            cost = (
                self.costs.partial_short
                if kind is HandlerKind.SHORT
                else self.costs.update
            )
            return self._result(cost, HandlerClass.UPDATE, True)
        return self._result(self.costs.clean_check, HandlerClass.CLEAN_CHECK)

    def _update_access(self, word: int, thread: int, access_type: str) -> bool:
        old = self._last_access.get(word)
        self._last_access[word] = (thread, access_type)
        self._local_history[(word, thread)] = access_type
        self.critical_mem.write(word, access_tag(thread, access_type))
        return old != (thread, access_type)

    # ------------------------------------------------------------ stack/heap

    def handle_stack_update(self, update: StackUpdate) -> HandlerResult:
        # AtomCheck does not shadow thread-private stack frames.
        return self._result(0, HandlerClass.STACK_UPDATE)

    def _handle_memory_event(self, event: HighLevelEvent) -> HandlerResult:
        # Allocation events reset the access history of the region.
        if event.kind in (HighLevelKind.MALLOC, HighLevelKind.FREE):
            last_access = self._last_access
            for word in keys_in_range(
                last_access, words_in_range(event.address, event.size)
            ):
                del last_access[word]
            words = self.critical_mem.fill(event.address, event.size, 0x00)
            cost = (
                self.costs.malloc(words)
                if event.kind is HighLevelKind.MALLOC
                else self.costs.free(words)
            )
            return self._result(cost, HandlerClass.HIGH_LEVEL, changed=True)
        return self._result(0, HandlerClass.HIGH_LEVEL)
