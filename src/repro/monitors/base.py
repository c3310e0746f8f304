"""Monitor base class.

A monitor is three things at once:

1. **A functional bug-finding tool**: it maintains authoritative metadata
   (full, including non-critical state), detects real bugs and produces
   :class:`BugReport` records.
2. **A cost model**: every software handler returns how many monitor-core
   instructions it executed, which drives the timing simulation.
3. **A FADE program**: :meth:`fade_program` expresses the monitor's
   filtering rules as event-table + INV-RF contents; the monitor also keeps
   the *critical* metadata (``critical_regs`` / ``critical_mem``) that FADE's
   Metadata Read stage consumes.

The critical stores are a hardware-visible *cache of hints* derived from the
authoritative state: Non-Blocking FADE updates them speculatively-in-value
(but non-speculatively in the paper's sense — the rules are exact for clean
executions), and every software handler rewrites them from authoritative
state, so they converge regardless of mode.
"""

from __future__ import annotations

import abc
import dataclasses
import enum
from typing import List, Optional

from repro.fade.pipeline import HandlerKind
from repro.fade.programming import FadeProgram
from repro.isa.events import MonitoredEvent, StackUpdate
from repro.isa.instruction import Instruction
from repro.metadata.shadow import ShadowMemory, ShadowRegisters
from repro.monitors.handlers import HandlerCosts
from repro.monitors.reports import BugReport
from repro.workload.trace import HighLevelEvent, HighLevelKind


class HandlerClass(enum.Enum):
    """What kind of work a software handler turned out to be.

    Used for the Figure 4(a) execution-time breakdown: instruction handlers
    split into clean checks (CC) and redundant updates (RU) — both of which
    FADE can elide — plus genuine updates and complex operations, which it
    cannot.
    """

    CLEAN_CHECK = "cc"
    REDUNDANT_UPDATE = "ru"
    UPDATE = "update"
    COMPLEX = "complex"
    STACK_UPDATE = "stack"
    HIGH_LEVEL = "high-level"


@dataclasses.dataclass(frozen=True)
class HandlerResult:
    """Outcome of one software handler invocation."""

    cost: int  # Monitor-core instructions executed.
    handler_class: HandlerClass
    metadata_changed: bool = False
    report: Optional[BugReport] = None

    @property
    def is_noop(self) -> bool:
        """True if the handler neither changed metadata nor reported a bug
        — i.e. a filtering accelerator could have elided it."""
        return not self.metadata_changed and self.report is None


class Monitor(abc.ABC):
    """Base class for instruction-grain monitoring tools."""

    #: Monitor name (stable identifier used in experiment output).
    name: str = "monitor"
    #: Instruction classes whose retirement produces a monitored event.
    monitored_op_classes: frozenset = frozenset()
    #: Whether function calls/returns are monitored (stack updates).
    monitors_stack_updates: bool = False
    #: Optional address bound: when set, a monitored instruction must touch
    #: memory *below* this address to produce an event (AtomCheck ignores
    #: the thread-private stack region).  Declarative so the packed-trace
    #: plan fast path can honour it without materialising instructions.
    wants_memory_below: Optional[int] = None

    def __init__(self, costs: HandlerCosts) -> None:
        self.costs = costs
        self.critical_regs = ShadowRegisters(default=self.register_default())
        self.critical_mem = ShadowMemory(default=self.memory_default())
        self.reports: List[BugReport] = []
        self.current_thread = 0

    # ---------------------------------------------------------------- config

    def register_default(self) -> int:
        """Default critical-metadata byte for registers."""
        return 0

    def memory_default(self) -> int:
        """Default critical-metadata byte for unshadowed memory."""
        return 0

    @abc.abstractmethod
    def fade_program(self) -> FadeProgram:
        """The event-table / INV-RF contents implementing this monitor."""

    # ------------------------------------------------------------- filtering

    def wants(self, instruction: Instruction) -> bool:
        """Is this retired instruction a monitored event?"""
        if instruction.op_class.is_stack_op:
            return self.monitors_stack_updates
        if instruction.op_class not in self.monitored_op_classes:
            return False
        if self.wants_memory_below is not None:
            address = instruction.memory_address
            return address is not None and address < self.wants_memory_below
        return True

    # ---------------------------------------------------------------- events

    @abc.abstractmethod
    def handle_event(
        self, event: MonitoredEvent, kind: HandlerKind = HandlerKind.FULL
    ) -> HandlerResult:
        """Software handler for one instruction event.

        ``kind`` is SHORT when FADE's partial check already succeeded (the
        handler skips the check it encodes); FULL otherwise.
        """

    @abc.abstractmethod
    def handle_stack_update(self, update: StackUpdate) -> HandlerResult:
        """Software path for a stack update (unaccelerated systems)."""

    def on_suu_stack_update(self, update: StackUpdate) -> None:
        """Non-critical cleanup when the SUU handles a stack update.

        The SUU bulk-writes the *critical* metadata in hardware; monitors
        whose non-critical state references stack words (e.g. MemLeak's
        context map) reconcile it here at zero modelled cost — a documented
        simplification standing in for the paper's (unspecified) lazy
        cleanup of non-critical stack metadata.
        """

    def handle_high_level(self, event: HighLevelEvent) -> HandlerResult:
        """Software handler for malloc/free/taint-source/thread switches."""
        if event.kind is HighLevelKind.THREAD_SWITCH:
            self.current_thread = event.thread
            return HandlerResult(
                cost=self.costs.thread_switch, handler_class=HandlerClass.HIGH_LEVEL
            )
        if event.kind is HighLevelKind.PROGRAM_EXIT:
            for report in self.finalize():
                self._record(report)
            return HandlerResult(cost=0, handler_class=HandlerClass.HIGH_LEVEL)
        result = self._handle_memory_event(event)
        if event.startup:
            # Program-launch setup: functional effect only, amortised cost.
            return dataclasses.replace(result, cost=0)
        return result

    @abc.abstractmethod
    def _handle_memory_event(self, event: HighLevelEvent) -> HandlerResult:
        """Monitor-specific malloc/free/taint-source handling."""

    def finalize(self) -> List[BugReport]:
        """End-of-program analysis (e.g. leak detection); default: none."""
        return []

    def runtime_invariant_updates(self, event: HighLevelEvent) -> List[tuple]:
        """(inv_id, value) pairs to reprogram in FADE's INV RF for this
        high-level event (AtomCheck's per-thread access tags)."""
        return []


    # ---------------------------------------------------------------- helpers

    def _record(self, report: Optional[BugReport]) -> Optional[BugReport]:
        if report is not None:
            self.reports.append(report)
        return report

    def _result(
        self,
        cost: int,
        handler_class: HandlerClass,
        changed: bool = False,
        report: Optional[BugReport] = None,
    ) -> HandlerResult:
        self._record(report)
        if report is not None:
            cost += self.costs.report
        return HandlerResult(
            cost=cost,
            handler_class=handler_class,
            metadata_changed=changed,
            report=report,
        )
