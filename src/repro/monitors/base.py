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
import enum
from typing import Callable, List, NamedTuple, Optional

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

    def __new__(cls, value: str) -> "HandlerClass":
        member = object.__new__(cls)
        member._value_ = value
        #: Definition-order index: the simulator sums handler costs into a
        #: list indexed by it.
        member.slot = len(cls.__members__)
        return member

    #: Members are singletons, so identity is equality; the C-level object
    #: hash keeps dicts keyed by a class (the shared handler results) cheap.
    __hash__ = object.__hash__


class HandlerResult(NamedTuple):
    """Outcome of one software handler invocation.

    A ``NamedTuple``, so immutable: :meth:`Monitor._result` hands the same
    instance out for every outcome that carries no report."""

    cost: int  # Monitor-core instructions executed.
    handler_class: HandlerClass
    metadata_changed: bool = False
    report: Optional[BugReport] = None

    @property
    def is_noop(self) -> bool:
        """True if the handler neither changed metadata nor reported a bug
        — i.e. a filtering accelerator could have elided it."""
        return not self.metadata_changed and self.report is None


def _defining_class(cls: type, name: str) -> type:
    """The class in ``cls``'s MRO whose body defines ``name``."""
    return next(klass for klass in cls.__mro__ if name in vars(klass))


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
    #: the thread-private stack region).  Declarative so the column
    #: plan fast path can honour it without materialising instructions.
    wants_memory_below: Optional[int] = None

    def __init__(self, costs: HandlerCosts) -> None:
        self.costs = costs
        self.critical_regs = ShadowRegisters(default=self.register_default())
        self.critical_mem = ShadowMemory(default=self.memory_default())
        self.reports: List[BugReport] = []
        self.current_thread = 0
        #: Report-free outcomes by (cost, class, changed), built on first use.
        self._shared_results: dict = {}
        cls = type(self)
        if _defining_class(cls, "handle_event") is _defining_class(
            cls, "_handle_fields"
        ) is Monitor:
            raise TypeError(f"{cls.__name__} must override handle_event")

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

    def handle_event(
        self, event: MonitoredEvent, kind: HandlerKind = HandlerKind.FULL
    ) -> HandlerResult:
        """Software handler for one instruction event.

        ``kind`` is SHORT when FADE's partial check already succeeded (the
        handler skips the check it encodes); FULL otherwise.

        The one public entry point: a new monitor overrides this method.
        The built-in monitors implement :meth:`_handle_fields` instead, and
        this default unpacks the event into it.
        """
        return self._handle_fields(
            event.event_id, event.app_pc, event.app_addr, event.src1_reg,
            event.src2_reg, event.dest_reg, event.sequence, kind,
        )

    def _handle_fields(
        self, event_id: int, app_pc: int, app_addr: Optional[int],
        src1_reg: Optional[int], src2_reg: Optional[int],
        dest_reg: Optional[int], sequence: int, kind: HandlerKind,
    ) -> HandlerResult:
        """:meth:`handle_event` on the event's fields, which the simulator
        decodes from the trace columns without building the event.
        The built-in monitors implement their instruction handlers here."""
        raise NotImplementedError(
            f"{type(self).__name__} must override handle_event"
        )

    def _field_handler(self) -> Callable[..., HandlerResult]:
        """What the simulator calls with an instruction event's fields:
        :meth:`_handle_fields`, or the adapter :meth:`_fields_to_event`
        when ``handle_event`` is overridden below the class implementing
        :meth:`_handle_fields` (a third-party monitor, or a subclass of a
        built-in one) or patched on the instance."""
        cls = type(self)
        if "handle_event" not in vars(self) and issubclass(
            _defining_class(cls, "_handle_fields"),
            _defining_class(cls, "handle_event"),
        ):
            return self._handle_fields
        return self._fields_to_event

    def _fields_to_event(
        self, event_id: int, app_pc: int, app_addr: Optional[int],
        src1_reg: Optional[int], src2_reg: Optional[int],
        dest_reg: Optional[int], sequence: int, kind: HandlerKind,
    ) -> HandlerResult:
        """The adapter: pack the fields into the :class:`MonitoredEvent`
        that ``handle_event`` takes."""
        return self.handle_event(
            MonitoredEvent(
                event_id, app_pc, app_addr, src1_reg, src2_reg, dest_reg,
                None, sequence,
            ),
            kind,
        )

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
            return self._result(self.costs.thread_switch, HandlerClass.HIGH_LEVEL)
        if event.kind is HighLevelKind.PROGRAM_EXIT:
            for report in self.finalize():
                self._record(report)
            return self._result(0, HandlerClass.HIGH_LEVEL)
        result = self._handle_memory_event(event)
        if event.startup:
            # Program-launch setup: functional effect only, amortised cost.
            return result._replace(cost=0)
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
        if report is None:
            key = (cost, handler_class, changed)
            result = self._shared_results.get(key)
            if result is None:
                result = self._shared_results[key] = HandlerResult(
                    cost, handler_class, changed
                )
            return result
        self._record(report)
        return HandlerResult(
            cost + self.costs.report, handler_class, changed, report
        )
