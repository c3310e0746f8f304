"""Functional tests for the five monitors: metadata semantics, handler
classification, stack updates, and cleanliness on generated traces."""

import pytest

from repro.fade.pipeline import HandlerKind
from repro.isa.events import MonitoredEvent, StackOp, StackUpdate
from repro.isa.instruction import Instruction, Operand
from repro.isa.opcodes import OpClass, event_id_for
from repro.monitors import MONITOR_NAMES, create_monitor
from repro.monitors.atomcheck import access_tag, READ, WRITE
from repro.fade.programming import ProgramBuilder
from repro.monitors.base import HandlerClass, HandlerResult, Monitor
from repro.monitors.handlers import HandlerCosts
from repro.monitors.memcheck import DEFINED, INIT, UNALLOC, UNINIT, MemCheck
from repro.monitors.memleak import MemLeak
from repro.monitors.reports import BugKind, BugReport
from repro.system import SystemConfig
from repro.system.simulator import (
    HIGH_LEVEL,
    INSTRUCTION_EVENT,
    STACK_UPDATE,
    build_plan,
    simulate_warmed,
)
from repro.workload import bugs, generate_trace, get_profile
from repro.workload.trace import HighLevelEvent, HighLevelKind, event_fields


def malloc(address, size, register=1, startup=False):
    return HighLevelEvent(
        kind=HighLevelKind.MALLOC, address=address, size=size, register=register,
        startup=startup,
    )


def free(address, size):
    return HighLevelEvent(kind=HighLevelKind.FREE, address=address, size=size)


def load_event(addr, dest, pc=0x100):
    return MonitoredEvent(
        event_id=event_id_for(OpClass.LOAD, 1), app_pc=pc, app_addr=addr, dest_reg=dest
    )


def store_event(addr, src, pc=0x104):
    return MonitoredEvent(
        event_id=event_id_for(OpClass.STORE, 1), app_pc=pc, app_addr=addr, src1_reg=src
    )


def replay(monitor, trace):
    """Functionally replay a whole trace through a monitor's software path."""
    for index, item in enumerate(trace):
        if isinstance(item, HighLevelEvent):
            monitor.handle_high_level(item)
            continue
        if not monitor.wants(item):
            continue
        event = MonitoredEvent.from_instruction(item, index)
        if event.is_stack_update:
            monitor.handle_stack_update(event.stack_update)
        else:
            monitor.handle_event(event)
    return monitor


class TestAddrCheck:
    def test_clean_access_is_noop(self):
        monitor = create_monitor("addrcheck")
        monitor.handle_high_level(malloc(0x1000, 64))
        result = monitor.handle_event(load_event(0x1000, dest=2))
        assert result.is_noop
        assert result.handler_class is HandlerClass.CLEAN_CHECK

    def test_access_after_free_reports(self):
        monitor = create_monitor("addrcheck")
        monitor.handle_high_level(malloc(0x1000, 64))
        monitor.handle_high_level(free(0x1000, 64))
        result = monitor.handle_event(load_event(0x1000, dest=2))
        assert result.report is not None
        assert monitor.reports

    def test_critical_metadata_track_allocation(self):
        monitor = create_monitor("addrcheck")
        monitor.handle_high_level(malloc(0x1000, 8))
        assert monitor.critical_mem.read(0x1000) == 0x01
        monitor.handle_high_level(free(0x1000, 8))
        assert monitor.critical_mem.read(0x1000) == 0x00

    def test_stack_update_allocates_frame(self):
        monitor = create_monitor("addrcheck")
        update = StackUpdate(StackOp.CALL, frame_base=0x7FF0_0000, frame_size=32)
        result = monitor.handle_stack_update(update)
        assert result.handler_class is HandlerClass.STACK_UPDATE
        assert monitor.handle_event(load_event(0x7FF0_0000, dest=1)).is_noop

    def test_lazy_region_materializes_without_report(self):
        from repro.monitors.addrcheck import LAZY_REGION_START

        monitor = create_monitor("addrcheck")
        result = monitor.handle_event(load_event(LAZY_REGION_START + 64, dest=1))
        assert result.report is None
        assert result.metadata_changed


class TestMemCheck:
    def test_load_of_uninitialised_reports(self):
        monitor = create_monitor("memcheck")
        monitor.handle_high_level(malloc(0x1000, 64))
        result = monitor.handle_event(load_event(0x1000, dest=2))
        assert result.report is not None

    def test_store_then_load_is_clean(self):
        monitor = create_monitor("memcheck")
        monitor.handle_high_level(malloc(0x1000, 64))
        first_store = monitor.handle_event(store_event(0x1000, src=3))
        assert first_store.metadata_changed  # UNINIT -> INIT.
        assert monitor.handle_event(load_event(0x1000, dest=2)).is_noop

    def test_second_store_is_clean_check(self):
        monitor = create_monitor("memcheck")
        monitor.handle_high_level(malloc(0x1000, 64))
        monitor.handle_event(store_event(0x1000, src=3))
        result = monitor.handle_event(store_event(0x1000, src=4))
        assert result.handler_class is HandlerClass.CLEAN_CHECK

    def test_stack_update_encodings(self):
        monitor = create_monitor("memcheck")
        update = StackUpdate(StackOp.CALL, 0x7FF0_0000, 16)
        monitor.handle_stack_update(update)
        assert monitor.critical_mem.read(0x7FF0_0000) == UNINIT
        monitor.handle_stack_update(StackUpdate(StackOp.RETURN, 0x7FF0_0000, 16))
        assert monitor.critical_mem.read(0x7FF0_0000) == UNALLOC

    def test_startup_malloc_is_initialised(self):
        monitor = create_monitor("memcheck")
        monitor.handle_high_level(malloc(0x4000, 16, startup=True))
        assert monitor.critical_mem.read(0x4000) == INIT

    def test_and_encoding_is_definedness_meet(self):
        assert INIT & UNINIT == UNINIT
        assert DEFINED & DEFINED == DEFINED


class TestTaintCheck:
    def make_tainted(self, monitor, address=0x2000):
        monitor.handle_high_level(malloc(address, 64))
        monitor.handle_high_level(
            HighLevelEvent(
                kind=HighLevelKind.TAINT_SOURCE, address=address, size=64
            )
        )

    def test_taint_propagates_through_load(self):
        monitor = create_monitor("taintcheck")
        self.make_tainted(monitor)
        result = monitor.handle_event(load_event(0x2000, dest=5))
        assert result.metadata_changed
        assert monitor.critical_regs.read(5) == 0x01

    def test_tainted_branch_reports(self):
        monitor = create_monitor("taintcheck")
        self.make_tainted(monitor)
        monitor.handle_event(load_event(0x2000, dest=5))
        branch = MonitoredEvent(
            event_id=event_id_for(OpClass.BRANCH, 1), app_pc=0x50, src1_reg=5
        )
        result = monitor.handle_event(branch)
        assert result.report is not None

    def test_untainted_branch_is_clean(self):
        monitor = create_monitor("taintcheck")
        branch = MonitoredEvent(
            event_id=event_id_for(OpClass.BRANCH, 1), app_pc=0x50, src1_reg=5
        )
        assert monitor.handle_event(branch).is_noop

    def test_retainting_is_redundant(self):
        monitor = create_monitor("taintcheck")
        self.make_tainted(monitor)
        monitor.handle_event(load_event(0x2000, dest=5))
        result = monitor.handle_event(load_event(0x2000, dest=5))
        assert result.handler_class is HandlerClass.REDUNDANT_UPDATE
        assert result.is_noop

    def test_stack_update_clears_taint(self):
        monitor = create_monitor("taintcheck")
        self.make_tainted(monitor, address=0x7FF0_0000)
        monitor.handle_stack_update(StackUpdate(StackOp.RETURN, 0x7FF0_0000, 64))
        assert monitor.critical_mem.read(0x7FF0_0000) == 0x00


class TestMemLeak:
    def test_malloc_creates_context_with_one_reference(self):
        monitor = create_monitor("memleak")
        monitor.handle_high_level(malloc(0x3000, 64, register=2))
        assert monitor.critical_regs.read(2) == 0x01
        (context,) = monitor.contexts.values()
        assert context.refcount == 1

    def test_store_of_pointer_adds_reference(self):
        monitor = create_monitor("memleak")
        monitor.handle_high_level(malloc(0x3000, 64, register=2))
        monitor.handle_event(store_event(0x4000, src=2))
        (context,) = monitor.contexts.values()
        assert context.refcount == 2
        assert monitor.critical_mem.read(0x4000) == 0x01

    def test_overwriting_last_reference_leaks(self):
        monitor = create_monitor("memleak")
        monitor.handle_high_level(malloc(0x3000, 64, register=2))
        # Clobber the only reference with a non-pointer.
        move = MonitoredEvent(
            event_id=event_id_for(OpClass.MOVE, 1), app_pc=0, src1_reg=9, dest_reg=2
        )
        monitor.handle_event(move)
        leaks = monitor.finalize()
        assert len(leaks) == 1

    def test_freed_allocation_does_not_leak(self):
        monitor = create_monitor("memleak")
        monitor.handle_high_level(malloc(0x3000, 64, register=2))
        monitor.handle_high_level(free(0x3000, 64))
        assert monitor.finalize() == []

    def test_non_pointer_event_is_clean(self):
        monitor = create_monitor("memleak")
        monitor.handle_high_level(malloc(0x3000, 64, register=2))
        alu = MonitoredEvent(
            event_id=event_id_for(OpClass.ALU, 2), app_pc=0,
            src1_reg=10, src2_reg=11, dest_reg=12,
        )
        assert monitor.handle_event(alu).is_noop


class TestAtomCheck:
    def setup_word(self, monitor, word=0x3000_0000):
        monitor.handle_high_level(malloc(word, 64))
        return word

    def switch(self, monitor, thread):
        monitor.handle_high_level(
            HighLevelEvent(kind=HighLevelKind.THREAD_SWITCH, thread=thread)
        )

    def test_same_thread_same_type_is_noop(self):
        monitor = create_monitor("atomcheck")
        word = self.setup_word(monitor)
        monitor.handle_event(load_event(word, dest=1))
        assert monitor.handle_event(load_event(word, dest=2)).is_noop

    def test_critical_tag_encoding(self):
        monitor = create_monitor("atomcheck")
        word = self.setup_word(monitor)
        self.switch(monitor, 2)
        monitor.handle_event(store_event(word, src=1))
        assert monitor.critical_mem.read(word) == access_tag(2, WRITE)

    def test_unserialisable_interleaving_reports(self):
        monitor = create_monitor("atomcheck")
        word = self.setup_word(monitor)
        self.switch(monitor, 0)
        monitor.handle_event(load_event(word, dest=1))  # T0 reads.
        self.switch(monitor, 1)
        monitor.handle_event(store_event(word, src=2))  # T1 writes between.
        self.switch(monitor, 0)
        result = monitor.handle_event(load_event(word, dest=3))  # T0 reads.
        assert result.report is not None

    def test_serialisable_interleaving_is_silent(self):
        monitor = create_monitor("atomcheck")
        word = self.setup_word(monitor)
        self.switch(monitor, 0)
        monitor.handle_event(store_event(word, src=1))  # T0 writes.
        self.switch(monitor, 1)
        monitor.handle_event(load_event(word, dest=2))  # T1 reads after: WRR ok.
        self.switch(monitor, 0)
        result = monitor.handle_event(load_event(word, dest=3))
        assert result.report is None

    def test_short_handler_kind_reduces_cost(self):
        monitor = create_monitor("atomcheck")
        word = self.setup_word(monitor)
        monitor.handle_event(load_event(word, dest=1))
        short = monitor.handle_event(store_event(word, src=1), HandlerKind.SHORT)
        assert short.cost == monitor.costs.partial_short

    def test_stack_accesses_not_monitored(self):
        monitor = create_monitor("atomcheck")
        stack_load = Instruction(
            pc=0, op_class=OpClass.LOAD,
            sources=(Operand.memory(0x7FFE_0000),), dest=Operand.register(1),
        )
        assert not monitor.wants(stack_load)

    def test_runtime_invariants_follow_thread(self):
        monitor = create_monitor("atomcheck")
        updates = monitor.runtime_invariant_updates(
            HighLevelEvent(kind=HighLevelKind.THREAD_SWITCH, thread=3)
        )
        assert (monitor.READ_TAG_INV, access_tag(3, READ)) in updates
        assert (monitor.WRITE_TAG_INV, access_tag(3, WRITE)) in updates


class TestCleanTraces:
    """Generated traces are clean: no monitor may raise a (non-leak) report."""

    @pytest.mark.parametrize("monitor_name", ["addrcheck", "memcheck", "taintcheck"])
    @pytest.mark.parametrize("bench", ["astar", "omnetpp", "gcc"])
    def test_sequential_monitors_stay_silent(self, monitor_name, bench):
        trace = generate_trace(get_profile(bench), 4000, seed=11)
        monitor = replay(create_monitor(monitor_name), trace)
        assert monitor.reports == []

    def test_memleak_reports_only_leaks(self):
        from repro.monitors.reports import BugKind

        trace = generate_trace(get_profile("astar"), 4000, seed=11)
        monitor = replay(create_monitor("memleak"), trace)
        assert all(r.kind is BugKind.MEMORY_LEAK for r in monitor.reports)


class TestHandlerResult:
    """The record every handler returns, shared when it carries no report."""

    def test_keyword_construction_and_defaults(self):
        result = HandlerResult(cost=12, handler_class=HandlerClass.CLEAN_CHECK)
        assert result.cost == 12
        assert result.handler_class is HandlerClass.CLEAN_CHECK
        assert result.metadata_changed is False
        assert result.report is None

    def test_is_noop(self):
        report = BugReport(monitor="m", kind=BugKind.INVALID_READ, pc=4)
        assert HandlerResult(4, HandlerClass.CLEAN_CHECK).is_noop
        assert not HandlerResult(4, HandlerClass.UPDATE, True).is_noop
        assert not HandlerResult(4, HandlerClass.COMPLEX, report=report).is_noop

    def test_equality_is_by_field(self):
        assert HandlerResult(6, HandlerClass.UPDATE, True) == HandlerResult(
            cost=6, handler_class=HandlerClass.UPDATE, metadata_changed=True
        )
        assert HandlerResult(6, HandlerClass.UPDATE) != HandlerResult(
            6, HandlerClass.UPDATE, True
        )

    def test_report_free_results_are_shared_and_immutable(self):
        monitor = create_monitor("memcheck")
        first = monitor._result(13, HandlerClass.CLEAN_CHECK)
        assert monitor._result(13, HandlerClass.CLEAN_CHECK) is first
        assert monitor._result(13, HandlerClass.CLEAN_CHECK, True) is not first
        with pytest.raises(AttributeError):
            first.cost = 0
        assert monitor._result(13, HandlerClass.CLEAN_CHECK).cost == 13

    def test_a_report_builds_a_fresh_result(self):
        monitor = create_monitor("memcheck")
        report = BugReport(monitor="MemCheck", kind=BugKind.INVALID_READ, pc=4)
        result = monitor._result(30, HandlerClass.COMPLEX, report=report)
        assert result.cost == 30 + monitor.costs.report
        assert result.report is report
        assert monitor.reports == [report]

    def test_startup_event_costs_nothing_and_leaves_the_shared_result(self):
        monitor = create_monitor("addrcheck")
        timed = monitor.handle_high_level(malloc(0x1000_0000, 64))
        startup = monitor.handle_high_level(malloc(0x1000_0000, 64, startup=True))
        assert startup == timed._replace(cost=0)
        assert startup.cost == 0 and timed.cost > 0
        assert monitor.handle_high_level(malloc(0x1000_0000, 64)) is timed


def _entry_point_traces(monitor_name):
    """A seeded 2k trace of the monitor's suite plus the crafted bug trace
    it detects, so both clean and reporting handlers run."""
    crafted = {
        "addrcheck": bugs.use_after_free_trace,
        "memcheck": bugs.uninitialized_read_trace,
        "taintcheck": bugs.taint_exploit_trace,
        "memleak": bugs.memory_leak_trace,
        "atomcheck": bugs.atomicity_violation_trace,
    }[monitor_name]
    benchmark = "water" if monitor_name == "atomcheck" else "astar"
    return [
        generate_trace(get_profile(benchmark), 2000, seed=5),
        crafted(),
    ]


class TestEntryPoints:
    """The field-level handler the simulator calls and the public
    ``handle_event`` are one handler."""

    @pytest.mark.parametrize("monitor_name", MONITOR_NAMES)
    def test_fields_and_event_paths_agree(self, monitor_name):
        for trace in _entry_point_traces(monitor_name):
            by_fields = create_monitor(monitor_name)
            by_event = create_monitor(monitor_name)
            kinds = build_plan(trace, by_fields).kinds
            lists = trace.column_lists()
            handled = 0
            for index, kind in enumerate(kinds):
                if kind == INSTRUCTION_EVENT:
                    handler_kind = (
                        HandlerKind.SHORT if index % 3 == 0 else HandlerKind.FULL
                    )
                    event_id, addr, src1, src2, dest = event_fields(lists, index)
                    ours = by_fields._handle_fields(
                        event_id, lists[0][index], addr, src1, src2, dest,
                        index, handler_kind,
                    )
                    event = MonitoredEvent.from_instruction(
                        trace.items[index], sequence=index
                    )
                    theirs = by_event.handle_event(event, handler_kind)
                    handled += 1
                elif kind == STACK_UPDATE:
                    ours = by_fields.handle_stack_update(trace.stack_update(index))
                    theirs = by_event.handle_stack_update(
                        MonitoredEvent.from_instruction(
                            trace.items[index]
                        ).stack_update
                    )
                elif kind == HIGH_LEVEL:
                    ours = by_fields.handle_high_level(trace.items[index])
                    theirs = by_event.handle_high_level(trace.items[index])
                else:
                    continue
                assert ours == theirs, f"item {index}"
            assert handled
            assert by_fields.reports == by_event.reports
            assert by_fields.critical_regs.snapshot() == (
                by_event.critical_regs.snapshot()
            )
            assert by_fields.critical_mem.snapshot() == (
                by_event.critical_mem.snapshot()
            )
        assert by_fields.reports  # The crafted trace's bug was reported.


class DelegatingMemCheck(MemCheck):
    """A third-party-style monitor: overrides only ``handle_event`` (and
    records the events it receives), so it runs through the adapter."""

    def __init__(self):
        super().__init__()
        self.received = []

    def handle_event(self, event, kind=HandlerKind.FULL):
        self.received.append(event)
        return super().handle_event(event, kind)


class EventOnlyLeakCheck(MemLeak):
    """MemLeak with its instruction handler written against
    ``MonitoredEvent`` only, the way a monitor outside the package is."""

    def handle_event(self, event, kind=HandlerKind.FULL):
        if event.event_id == event_id_for(OpClass.LOAD, 1):
            context = self._word_context(event.app_addr)
            return self._propagation_result(
                context, self._set_reg_ctx(event.dest_reg, context)
            )
        if event.event_id == event_id_for(OpClass.STORE, 1):
            context = self._reg_context(event.src1_reg)
            return self._propagation_result(
                context, self._set_word_ctx(event.app_addr, context)
            )
        context = self._reg_context(event.src1_reg)
        if context is None:
            context = self._reg_context(event.src2_reg)
        return self._propagation_result(
            context, self._set_reg_ctx(event.dest_reg, context)
        )


class TestHandleEventAdapter:
    """A monitor that overrides only ``handle_event`` keeps working."""

    @pytest.mark.parametrize("fade_enabled", [False, True])
    @pytest.mark.parametrize(
        "monitor_class, stock", [(DelegatingMemCheck, MemCheck),
                                 (EventOnlyLeakCheck, MemLeak)],
    )
    def test_engines_agree_and_match_the_built_in(
        self, monitor_class, stock, fade_enabled
    ):
        trace = generate_trace(get_profile("astar"), 3000, seed=7)
        profile = get_profile("astar")
        results = {
            engine: simulate_warmed(
                trace, monitor_class(),
                SystemConfig(fade_enabled=fade_enabled, engine=engine),
                profile,
            )
            for engine in ("naive", "event")
        }
        assert results["naive"].to_dict() == results["event"].to_dict()
        assert results["naive"] == results["event"]
        assert results["event"].handlers_executed > 0
        built_in = simulate_warmed(
            trace, stock(), SystemConfig(fade_enabled=fade_enabled), profile
        )
        assert results["event"] == built_in

    def test_adapter_hands_over_the_trace_event(self):
        trace = generate_trace(get_profile("astar"), 3000, seed=7)
        monitor = DelegatingMemCheck()
        simulate_warmed(trace, monitor, SystemConfig(), get_profile("astar"))
        assert monitor.received
        for event in monitor.received:
            assert event == MonitoredEvent.from_instruction(
                trace.items[event.sequence], sequence=event.sequence
            )

    def test_handle_event_patched_on_an_instance_is_called(self):
        trace = generate_trace(get_profile("astar"), 3000, seed=7)
        monitor = MemCheck()
        received = []
        handle_event = monitor.handle_event

        def recording(event, kind=HandlerKind.FULL):
            received.append(event.sequence)
            return handle_event(event, kind)

        monitor.handle_event = recording
        result = simulate_warmed(
            trace, monitor, SystemConfig(fade_enabled=False), get_profile("astar")
        )
        assert len(received) > result.handlers_executed > 0

    def test_a_monitor_must_override_handle_event(self):
        class NoHandler(Monitor):
            def fade_program(self):
                return ProgramBuilder("NoHandler").build()

            def handle_stack_update(self, update):
                return self._result(0, HandlerClass.STACK_UPDATE)

            def _handle_memory_event(self, event):
                return self._result(0, HandlerClass.HIGH_LEVEL)

        with pytest.raises(TypeError, match="NoHandler must override handle_event"):
            NoHandler(HandlerCosts())
