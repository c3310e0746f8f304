"""Traces: the lazy item view, column fast paths, compact pickling and the
round trip from items to columns.

The load-bearing guarantee is the round trip: a trace rebuilt from its own
items has byte-identical columns, so it yields the same schedule and the
same :class:`RunResult`, and the kind tables and handler fields decoded
from the columns equal a classification done over the items.
"""

import functools
import gc
import pickle
import weakref

import pytest

from repro.api import ExperimentSettings, RunnerCache, RunSpec, execute_spec
from repro.cores import CoreType, RetireModel
from repro.isa.events import MonitoredEvent
from repro.isa.instruction import Instruction, Operand
from repro.isa.opcodes import OpClass
from repro.monitors import MONITOR_NAMES, create_monitor
from repro.monitors.base import Monitor
from repro.monitors.memleak import MemLeak
from repro.system import MonitoringSimulation, SystemConfig, Topology, simulate
from repro.system.simulator import (
    HIGH_LEVEL,
    INSTRUCTION_EVENT,
    SKIP,
    STACK_UPDATE,
    build_plan,
)
from repro.verify.oracle import result_digest
from repro.workload import Trace, benchmark_names, generate_trace, get_profile
from repro.workload.profiles import PARALLEL_BENCHMARKS
from repro.workload.trace import HighLevelEvent, HighLevelKind, event_fields


@functools.lru_cache(maxsize=None)
def generated(benchmark, n=1500, seed=11):
    return generate_trace(get_profile(benchmark), n, seed=seed)


def rebuilt(trace):
    """``trace`` built again from its items."""
    return Trace(list(trace.items), name=trace.name, seed=trace.seed)


def bench_for(monitor_name):
    return "water" if monitor_name == "atomcheck" else "astar"


class TestLazyView:
    def test_view_equals_object_items(self):
        trace = generated("astar")
        again = rebuilt(trace)
        assert trace.items == again.items
        assert again.items == list(trace.items)

    def test_indexing_and_slicing(self):
        trace = generated("astar")
        items = list(trace.items)
        assert trace.items[0] == items[0]
        assert trace.items[-1] == items[-1]
        assert trace[5] == items[5]
        assert trace.items[10:20] == items[10:20]

    def test_materialisation_is_cached(self):
        trace = generated("astar")
        assert trace.items[3] is trace.items[3]

    def test_counts(self):
        trace = generated("gcc")
        items = list(trace.items)
        assert len(trace) == len(items)
        assert trace.num_instructions == 1500
        half = len(trace) // 2
        assert trace.count_instructions(0, half) == sum(
            isinstance(item, Instruction) for item in items[:half]
        )

    def test_iterators_match(self):
        trace = generated("water")
        items = list(trace.items)
        assert list(trace.instructions()) == [
            item for item in items if isinstance(item, Instruction)
        ]
        assert list(trace.high_level_events()) == [
            item for item in items if isinstance(item, HighLevelEvent)
        ]

    def test_compact_pickle_round_trip(self):
        trace = generated("astar")
        clone = pickle.loads(pickle.dumps(trace))
        assert isinstance(clone, Trace)
        assert clone.items == trace.items
        assert clone.name == trace.name and clone.seed == trace.seed
        # The payload is one flat bytes blob (columns), not an object graph:
        # unpickling rebuilds views over it without reconstructing items.
        assert clone.column_bytes() == trace.column_bytes()


@pytest.mark.parametrize("name", benchmark_names())
def test_trace_built_from_its_items_is_the_same_trace(name):
    """Every built-in profile: ``Trace(items)`` packs a generated trace's
    items into byte-identical columns, and the rebuilt trace yields the
    same schedule and the same result digest."""
    profile = get_profile(name)
    trace = generated(name)
    again = rebuilt(trace)
    assert (again.name, again.seed) == (trace.name, trace.seed)
    assert again.column_bytes() == trace.column_bytes()
    model = RetireModel(
        core_type=CoreType.OOO4,
        bubble_prob=profile.bubble_prob,
        bubble_mean=profile.bubble_mean,
    )
    assert model.schedule(again) == model.schedule(trace)
    monitor = "atomcheck" if name in PARALLEL_BENCHMARKS else "memcheck"
    digests = {
        result_digest(
            simulate(source, create_monitor(monitor), SystemConfig(), profile)
        )
        for source in (trace, again)
    }
    assert len(digests) == 1


def _load(pc=0x400, thread=0):
    return Instruction(
        pc=pc,
        op_class=OpClass.LOAD,
        sources=(Operand.memory(0x1000),),
        dest=Operand.register(3),
        thread=thread,
    )


class TestItemsThatDoNotFit:
    """``Trace(items)`` names the item and the field a column cannot hold."""

    @pytest.mark.parametrize(
        "item, message",
        [
            (_load(thread=300), r"trace item 1 \(an Instruction\): thread=300"),
            (_load(pc=2**64), r"trace item 1 \(an Instruction\): pc=18446744073709551616"),
            (_load(pc=-1.5), r"trace item 1 \(an Instruction\): pc=-1.5"),
            (
                HighLevelEvent(HighLevelKind.MALLOC, 0x1000, 64, register=999),
                r"trace item 1 \(a HighLevelEvent\): register=999",
            ),
            (
                HighLevelEvent(HighLevelKind.FREE, address=0x1000, size=-(2**63) - 1),
                r"trace item 1 \(a HighLevelEvent\): size=-9223372036854775809",
            ),
        ],
    )
    def test_misfit_is_named(self, item, message):
        with pytest.raises(ValueError, match=message):
            Trace([_load(), item, _load()])

    def test_an_item_of_another_type_is_named(self):
        with pytest.raises(TypeError, match="trace item 1 is a str"):
            Trace([_load(), "load r3"])

    def test_the_extremes_of_each_column_fit(self):
        items = [
            _load(pc=2**63 - 1, thread=255),
            _load(pc=-(2**63), thread=0),
            HighLevelEvent(HighLevelKind.MALLOC, 0x1000, 64, register=255),
        ]
        assert list(Trace(items).items) == items


def reference_kinds(trace, monitor):
    """The kind table classified with ``monitor.wants`` over the items."""
    kinds = bytearray()
    for item in trace.items:
        if not isinstance(item, Instruction):
            kinds.append(HIGH_LEVEL)
        elif not monitor.wants(item):
            kinds.append(SKIP)
        elif item.op_class.is_stack_op:
            kinds.append(STACK_UPDATE)
        else:
            kinds.append(INSTRUCTION_EVENT)
    return bytes(kinds)


class TestColumnFastPaths:
    @pytest.mark.parametrize("monitor_name", MONITOR_NAMES)
    def test_plan_bit_identical(self, monitor_name):
        """The kind table built from the columns equals a classification
        done with ``monitor.wants`` over the items, counts included."""
        trace = generated(bench_for(monitor_name))
        expected = reference_kinds(trace, create_monitor(monitor_name))
        plan = build_plan(trace, create_monitor(monitor_name))
        assert plan.kinds == expected
        assert plan.monitored == expected.count(INSTRUCTION_EVENT)
        assert plan.stack_updates == expected.count(STACK_UPDATE)
        assert plan.high_level == expected.count(HIGH_LEVEL)

    @pytest.mark.parametrize("monitor_name", MONITOR_NAMES)
    def test_built_events_match_from_instruction(self, monitor_name):
        """The fields a handler takes and the stack updates the loop builds
        from the columns equal those of ``MonitoredEvent.from_instruction``."""
        trace = generated(bench_for(monitor_name))
        items = trace.items
        plan = build_plan(trace, create_monitor(monitor_name))
        lists = trace.column_lists()
        delivered = [
            index
            for index, kind in enumerate(plan.kinds)
            if kind in (INSTRUCTION_EVENT, STACK_UPDATE)
        ]
        assert delivered
        for index in delivered:
            event = MonitoredEvent.from_instruction(items[index], index)
            if plan.kinds[index] == STACK_UPDATE:
                assert trace.stack_update(index) == event.stack_update
            else:
                event_id, addr, src1, src2, dest = event_fields(lists, index)
                assert event == MonitoredEvent(
                    event_id, lists[0][index], addr, src1, src2, dest,
                    None, index,
                )

    def test_custom_wants_uses_generic_path(self):
        class EveryOtherLoad(MemLeak):
            def wants(self, instruction):
                return (
                    instruction.op_class is OpClass.LOAD
                    and instruction.pc % 8 == 0
                )

        trace = generated("astar")
        expected = reference_kinds(trace, EveryOtherLoad())
        stock = build_plan(trace, MemLeak())
        plan = build_plan(trace, EveryOtherLoad())
        assert plan.kinds == expected
        assert 0 < plan.monitored < stock.monitored
        result = simulate(
            trace, EveryOtherLoad(), SystemConfig(fade_enabled=False),
            get_profile("astar"),
        )
        assert result.monitored_events == plan.monitored

    @pytest.mark.parametrize("fade_enabled", [False, True])
    def test_built_in_monitors_build_no_events(self, monkeypatch, fade_enabled):
        """A built-in monitor's handlers take the fields the loop decodes
        from the columns: no cell builds a MonitoredEvent, and none runs
        through the ``handle_event`` adapter."""

        def refuse(*args, **kwargs):
            raise AssertionError("a MonitoredEvent was built")

        monkeypatch.setattr(MonitoredEvent, "__new__", refuse)
        monkeypatch.setattr(Monitor, "_fields_to_event", refuse)
        trace = generate_trace(get_profile("gcc"), 3000, seed=11)
        for engine in ("naive", "event"):
            sim = MonitoringSimulation(
                trace, create_monitor("memcheck"),
                SystemConfig(fade_enabled=fade_enabled, engine=engine),
                get_profile("gcc"), warmup_items=1000,
            )
            assert sim.run().handlers_executed > 0

    def test_finished_cell_frees_its_trace_without_the_cycle_collector(self):
        spec = RunSpec(
            "gcc", "memcheck", SystemConfig(),
            ExperimentSettings(num_instructions=2000, seed=17),
        )
        gc.collect()
        gc.disable()
        try:
            cache = RunnerCache()
            result = execute_spec(spec, cache)
            trace = weakref.ref(cache.trace(spec.benchmark, spec.settings))
            assert trace().items[0] is not None  # The lazy view exists.
            del cache, result
            assert trace() is None
        finally:
            gc.enable()


class TestSimulationBitIdentity:
    """Two paths write a trace's columns: the generator appends them
    directly, and ``Trace(items)`` packs them from ``Instruction`` and
    ``HighLevelEvent`` objects.  Both must drive every monitor, topology and
    engine to the same serialized :class:`RunResult`."""

    @pytest.mark.parametrize("engine", ["naive", "event"])
    @pytest.mark.parametrize(
        "topology", [Topology.SINGLE_CORE_SMT, Topology.TWO_CORE],
        ids=["smt", "two-core"],
    )
    @pytest.mark.parametrize("monitor_name", MONITOR_NAMES)
    def test_packed_vs_object_run_results(self, monitor_name, topology, engine):
        """Monitors x topologies x engines: the RunResult of a generated
        trace matches that of the trace packed from its item objects bit
        for bit."""
        benchmark = bench_for(monitor_name)
        profile = get_profile(benchmark)
        config = SystemConfig(topology=topology, engine=engine)
        trace = generated(benchmark)
        from_generator = simulate(
            trace, create_monitor(monitor_name), config, profile
        )
        from_objects = simulate(
            rebuilt(trace), create_monitor(monitor_name), config, profile
        )
        assert from_generator.to_dict() == from_objects.to_dict()

    def test_unaccelerated_matches_too(self):
        profile = get_profile("gcc")
        config = SystemConfig(fade_enabled=False)
        trace = generated("gcc")
        from_generator = simulate(
            trace, create_monitor("memcheck"), config, profile
        )
        from_objects = simulate(
            rebuilt(trace), create_monitor("memcheck"), config, profile
        )
        assert from_generator.to_dict() == from_objects.to_dict()
