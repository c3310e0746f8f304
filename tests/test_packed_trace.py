"""Packed traces: lazy-view compatibility, column fast paths and compact
pickling all reproduce the object representation exactly.

The load-bearing guarantee is bit-identity: a :class:`PackedTrace` and an
object :class:`Trace` holding the same items must yield byte-for-byte equal
kind tables, events and serialized :class:`RunResult`s across monitors x
topologies x engines.  (Retire schedules have one loop, which packs an
object trace first; ``tests/test_cores.py`` pins their digests.)
"""

import functools
import gc
import pickle
import weakref

import pytest

from repro.api import ExperimentSettings, RunnerCache, RunSpec, execute_spec
from repro.isa.events import MonitoredEvent
from repro.isa.instruction import Instruction
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
from repro.workload.packed import event_fields
from repro.workload import (
    PackedTrace,
    Trace,
    generate_trace,
    get_profile,
    pack_trace,
)
from repro.workload.trace import HighLevelEvent, HighLevelKind


@functools.lru_cache(maxsize=None)
def packed(benchmark, n=1500, seed=11):
    trace = generate_trace(get_profile(benchmark), n, seed=seed)
    assert isinstance(trace, PackedTrace)
    return trace


@functools.lru_cache(maxsize=None)
def as_objects(benchmark, n=1500, seed=11):
    """The equivalent object trace, via the lazy item view."""
    source = packed(benchmark, n, seed)
    return Trace(list(source.items), name=source.name, seed=source.seed)


def bench_for(monitor_name):
    return "water" if monitor_name == "atomcheck" else "astar"


class TestLazyView:
    def test_view_equals_object_items(self):
        trace = packed("astar")
        objects = as_objects("astar")
        assert trace.items == objects.items
        assert objects.items == list(trace.items)

    def test_indexing_and_slicing(self):
        trace = packed("astar")
        objects = as_objects("astar")
        assert trace.items[0] == objects.items[0]
        assert trace.items[-1] == objects.items[-1]
        assert trace[5] == objects.items[5]
        assert trace.items[10:20] == objects.items[10:20]

    def test_materialisation_is_cached(self):
        trace = packed("astar")
        assert trace.items[3] is trace.items[3]

    def test_counts(self):
        trace = packed("gcc")
        objects = as_objects("gcc")
        assert len(trace) == len(objects.items)
        assert trace.num_instructions == objects.num_instructions == 1500
        half = len(trace) // 2
        assert trace.count_instructions(0, half) == objects.count_instructions(
            0, half
        )

    def test_iterators_match(self):
        trace = packed("water")
        objects = as_objects("water")
        assert list(trace.instructions()) == list(objects.instructions())
        assert list(trace.high_level_events()) == list(
            objects.high_level_events()
        )

    def test_jsonl_round_trip(self):
        trace = packed("astar", 300, 9)
        restored = Trace.from_jsonl(trace.to_jsonl())
        assert trace.items == restored.items
        assert restored.name == trace.name and restored.seed == trace.seed

    def test_concat_materialises(self):
        first = packed("astar", 100, 1)
        second = packed("astar", 100, 2)
        combined = first.concat(second)
        assert len(combined) == len(first) + len(second)

    def test_extend_rejected(self):
        with pytest.raises(TypeError, match="immutable"):
            packed("astar").extend([HighLevelEvent(HighLevelKind.FREE)])

    def test_pack_trace_round_trip(self):
        objects = as_objects("water")
        repacked = pack_trace(objects)
        assert repacked.items == objects.items
        assert repacked.name == objects.name and repacked.seed == objects.seed

    def test_compact_pickle_round_trip(self):
        trace = packed("astar")
        clone = pickle.loads(pickle.dumps(trace))
        assert isinstance(clone, PackedTrace)
        assert clone.items == trace.items
        assert clone.name == trace.name and clone.seed == trace.seed
        # The payload is one flat bytes blob (columns), not an object graph:
        # unpickling rebuilds views over it without reconstructing items.
        assert clone.column_bytes() == trace.column_bytes()


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


def source_traces(benchmark):
    """A packed trace and ``pack_trace`` of the equivalent object trace."""
    return [packed(benchmark), pack_trace(as_objects(benchmark))]


class TestColumnFastPaths:
    @pytest.mark.parametrize("monitor_name", MONITOR_NAMES)
    def test_plan_bit_identical(self, monitor_name):
        """The kind table built from the columns (of a packed trace, of
        ``pack_trace`` of an object trace, and of an object trace, which
        ``build_plan`` packs) equals a classification done with
        ``monitor.wants`` over the items, counts included."""
        benchmark = bench_for(monitor_name)
        expected = reference_kinds(
            as_objects(benchmark), create_monitor(monitor_name)
        )
        for trace in source_traces(benchmark) + [as_objects(benchmark)]:
            plan = build_plan(trace, create_monitor(monitor_name))
            assert plan.kinds == expected
            assert plan.monitored == expected.count(INSTRUCTION_EVENT)
            assert plan.stack_updates == expected.count(STACK_UPDATE)
            assert plan.high_level == expected.count(HIGH_LEVEL)

    @pytest.mark.parametrize("monitor_name", MONITOR_NAMES)
    def test_built_events_match_from_instruction(self, monitor_name):
        """The fields a handler takes and the stack updates the loop builds
        from the columns equal those of ``MonitoredEvent.from_instruction``."""
        benchmark = bench_for(monitor_name)
        items = as_objects(benchmark).items
        for trace in source_traces(benchmark):
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

        expected = reference_kinds(as_objects("astar"), EveryOtherLoad())
        stock = build_plan(packed("astar"), MemLeak())
        for trace in source_traces("astar"):
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
    @pytest.mark.parametrize("engine", ["naive", "event"])
    @pytest.mark.parametrize(
        "topology", [Topology.SINGLE_CORE_SMT, Topology.TWO_CORE],
        ids=["smt", "two-core"],
    )
    @pytest.mark.parametrize("monitor_name", MONITOR_NAMES)
    def test_packed_vs_object_run_results(self, monitor_name, topology, engine):
        """Monitors x topologies x engines: the full serialized RunResult of
        a packed trace matches the object trace's bit for bit."""
        benchmark = bench_for(monitor_name)
        profile = get_profile(benchmark)
        config = SystemConfig(topology=topology, engine=engine)
        from_packed = simulate(
            packed(benchmark), create_monitor(monitor_name), config, profile
        )
        from_objects = simulate(
            as_objects(benchmark), create_monitor(monitor_name), config, profile
        )
        assert from_packed.to_dict() == from_objects.to_dict()

    def test_unaccelerated_matches_too(self):
        profile = get_profile("gcc")
        config = SystemConfig(fade_enabled=False)
        from_packed = simulate(
            packed("gcc"), create_monitor("memcheck"), config, profile
        )
        from_objects = simulate(
            as_objects("gcc"), create_monitor("memcheck"), config, profile
        )
        assert from_packed.to_dict() == from_objects.to_dict()
