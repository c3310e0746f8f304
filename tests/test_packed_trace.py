"""Packed traces: lazy-view compatibility, column fast paths and compact
pickling all reproduce the object representation exactly.

The load-bearing guarantee is bit-identity: a :class:`PackedTrace` and an
object :class:`Trace` holding the same items must yield byte-for-byte equal
retire schedules, delivery plans and serialized :class:`RunResult`s across
monitors x topologies x engines.
"""

import functools
import pickle

import pytest

from repro.cores.base import CoreType
from repro.cores.retire import RetireModel
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass
from repro.monitors import MONITOR_NAMES, create_monitor
from repro.monitors.memleak import MemLeak
from repro.system import SystemConfig, Topology, simulate
from repro.system.simulator import build_plan
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


class TestColumnFastPaths:
    @pytest.mark.parametrize("core", [CoreType.INORDER, CoreType.OOO4])
    @pytest.mark.parametrize("bench", ["astar", "gcc", "water"])
    def test_schedule_bit_identical(self, bench, core):
        profile = get_profile(bench)
        model = RetireModel(
            core_type=core,
            bubble_prob=profile.bubble_prob,
            bubble_mean=profile.bubble_mean,
        )
        assert model.schedule(packed(bench)) == model.schedule(
            as_objects(bench)
        )

    @pytest.mark.parametrize("monitor_name", MONITOR_NAMES)
    def test_plan_bit_identical(self, monitor_name):
        benchmark = bench_for(monitor_name)
        fast = build_plan(packed(benchmark), create_monitor(monitor_name))
        generic = build_plan(as_objects(benchmark), create_monitor(monitor_name))
        assert fast.monitored == generic.monitored
        assert fast.stack_updates == generic.stack_updates
        assert fast.high_level == generic.high_level
        assert len(fast.items) == len(generic.items)
        for fast_item, generic_item in zip(fast.items, generic.items):
            if generic_item is None:
                assert fast_item is None
            else:
                assert fast_item.kind == generic_item.kind
                assert fast_item.payload == generic_item.payload
                assert fast_item.sequence == generic_item.sequence

    def test_custom_wants_uses_generic_path(self):
        class EveryOtherLoad(MemLeak):
            def wants(self, instruction):
                return (
                    instruction.op_class is OpClass.LOAD
                    and instruction.pc % 8 == 0
                )

        fast = build_plan(packed("astar"), EveryOtherLoad())
        generic = build_plan(as_objects("astar"), EveryOtherLoad())
        assert fast.monitored == generic.monitored > 0
        for fast_item, generic_item in zip(fast.items, generic.items):
            assert (fast_item is None) == (generic_item is None)
            if fast_item is not None:
                assert fast_item.payload == generic_item.payload


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
