"""Tests for the workload substrate: profiles, heap/stack models, generator
determinism and cleanliness."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng
from repro.common.units import WORD_SIZE
from repro.isa.opcodes import OpClass
from repro.workload import (
    BenchmarkProfile,
    HeapModel,
    benchmark_names,
    generate_trace,
    get_profile,
)
from repro.workload.generator import POINTER_REG_MAX
from repro.workload.profiles import PARALLEL_BENCHMARKS, SPEC_BENCHMARKS
from repro.workload.stack import CallStackModel
from repro.workload.trace import HighLevelEvent, HighLevelKind


class TestProfiles:
    def test_all_registered_profiles_are_valid(self):
        for name in benchmark_names():
            profile = get_profile(name)
            assert profile.mix_total > 0
            assert 0 < profile.load_weight + profile.store_weight < profile.mix_total

    def test_unknown_profile_raises(self):
        with pytest.raises(ConfigurationError):
            get_profile("not-a-benchmark")

    def test_parallel_profiles_have_threads(self):
        for name in PARALLEL_BENCHMARKS:
            profile = get_profile(name)
            assert profile.parallel and profile.num_threads == 4

    def test_sequential_profiles_are_single_threaded(self):
        for name in SPEC_BENCHMARKS:
            assert not get_profile(name).parallel

    def test_probability_fields_validated(self):
        with pytest.raises(ConfigurationError):
            BenchmarkProfile(name="bad", locality=1.5)

    def test_parallel_needs_time_slice(self):
        with pytest.raises(ConfigurationError):
            BenchmarkProfile(
                name="bad", parallel=True, num_threads=4, thread_switch_period=0
            )


class TestHeapModel:
    def test_malloc_free_reuse(self):
        heap = HeapModel(DeterministicRng(1))
        first = heap.malloc(64)
        heap.free(first)
        second = heap.malloc(32)
        assert second.base == first.base  # Freed space is reused.

    def test_live_accounting(self):
        heap = HeapModel(DeterministicRng(1))
        heap.malloc(64)
        heap.malloc(128)
        assert sum(allocation.size for allocation in heap.live) == 192
        heap.free_random()
        assert heap.total_freed == 1

    def test_word_alignment(self):
        heap = HeapModel(DeterministicRng(1))
        allocation = heap.malloc(5)
        assert allocation.size % WORD_SIZE == 0

    def test_free_random_on_empty_heap(self):
        assert HeapModel(DeterministicRng(1)).free_random() is None


class TestCallStackModel:
    def test_grows_down(self):
        stack = CallStackModel(DeterministicRng(1))
        outer = stack.call(64)
        inner = stack.call(64)
        assert inner.base < outer.base

    def test_return_restores_pointer(self):
        stack = CallStackModel(DeterministicRng(1))
        outer = stack.call(64)
        stack.call(32)
        stack.ret()
        again = stack.call(32)
        assert again.base == outer.base - 32

    def test_depth_bound(self):
        stack = CallStackModel(DeterministicRng(1), max_depth=2)
        stack.call(16)
        stack.call(16)
        assert not stack.can_call
        assert stack.can_return


class TestGenerator:
    def test_deterministic_for_same_seed(self):
        first = generate_trace(get_profile("astar"), 2000, seed=3)
        second = generate_trace(get_profile("astar"), 2000, seed=3)
        assert first.items == second.items

    def test_different_seeds_differ(self):
        first = generate_trace(get_profile("astar"), 2000, seed=3)
        second = generate_trace(get_profile("astar"), 2000, seed=4)
        assert first.items != second.items

    def test_exact_instruction_count(self):
        trace = generate_trace(get_profile("gcc"), 1500, seed=1)
        assert trace.num_instructions == 1500

    def test_ends_with_program_exit(self):
        trace = generate_trace(get_profile("gcc"), 500, seed=1)
        last = trace.items[-1]
        assert isinstance(last, HighLevelEvent)
        assert last.kind is HighLevelKind.PROGRAM_EXIT

    def test_startup_events_are_marked(self):
        trace = generate_trace(get_profile("astar"), 500, seed=1)
        first = trace.items[0]
        assert first.kind is HighLevelKind.MALLOC and first.startup

    def test_calls_and_returns_balance_within_depth(self):
        trace = generate_trace(get_profile("gcc"), 5000, seed=2)
        depth = 0
        for instruction in trace.instructions():
            if instruction.op_class is OpClass.CALL:
                depth += 1
            elif instruction.op_class is OpClass.RETURN:
                depth -= 1
            assert depth >= 0

    def test_mix_roughly_matches_profile(self):
        profile = get_profile("bzip")
        trace = generate_trace(profile, 20_000, seed=5)
        loads = sum(1 for i in trace.instructions() if i.op_class is OpClass.LOAD)
        expected = profile.load_weight / profile.mix_total
        assert abs(loads / 20_000 - expected) < 0.05

    def test_parallel_trace_has_thread_switches(self):
        trace = generate_trace(get_profile("water"), 12_000, seed=1)
        switches = [
            event
            for event in trace.high_level_events()
            if event.kind is HighLevelKind.THREAD_SWITCH
        ]
        assert len(switches) >= 2
        threads = {instruction.thread for instruction in trace.instructions()}
        assert threads == {0, 1, 2, 3}

    def test_sequential_trace_is_single_threaded(self):
        trace = generate_trace(get_profile("astar"), 2000, seed=1)
        assert all(i.thread == 0 for i in trace.instructions())

    def test_malloc_register_is_in_pointer_partition(self):
        trace = generate_trace(get_profile("omnetpp"), 8000, seed=1)
        for event in trace.high_level_events():
            if event.kind is HighLevelKind.MALLOC and not event.startup:
                assert 1 <= event.register <= POINTER_REG_MAX

    def test_fp_instructions_have_no_destination(self):
        trace = generate_trace(get_profile("water"), 4000, seed=1)
        for instruction in trace.instructions():
            if instruction.op_class is OpClass.FP:
                assert instruction.dest is None
