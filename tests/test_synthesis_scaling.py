"""Trace synthesis costs what the trace costs.

* **Memory.** Generating a trace allocates in proportion to its length,
  never to the profile's hot set (mcf's is 131,072 words), and a fresh
  cache hierarchy holds no per-set objects until it is accessed.
* **Disjoint address segments.** The generator tracks initialised words
  only on the heap, because only heap picks test them (DESIGN.md §6,
  "Trace synthesis hot loop").  That is exact only while no heap word can
  equal a global (hot or stream), fresh, shared or stack word, so the
  segments must stay apart at every trace length the suite, the fuzzer
  and CI generate.
"""

import tracemalloc
from random import Random

import pytest

from repro.common.units import WORD_SIZE
from repro.isa.opcodes import OpClass
from repro.mem import MemoryHierarchy
from repro.verify.fuzz import MAX_INSTRUCTIONS, REGIME_SAMPLERS
from repro.workload import BenchmarkProfile, TraceGenerator, get_profile
from repro.workload.generator import (
    FRESH_BASE,
    GLOBAL_BASE,
    SHARED_BASE,
    STREAM_REGION_BYTES,
)
from repro.workload.heap import HEAP_BASE
from repro.workload.trace import KIND_INSTRUCTION, OP_INDEX
from repro.workload.profiles import PARALLEL_BENCHMARKS, SPEC_BENCHMARKS
from repro.workload.stack import STACK_TOP

BUILTIN_PROFILES = SPEC_BENCHMARKS + PARALLEL_BENCHMARKS

#: Synthesis of a 2,000-instruction trace must peak below this.
PEAK_BYTES = 1_000_000

#: The longest trace CI synthesizes (``repro run``'s default ``-n``, which
#: CI's trace-store step runs).
CLI_INSTRUCTIONS = 20_000


@pytest.mark.parametrize("name", BUILTIN_PROFILES)
def test_synthesis_peak_memory_is_bounded(name):
    profile = get_profile(name)
    tracemalloc.start()
    try:
        TraceGenerator(profile, seed=1).generate(2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BYTES, f"{name}: peak {peak} bytes"


def test_fresh_hierarchy_holds_no_sets():
    hierarchy = MemoryHierarchy()
    assert hierarchy.l1._sets == {} and hierarchy.l2._sets == {}
    hierarchy.load_latency(0x1234)
    assert len(hierarchy.l1._sets) == len(hierarchy.l2._sets) == 1


def assert_segments_apart(profile, num_instructions, seed):
    """global < heap < fresh < shared < stack, with no overlap."""
    generator = TraceGenerator(profile, seed=seed)
    trace = generator.generate(num_instructions)
    lists = trace.column_lists()
    call = OP_INDEX[OpClass.CALL]
    frame_bases = [
        base
        for base, kind, op in zip(lists[4], lists[6], lists[7])
        if kind == KIND_INSTRUCTION and op == call
    ]
    global_end = (
        GLOBAL_BASE + profile.hot_set_words * WORD_SIZE + STREAM_REGION_BYTES
    )
    heap_high = generator._heap._next_address  # The heap's high-water mark.
    fresh_high = generator._fresh_cursor
    shared_end = SHARED_BASE + profile.shared_words * WORD_SIZE
    stack_low = min(frame_bases)
    assert global_end <= HEAP_BASE <= heap_high <= FRESH_BASE, profile.name
    assert FRESH_BASE <= fresh_high < SHARED_BASE, profile.name
    assert shared_end <= stack_low < STACK_TOP, profile.name


@pytest.mark.parametrize("name", BUILTIN_PROFILES)
def test_builtin_profile_segments_are_apart(name):
    assert_segments_apart(get_profile(name), CLI_INSTRUCTIONS, seed=7)


@pytest.mark.parametrize("regime", sorted(REGIME_SAMPLERS))
def test_fuzzer_regime_segments_are_apart(regime):
    fields, _, _ = REGIME_SAMPLERS[regime](Random(0))
    profile = BenchmarkProfile(name=f"segments/{regime}", **fields)
    assert_segments_apart(profile, MAX_INSTRUCTIONS, seed=3)
