"""Tests for the core timing models and retirement schedules."""

import hashlib
import struct

import pytest

from repro.cores import CORE_PARAMETERS, CoreType, RetireModel
from repro.cores.retire import app_alone_cycles
from repro.isa.instruction import Instruction
from repro.workload import Trace, generate_trace, get_profile


def schedule_for(benchmark="astar", core=CoreType.OOO4, n=3000, seed=3, bubbles=False):
    profile = get_profile(benchmark)
    trace = generate_trace(profile, n, seed=seed)
    model = RetireModel(
        core_type=core,
        bubble_prob=profile.bubble_prob if bubbles else 0.0,
        bubble_mean=profile.bubble_mean,
    )
    return trace, model.schedule(trace)


class TestCoreParameters:
    def test_table1_widths(self):
        assert CORE_PARAMETERS[CoreType.INORDER].width == 1
        assert CORE_PARAMETERS[CoreType.OOO2].width == 2
        assert CORE_PARAMETERS[CoreType.OOO4].width == 4

    def test_table1_robs(self):
        assert CORE_PARAMETERS[CoreType.OOO2].rob_entries == 48
        assert CORE_PARAMETERS[CoreType.OOO4].rob_entries == 96

    def test_handler_ipc_scales_roughly_3x(self):
        ratio = (
            CORE_PARAMETERS[CoreType.OOO4].handler_ipc
            / CORE_PARAMETERS[CoreType.INORDER].handler_ipc
        )
        assert 2.5 <= ratio <= 3.5  # Section 7.3: "up to 3x faster".


class TestRetireSchedule:
    def test_monotone_nondecreasing(self):
        _, schedule = schedule_for()
        assert all(b >= a for a, b in zip(schedule, schedule[1:]))

    def test_retire_width_respected(self):
        """No more than W instructions may retire in any single cycle."""
        trace, schedule = schedule_for(core=CoreType.OOO4)
        width = CORE_PARAMETERS[CoreType.OOO4].width
        instruction_times = [
            time
            for time, item in zip(schedule, trace)
            if isinstance(item, Instruction)
        ]
        from collections import Counter

        per_cycle = Counter(int(time) for time in instruction_times)
        assert max(per_cycle.values()) <= width

    def test_wider_core_is_no_slower(self):
        _, narrow = schedule_for(core=CoreType.INORDER)
        _, wide = schedule_for(core=CoreType.OOO4)
        assert app_alone_cycles(wide) <= app_alone_cycles(narrow)

    def test_ooo2_between_inorder_and_ooo4(self):
        _, inorder = schedule_for(core=CoreType.INORDER)
        _, ooo2 = schedule_for(core=CoreType.OOO2)
        _, ooo4 = schedule_for(core=CoreType.OOO4)
        assert app_alone_cycles(ooo4) <= app_alone_cycles(ooo2)
        assert app_alone_cycles(ooo2) <= app_alone_cycles(inorder)

    def test_deterministic(self):
        _, first = schedule_for(bubbles=True)
        _, second = schedule_for(bubbles=True)
        assert first == second

    def test_bubbles_slow_the_core(self):
        _, without = schedule_for(bubbles=False)
        _, with_bubbles = schedule_for(benchmark="gobmk", bubbles=True)
        _, gobmk_without = schedule_for(benchmark="gobmk", bubbles=False)
        assert app_alone_cycles(with_bubbles) > app_alone_cycles(gobmk_without)

    def test_high_level_events_ride_along(self):
        trace, schedule = schedule_for(benchmark="omnetpp")
        previous = 0.0
        for time, item in zip(schedule, trace):
            if not isinstance(item, Instruction):
                assert time == previous
            previous = time

    def test_mcf_is_memory_bound(self):
        """mcf's schedule must be far slower per instruction than hmmer's
        (the Figure 2 IPC spread)."""
        _, mcf = schedule_for(benchmark="mcf", n=4000)
        _, hmmer = schedule_for(benchmark="hmmer", n=4000)
        assert app_alone_cycles(mcf) > 2.5 * app_alone_cycles(hmmer)


#: (benchmark, core) -> SHA-256 of the little-endian doubles of the
#: schedule of a 2,000-instruction trace at seed 5, with the profile's
#: bubbles.  Recorded from the object-item loop that ``RetireModel`` kept
#: beside its column loop until both were one, when the two were
#: bit-identical; the column loop must still reproduce them.
SCHEDULE_DIGESTS = {
    ('astar', CoreType.INORDER): '7e2653a433be8b0c57ed479d5d1a4feb271f66ee6d001df4d4b797c600e598b2',
    ('astar', CoreType.OOO2): '9ba1f55bb5240c0739a0c1e9f16269e8201ab81eb674249fdc1b782f0ca6f7fd',
    ('astar', CoreType.OOO4): '8404109eca5090babfeec7fa35b68eed1379750acc0c323d54aa034ecf474232',
    ('gcc', CoreType.INORDER): '96430386da99b7daa86035f0f84a834160f65f8ab59e44ce490fdbefa4c9b0c2',
    ('gcc', CoreType.OOO2): '9f89a46c1865e419d3aa304ddd1a6ac4f2ca03d0d5e6c4fdaebed42441912d44',
    ('gcc', CoreType.OOO4): '9dafce8fb25d0945eaac07a95847bccd82ed7187ca0f63d050b26a0134a74ad9',
    ('mcf', CoreType.INORDER): '71e4d2bd042f233dd7e2de4eec42c270f4f42bc4889965c8db5d982a357c766e',
    ('mcf', CoreType.OOO2): '0e5850b54c00f608914fa8b3ec9e660d0346de7c0d31eac01d79433ff0af1b3c',
    ('mcf', CoreType.OOO4): '544608aa532064f388190ec00d56e2d7184b150015b70f26f645141a1bcb5d22',
    ('water', CoreType.INORDER): '9bbdec3d1647ea7f439ade49d1db1ef286de7b73727751ec13682f28a4b41c48',
    ('water', CoreType.OOO2): 'ab71cc875ef6afb0ba3f783396af8718d5dc356fa4862e4e02485bb61dcb2891',
    ('water', CoreType.OOO4): '00863e894f807ef6613c4722a12be64a63bb8e21914a178e920093d431ae6dca',
}


def schedule_digest(schedule) -> str:
    return hashlib.sha256(struct.pack(f"<{len(schedule)}d", *schedule)).hexdigest()


@pytest.mark.parametrize("bench,core", sorted(SCHEDULE_DIGESTS, key=str))
def test_schedule_digest(bench, core):
    """A generated trace and the trace built from its items both yield the
    pinned schedule."""
    profile = get_profile(bench)
    assert profile.bubble_prob > 0.0
    generated = generate_trace(profile, 2000, seed=5)
    rebuilt = Trace(list(generated.items), name=generated.name, seed=generated.seed)
    model = RetireModel(
        core_type=core,
        bubble_prob=profile.bubble_prob,
        bubble_mean=profile.bubble_mean,
    )
    expected = SCHEDULE_DIGESTS[(bench, core)]
    assert schedule_digest(model.schedule(generated)) == expected
    assert schedule_digest(model.schedule(rebuilt)) == expected
