"""Retirement-schedule computation.

A width/ROB-limited in-order-retire model: each instruction dispatches at
most ``width`` per cycle into a ROB, completes after an execute latency
(loads walk the real L1/L2/DRAM hierarchy, so locality shapes the schedule),
and retires in order, at most ``width`` per cycle.  Serialising dependences
(``depends_on_prev``, set by the workload generator) and front-end bubbles
throttle ILP.

The output is the *unobstructed* retirement time of every trace item in
fractional cycles.  The system simulator replays this schedule against
monitoring backpressure: stalls uniformly shift the remainder of the
schedule, which is exact for in-order retirement — a full ROB simply holds
its contents while the head cannot retire.

Bubbles are derived from a deterministic hash of the item index so that a
(trace, core) pair always yields the same schedule.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.cores.base import CORE_PARAMETERS, CoreParameters, CoreType
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.workload.packed import (
    DEPENDS_BIT,
    DEST_SHIFT,
    KIND_INSTRUCTION,
    OP_CLASSES,
    OP_INDEX,
    OPERAND_MEMORY,
    SRC2_SHIFT,
    PackedTrace,
)
from repro.workload.trace import Trace

#: Execute latencies by op class (cycles); loads come from the hierarchy.
_EXEC_LATENCY = {
    OpClass.STORE: 1,  # Retirement does not wait on the store completing.
    OpClass.ALU: 1,
    OpClass.MOVE: 1,
    OpClass.FP: 3,
    OpClass.BRANCH: 1,
    OpClass.CALL: 1,
    OpClass.RETURN: 1,
    OpClass.NOP: 1,
}

_HASH_MULTIPLIER = 2654435761  # Knuth multiplicative hash.

#: Execute latencies indexed by packed op-class code (loads resolved via the
#: hierarchy; the LOAD slot is a placeholder).
_EXEC_LATENCY_BY_CODE = tuple(
    float(_EXEC_LATENCY.get(op, 1)) for op in OP_CLASSES
)
_LOAD_CODE = OP_INDEX[OpClass.LOAD]
_STORE_CODE = OP_INDEX[OpClass.STORE]


def _bubble_gap(index: int, seed: int, probability: float, mean: float) -> float:
    """Deterministic pseudo-random front-end bubble at dispatch."""
    if probability <= 0.0:
        return 0.0
    h = ((index + 1) * _HASH_MULTIPLIER ^ seed) & 0xFFFFFFFF
    if (h % 10_000) >= probability * 10_000:
        return 0.0
    # Second hash draws the bubble length around the mean.
    h2 = (h * _HASH_MULTIPLIER) & 0xFFFFFFFF
    return 1.0 + (h2 % int(2 * mean * 100)) / 100.0


@dataclasses.dataclass
class RetireModel:
    """Schedule computation for one (trace, core) pair."""

    core_type: CoreType
    bubble_prob: float = 0.0
    bubble_mean: float = 6.0
    hierarchy_config: HierarchyConfig = dataclasses.field(default_factory=HierarchyConfig)

    def schedule(self, trace: Trace) -> List[float]:
        """Unobstructed retirement time (fractional cycles) per trace item."""
        if isinstance(trace, PackedTrace):
            # Column fast path: identical float math over the packed columns,
            # no per-item object materialisation (tested bit-identical).
            return self._schedule_packed(trace)
        params: CoreParameters = CORE_PARAMETERS[self.core_type]
        hierarchy = MemoryHierarchy(self.hierarchy_config)
        interval = 1.0 / params.width
        rob = params.rob_entries
        seed = trace.seed & 0xFFFFFFFF

        times: List[float] = []
        retire_ring: List[float] = [0.0] * rob  # Retire time, i mod rob.
        last_dispatch = 0.0
        chain_complete = 0.0  # Completion of the program's critical path.
        last_retire = 0.0
        instruction_index = 0

        # Hot loop: one iteration per trace item, so the per-item lookups
        # (bound methods, enum members, the latency table) are hoisted.
        append = times.append
        load_latency = hierarchy.load_latency
        store_latency = hierarchy.store_latency
        exec_latency = _EXEC_LATENCY
        load_op = OpClass.LOAD
        store_op = OpClass.STORE
        bubble_prob = self.bubble_prob
        bubble_mean = self.bubble_mean
        has_bubbles = bubble_prob > 0.0

        for item in trace:
            if not isinstance(item, Instruction):
                # High-level events ride along with the previous instruction.
                append(last_retire)
                continue

            dispatch = last_dispatch + interval
            # ROB space: the (i - rob)-th instruction must have retired.
            if instruction_index >= rob:
                ring_slot = retire_ring[instruction_index % rob]
                if ring_slot > dispatch:
                    dispatch = ring_slot
            if has_bubbles:
                dispatch += _bubble_gap(
                    instruction_index, seed, bubble_prob, bubble_mean
                )

            op_class = item.op_class
            if op_class is load_op:
                latency = float(load_latency(item.memory_address))
            else:
                latency = float(exec_latency[op_class])
                if op_class is store_op:
                    store_latency(item.memory_address)

            # Dependent instructions extend the program's critical path: a
            # monotone chain of completions (value -> address -> value ...),
            # which is what serialises pointer-chasing codes regardless of
            # how many independent instructions the OoO core overlaps.
            if item.depends_on_prev:
                start = dispatch if dispatch > chain_complete else chain_complete
                complete = start + latency
                chain_complete = complete
            else:
                complete = dispatch + latency
            floor = last_retire + interval
            retire = complete if complete > floor else floor

            append(retire)
            retire_ring[instruction_index % rob] = retire
            last_dispatch = dispatch
            last_retire = retire
            instruction_index += 1

        return times

    def _schedule_packed(self, trace: PackedTrace) -> List[float]:
        """The reference loop reading packed columns instead of objects.

        Every arithmetic step matches :meth:`schedule`'s object loop
        operation for operation, so the resulting schedule is bit-identical
        (asserted by tests/test_packed_trace.py).
        """
        params: CoreParameters = CORE_PARAMETERS[self.core_type]
        hierarchy = MemoryHierarchy(self.hierarchy_config)
        interval = 1.0 / params.width
        rob = params.rob_entries
        seed = trace.seed & 0xFFFFFFFF

        times: List[float] = []
        retire_ring: List[float] = [0.0] * rob
        last_dispatch = 0.0
        chain_complete = 0.0
        last_retire = 0.0
        instruction_index = 0

        append = times.append
        load_latency = hierarchy.load_latency
        store_latency = hierarchy.store_latency
        latency_by_code = _EXEC_LATENCY_BY_CODE
        load_code = _LOAD_CODE
        store_code = _STORE_CODE
        memory_kind = OPERAND_MEMORY
        # _bubble_gap's hash arithmetic, inlined with its per-model
        # constants hoisted (a no-bubble item adds nothing: x + 0.0 == x).
        has_bubbles = self.bubble_prob > 0.0
        bubble_threshold = self.bubble_prob * 10_000
        bubble_span = int(2 * self.bubble_mean * 100) if has_bubbles else 0
        multiplier = _HASH_MULTIPLIER

        f0, f1, f2, f3, f4, f5, kind_column, op_column, flags_column, _ = (
            trace.column_lists()
        )

        for index, kind, op_code, flags in zip(
            range(len(trace)), kind_column, op_column, flags_column
        ):
            if kind != KIND_INSTRUCTION:
                # High-level events ride along with the previous instruction.
                append(last_retire)
                continue

            dispatch = last_dispatch + interval
            if instruction_index >= rob:
                ring_slot = retire_ring[instruction_index % rob]
                if ring_slot > dispatch:
                    dispatch = ring_slot
            if has_bubbles:
                h = ((instruction_index + 1) * multiplier ^ seed) & 0xFFFFFFFF
                if (h % 10_000) < bubble_threshold:
                    h2 = (h * multiplier) & 0xFFFFFFFF
                    dispatch += 1.0 + (h2 % bubble_span) / 100.0

            if op_code == load_code or op_code == store_code:
                # item.memory_address scans sources then dest; mirror it.
                if flags & 3 == memory_kind:
                    address = f1[index]
                elif (flags >> SRC2_SHIFT) & 3 == memory_kind:
                    address = f2[index]
                elif (flags >> DEST_SHIFT) & 3 == memory_kind:
                    address = f3[index]
                else:
                    address = None
                if op_code == load_code:
                    latency = float(load_latency(address))
                else:
                    latency = latency_by_code[op_code]
                    store_latency(address)
            else:
                latency = latency_by_code[op_code]

            if flags & DEPENDS_BIT:
                start = dispatch if dispatch > chain_complete else chain_complete
                complete = start + latency
                chain_complete = complete
            else:
                complete = dispatch + latency
            floor = last_retire + interval
            retire = complete if complete > floor else floor

            append(retire)
            retire_ring[instruction_index % rob] = retire
            last_dispatch = dispatch
            last_retire = retire
            instruction_index += 1

        return times


def compute_retire_schedule(
    trace: Trace,
    core_type: CoreType,
    bubble_prob: float = 0.0,
    bubble_mean: float = 6.0,
    hierarchy_config: Optional[HierarchyConfig] = None,
) -> List[float]:
    """Convenience wrapper around :class:`RetireModel`."""
    model = RetireModel(
        core_type=core_type,
        bubble_prob=bubble_prob,
        bubble_mean=bubble_mean,
        hierarchy_config=hierarchy_config or HierarchyConfig(),
    )
    return model.schedule(trace)


def app_alone_cycles(schedule: Sequence[float]) -> float:
    """Run time of the unmonitored application (the Figure 9 baseline)."""
    if not schedule:
        return 0.0
    return schedule[-1]
