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
from repro.isa.opcodes import OpClass
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.workload.trace import (
    DEPENDS_BIT,
    KIND_INSTRUCTION,
    MEMORY_SLOT,
    OP_CLASSES,
    OP_INDEX,
    Trace,
)

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

#: Execute latencies indexed by op-class code (loads resolved via the
#: hierarchy; the LOAD slot is a placeholder).
_EXEC_LATENCY_BY_CODE = tuple(
    float(_EXEC_LATENCY.get(op, 1)) for op in OP_CLASSES
)
_LOAD_CODE = OP_INDEX[OpClass.LOAD]
_STORE_CODE = OP_INDEX[OpClass.STORE]


@dataclasses.dataclass
class RetireModel:
    """Schedule computation for one (trace, core) pair."""

    core_type: CoreType
    bubble_prob: float = 0.0
    bubble_mean: float = 6.0
    hierarchy_config: HierarchyConfig = dataclasses.field(default_factory=HierarchyConfig)

    def schedule(self, trace: Trace) -> List[float]:
        """Unobstructed retirement time (fractional cycles) per trace item.

        One loop over the trace columns (``tests/test_cores.py`` pins the
        schedules' digests).
        """
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
        # (bound methods, the latency table, constants) are hoisted.
        append = times.append
        load_latency = hierarchy.load_latency
        store_latency = hierarchy.store_latency
        latency_by_code = _EXEC_LATENCY_BY_CODE
        load_code = _LOAD_CODE
        store_code = _STORE_CODE
        memory_slot = MEMORY_SLOT
        # Front-end bubbles at dispatch: a Knuth multiplicative hash of the
        # instruction index decides whether one occurs, and a second hash
        # draws its length around the mean.
        has_bubbles = self.bubble_prob > 0.0
        bubble_threshold = self.bubble_prob * 10_000
        bubble_span = int(2 * self.bubble_mean * 100) if has_bubbles else 0
        multiplier = _HASH_MULTIPLIER

        lists = trace.column_lists()
        kind_column, op_column, flags_column = lists[6:9]

        for index, kind, op_code, flags in zip(
            range(len(trace)), kind_column, op_column, flags_column
        ):
            if kind != KIND_INSTRUCTION:
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
                h = ((instruction_index + 1) * multiplier ^ seed) & 0xFFFFFFFF
                if (h % 10_000) < bubble_threshold:
                    h2 = (h * multiplier) & 0xFFFFFFFF
                    dispatch += 1.0 + (h2 % bubble_span) / 100.0

            if op_code == load_code or op_code == store_code:
                slot = memory_slot[flags]
                address = lists[slot][index] if slot else None
                if op_code == load_code:
                    latency = float(load_latency(address))
                else:
                    latency = latency_by_code[op_code]
                    store_latency(address)
            else:
                latency = latency_by_code[op_code]

            # Dependent instructions extend the program's critical path: a
            # monotone chain of completions (value -> address -> value ...),
            # which is what serialises pointer-chasing codes regardless of
            # how many independent instructions the OoO core overlaps.
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
