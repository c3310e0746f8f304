"""The assembled FADE accelerator.

Composes the filtering pipeline, the Stack-Update Unit, the FSQ, the MD
cache and the programmed tables into the unit the system model instantiates
next to the monitor core.  The accelerator is purely reactive: the system
simulator drives it with events and accounts for queueing and stalls; this
class owns the functional decisions and per-event latencies.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.common.errors import ConfigurationError
from repro.fade.event_table import EventTable
from repro.fade.fsq import FilterStoreQueue
from repro.fade.inv_rf import InvariantRegisterFile
from repro.fade.md_cache import MetadataCache, MetadataCacheConfig
from repro.fade.pipeline import EventOutcome, FilteringPipeline, HandlerKind
from repro.fade.programming import FadeProgram
from repro.fade.suu import StackUpdateUnit
from repro.isa.events import MonitoredEvent, StackUpdate
from repro.metadata.shadow import ShadowMemory, ShadowRegisters


@dataclasses.dataclass(frozen=True)
class FadeConfig:
    """Accelerator configuration (Section 6 defaults).

    ``filter_memo`` enables the pipeline's value-keyed memo of filtered
    outcomes — a pure software-speed optimisation with bit-identical
    results.  The simulator disables it for the naive reference engine (so
    engine-equivalence tests compare memoized against truly inline walks)
    and under ``REPRO_FORCE_INLINE_FADE=1``.
    """

    non_blocking: bool = True
    fsq_capacity: int = 16
    md_cache: MetadataCacheConfig = MetadataCacheConfig()
    filter_memo: bool = True


@dataclasses.dataclass
class FadeStats:
    """Lifetime filtering statistics."""

    instruction_events: int = 0
    filtered: int = 0
    partial_short: int = 0
    unfiltered_full: int = 0
    stack_updates: int = 0
    tlb_misses: int = 0
    md_updates_committed: int = 0
    busy_cycles: int = 0
    suu_cycles: int = 0

    def reset(self) -> None:
        """Zero every counter in place (the simulator's warmup reset reuses
        the instance instead of re-instantiating)."""
        for field in dataclasses.fields(self):
            setattr(self, field.name, field.default)

    @property
    def filtering_ratio(self) -> float:
        """Fraction of instruction-event handlers elided (Table 2 metric)."""
        if self.instruction_events == 0:
            return 0.0
        return self.filtered / self.instruction_events

    @property
    def unfiltered(self) -> int:
        return self.partial_short + self.unfiltered_full

    def to_dict(self) -> dict:
        """Plain-JSON representation; the inverse of :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FadeStats":
        return cls(**data)

    def restore_state(self, state: dict) -> None:
        """Set every counter from a :meth:`to_dict` payload *in place* (the
        simulator publishes this instance by reference at finalize)."""
        for field in dataclasses.fields(self):
            setattr(self, field.name, state[field.name])


class Fade:
    """A programmed FADE instance bound to one monitor's critical metadata."""

    def __init__(
        self,
        program: FadeProgram,
        md_registers: ShadowRegisters,
        md_memory: ShadowMemory,
        config: FadeConfig = FadeConfig(),
    ) -> None:
        self.program = program
        self.config = config
        self.inv_rf: InvariantRegisterFile = program.make_inv_rf()
        self.event_table: EventTable = program.event_table
        self.md_cache = MetadataCache(config.md_cache)
        self.fsq = FilterStoreQueue(config.fsq_capacity) if config.non_blocking else None
        self.pipeline = FilteringPipeline(
            event_table=self.event_table,
            inv_rf=self.inv_rf,
            md_registers=md_registers,
            md_memory=md_memory,
            md_cache=self.md_cache,
            fsq=self.fsq,
            non_blocking=config.non_blocking,
            memo_enabled=config.filter_memo,
        )
        self.suu: Optional[StackUpdateUnit] = None
        if program.uses_suu:
            self.suu = StackUpdateUnit(
                inv_rf=self.inv_rf,
                md_cache=self.md_cache,
                call_inv_id=program.suu_call_inv_id,
                return_inv_id=program.suu_return_inv_id,
            )
        self._md_memory = md_memory
        self.stats = FadeStats()

    @property
    def non_blocking(self) -> bool:
        return self.config.non_blocking

    @property
    def fsq_full(self) -> bool:
        return self.fsq is not None and self.fsq.is_full

    def process_event(self, event: MonitoredEvent) -> EventOutcome:
        """:meth:`process` for a :class:`MonitoredEvent` record."""
        return self.process(
            event.event_id, event.app_addr, event.src1_reg,
            event.src2_reg, event.dest_reg, event.sequence,
        )

    def process(
        self, event_id: int, addr: Optional[int], src1: Optional[int],
        src2: Optional[int], dest: Optional[int], sequence: int,
    ) -> EventOutcome:
        """Filter one instruction event, given as its event-queue fields
        (see :meth:`FilteringPipeline.process`); updates statistics."""
        outcome = self.pipeline.process(event_id, addr, src1, src2, dest, sequence)
        self.stats.instruction_events += 1
        self.stats.busy_cycles += outcome.occupancy_cycles
        if outcome.tlb_miss:
            self.stats.tlb_misses += 1
        if outcome.filtered:
            self.stats.filtered += 1
        elif outcome.handler_kind is HandlerKind.SHORT:
            self.stats.partial_short += 1
        else:
            self.stats.unfiltered_full += 1
        if outcome.md_update is not None:
            self.stats.md_updates_committed += 1
        return outcome

    def process_stack_update(self, update: StackUpdate) -> int:
        """Run the SUU over a frame; returns its busy cycles.

        The system model must have drained the unfiltered event queue first
        (Section 5.2); the accelerator enforces nothing about that here.
        """
        if self.suu is None:
            raise ConfigurationError(
                f"program {self.program.name!r} does not use the SUU"
            )
        cycles = self.suu.process(update, self._md_memory)
        self.stats.stack_updates += 1
        self.stats.suu_cycles += cycles
        return cycles

    def handler_completed(self, sequence: int) -> None:
        """The monitor finished an unfiltered event: discard its FSQ entries."""
        if self.fsq is not None:
            self.fsq.release(sequence)

    def write_invariant(self, index: int, value: int) -> None:
        """Run-time INV RF reprogramming (e.g. AtomCheck thread switches)."""
        self.inv_rf.write(index, value)

    # --------------------------------------------------- checkpoint protocol

    def capture_state(self) -> dict:
        """Serializable mid-run state of the whole accelerator.

        Shadow register/memory state is owned by the monitor and captured
        there; the filter memo is a pure cache and deliberately excluded
        (DESIGN.md §11).
        """
        return {
            "stats": self.stats.to_dict(),
            "inv_rf": self.inv_rf.capture_state(),
            "event_table": self.event_table.capture_state(),
            "md_cache": self.md_cache.capture_state(),
            "fsq": self.fsq.capture_state() if self.fsq is not None else None,
            "suu_stats": (
                dataclasses.asdict(self.suu.stats) if self.suu is not None else None
            ),
            "comparisons": self.pipeline.filter_logic.comparisons,
        }

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`capture_state`; every substructure restores in
        place so the pipeline's hoisted references stay valid.  The filter
        memo starts cold — a bit-identical state (replay timing and all
        statistics are memo-independent, proven by the differential
        oracle's forced-inline legs)."""
        self.stats.restore_state(state["stats"])
        self.inv_rf.restore_state(state["inv_rf"])
        self.event_table.restore_state(state["event_table"])
        self.md_cache.restore_state(state["md_cache"])
        if self.fsq is not None and state["fsq"] is not None:
            self.fsq.restore_state(state["fsq"])
        if self.suu is not None and state["suu_stats"] is not None:
            for name, value in state["suu_stats"].items():
                setattr(self.suu.stats, name, value)
        pipeline = self.pipeline
        pipeline.filter_logic.comparisons = state["comparisons"]
        if pipeline._value_memo is not None:
            pipeline._value_memo.clear()
        pipeline._chain_profiles.clear()
