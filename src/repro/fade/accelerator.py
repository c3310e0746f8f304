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
from repro.fade.pipeline import EventOutcome, FadeStats, FilteringPipeline
from repro.fade.programming import FadeProgram
from repro.fade.suu import StackUpdateUnit
from repro.isa.events import MonitoredEvent, StackUpdate
from repro.metadata.shadow import ShadowMemory, ShadowRegisters


@dataclasses.dataclass(frozen=True)
class FadeConfig:
    """Accelerator configuration (Section 6 defaults).

    ``filter_memo`` enables the pipeline's value-keyed memo of every
    decision — filtered or not, with the handler choice and the Non-Blocking
    commit — a pure software-speed optimisation with bit-identical
    results.  The simulator enables it for the event engine only, so the
    naive reference engine keeps the truly inline walk that the
    engine-equivalence tests and the differential oracle compare against.
    """

    non_blocking: bool = True
    fsq_capacity: int = 16
    md_cache: MetadataCacheConfig = MetadataCacheConfig()
    filter_memo: bool = True


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
        self.stats = FadeStats()
        self.pipeline = FilteringPipeline(
            event_table=self.event_table,
            inv_rf=self.inv_rf,
            md_registers=md_registers,
            md_memory=md_memory,
            md_cache=self.md_cache,
            fsq=self.fsq,
            non_blocking=config.non_blocking,
            memo_enabled=config.filter_memo,
            stats=self.stats,
        )
        #: Filter one instruction event, given as its event-queue fields
        #: (see :meth:`FilteringPipeline.process`); the pipeline counts it
        #: in ``stats``.
        self.process = self.pipeline.process
        self.suu: Optional[StackUpdateUnit] = None
        if program.uses_suu:
            self.suu = StackUpdateUnit(
                inv_rf=self.inv_rf,
                md_cache=self.md_cache,
                call_inv_id=program.suu_call_inv_id,
                return_inv_id=program.suu_return_inv_id,
            )
        self._md_memory = md_memory

    def __getstate__(self) -> dict:
        # ``process`` is a bound method: it pickles as a ``getattr`` call,
        # which a stored warm state may not contain, so it is re-bound.
        state = dict(self.__dict__)
        del state["process"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.process = self.pipeline.process

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

