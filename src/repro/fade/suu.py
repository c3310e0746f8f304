"""The Stack-Update Unit (SUU), Section 4.2.

A finite state machine that, given a frame's starting address and length,
computes the metadata block addresses covered by the frame and issues one MD
cache write per block, setting the range to a predefined invariant — one
value on calls, another on returns, both held in the INV RF.
"""

from __future__ import annotations

import dataclasses

from repro.fade.inv_rf import InvariantRegisterFile
from repro.fade.md_cache import MetadataCache
from repro.isa.events import StackOp, StackUpdate
from repro.metadata.shadow import ShadowMemory


@dataclasses.dataclass
class SuuStats:
    updates: int = 0
    words_written: int = 0
    blocks_written: int = 0
    busy_cycles: int = 0


class StackUpdateUnit:
    """FSM that bulk-initialises stack-frame metadata.

    Timing: a fixed setup cost (address calculation) plus one cycle per
    metadata block written through the MD cache.
    """

    SETUP_CYCLES = 2

    def __init__(
        self,
        inv_rf: InvariantRegisterFile,
        md_cache: MetadataCache,
        call_inv_id: int,
        return_inv_id: int,
    ) -> None:
        self.inv_rf = inv_rf
        self.md_cache = md_cache
        self.call_inv_id = call_inv_id
        self.return_inv_id = return_inv_id
        self.stats = SuuStats()

    def process(self, update: StackUpdate, metadata: ShadowMemory) -> int:
        """Apply a stack update; returns SUU busy cycles."""
        inv_id = self.call_inv_id if update.op is StackOp.CALL else self.return_inv_id
        value = self.inv_rf.read(inv_id)
        words = metadata.fill(update.frame_base, update.frame_size, value)
        blocks = self.md_cache.bulk_touch(update.frame_base, update.frame_size)
        cycles = self.SETUP_CYCLES + blocks
        self.stats.updates += 1
        self.stats.words_written += words
        self.stats.blocks_written += blocks
        self.stats.busy_cycles += cycles
        return cycles
