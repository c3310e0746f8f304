"""The filtering pipeline (Figure 5): functional + timing evaluation.

Stages: Event Table Read -> Control -> Metadata Read -> Filter, plus the
Metadata Write stage added for Non-Blocking Filtering.  The pipeline is fully
bypassed, so its *throughput* is one check per cycle; an event occupies it
for one cycle per chained check plus any MD-cache miss stall.  The stage
*depth* only adds fill latency, which is negligible against queue dynamics
and is folded into the per-event occupancy.

Because the same checks run over and over against the same few metadata
values, the pipeline memoizes every decision of a programmed event keyed on
the event id and the metadata values the chain walk reads: the operand
registers' MD RF bytes, the word's metadata byte (FSQ-forwarded or from
shadow memory), the INV values its clean checks compare against and the
INV its head entry's Non-Blocking update reads.  The key is read from the
same stores the inline walk reads, so a write anywhere in the metadata
layer simply re-keys the next lookup; nothing tracks writes.  A cached
decision holds whether the event filtered, the selected handler and the
head entry's Non-Blocking commit as a *value* (a pure function of the key);
a memo hit replays the per-event MD-cache/M-TLB accesses and then applies
that commit to *this* event's word or destination register (FSQ insert
plus shadow write, or an MD RF write), so access timing, cache state,
metadata contents and all statistics stay bit-identical to the inline walk.

The pipeline also keeps the accelerator's :class:`FadeStats`: each event is
counted where it is decided, so the accelerator hands its callers the
pipeline's own ``process``.
"""

from __future__ import annotations

import dataclasses
import enum
import operator
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.common.errors import ProgrammingError
from repro.common.units import WORD_SIZE
from repro.fade.event_table import EventTable, EventTableEntry
from repro.fade.filter_logic import FilterLogic, OperandMetadata
from repro.fade.fsq import FilterStoreQueue
from repro.fade.inv_rf import InvariantRegisterFile
from repro.fade.md_cache import MetadataCache
from repro.fade.update_logic import (
    NonBlockCondition,
    NonBlockRule,
    compute_update,
)
from repro.metadata.shadow import (
    PAGE_SHIFT,
    PAGE_WORD_MASK,
    WORD_SHIFT,
    ShadowMemory,
    ShadowRegisters,
)
from repro.verify.coverage import COVERAGE as _COVERAGE

#: Memo entries are dropped wholesale past this size (a simple bound; keys
#: are per (event id, metadata values), so real runs stay far below it).
_MEMO_CAPACITY = 1 << 16


class HandlerKind(enum.Enum):
    """What software work, if any, an event still needs after filtering."""

    NONE = "none"  # Filtered: no software handler at all.
    SHORT = "short"  # Partial filtering, hardware check passed.
    FULL = "full"  # Unfiltered: the full software handler runs.


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


class EventOutcome(NamedTuple):
    """Result of pushing one instruction event through the pipeline.

    A (slotted) NamedTuple: one is constructed per instruction event on the
    simulator's hottest path, where frozen-dataclass ``__init__`` overhead
    is measurable.

    Attributes:
        filtered: no software processing needed.
        handler_kind: which handler the unfiltered event requires.
        handler_pc: the selected handler's PC (0 when filtered).
        occupancy_cycles: cycles the event occupies the pipeline.
        checks: number of event-table checks evaluated (multi-shot depth).
        tlb_miss: the M-TLB missed; software service is required.
        md_update: Non-Blocking critical-metadata update committed in the
            Metadata Write stage: ("reg", index, value) or
            ("mem", word_address, value); None if no update was performed.
    """

    filtered: bool
    handler_kind: HandlerKind
    handler_pc: int
    occupancy_cycles: int
    checks: int
    tlb_miss: bool
    md_update: Optional[Tuple[str, int, int]]


class _ChainProfile(NamedTuple):
    """Static per-event-id shape of the programmed chain (memo support)."""

    mem_entries: int  # Chain entries whose operands read memory metadata.
    plain_entries: int  # Chain entries with no memory access (1 cycle each).
    reads_s1_reg: bool  # Some entry reads operand slot 1 as a register.
    reads_s2_reg: bool
    reads_d_reg: bool
    #: Reads the INV RF values the chain decides on — those its clean
    #: checks compare against, plus the head entry's update INV when the
    #: update reads it (a SET_CONST value or a condition's constant) — as
    #: one scalar or tuple; None when there are none.  The values join the
    #: memo key, so run-time INV reprogramming (AtomCheck thread switches)
    #: re-keys the lookup.
    read_invs: Optional[Callable[[list], object]]


class _ValueMemoEntry(NamedTuple):
    """A cached *decision* keyed on the metadata values read.

    The operand metadata is read directly — cheap functional dict/list
    lookups — and the decision is cached per ``(event id, operand values)``.
    Monitors encode metadata in a handful of byte values, so the key space
    is tiny.  Timing (MD-cache/M-TLB accesses) and the commit's write still
    happen per event.
    """

    base_cycles: int  # Occupancy from entries without an MD-cache access.
    mem_reads: int  # MD-cache accesses to replay per event.
    checks: int
    filtered: bool
    handler_kind: HandlerKind
    handler_pc: int
    #: The head entry's Non-Blocking commit, ("mem", value) or
    #: ("reg", value), applied to each hit's own word or register; None
    #: when the walk committed nothing.
    commit: Optional[Tuple[str, int]]


class FilteringPipeline:
    """Evaluates events against the programmed tables.

    The pipeline reads critical metadata through the MD RF (registers) and
    the FSQ + shadow memory (memory); in Non-Blocking mode it also commits
    critical updates for unfiltered events.  Every processed event is
    counted in ``stats``.
    """

    def __init__(
        self,
        event_table: EventTable,
        inv_rf: InvariantRegisterFile,
        md_registers: ShadowRegisters,
        md_memory: ShadowMemory,
        md_cache: MetadataCache,
        fsq: Optional[FilterStoreQueue] = None,
        non_blocking: bool = True,
        memo_enabled: bool = True,
        stats: Optional[FadeStats] = None,
    ) -> None:
        self.event_table = event_table
        self.inv_rf = inv_rf
        self.md_registers = md_registers
        self.md_memory = md_memory
        self.md_cache = md_cache
        self.fsq = fsq
        self.non_blocking = non_blocking
        self.filter_logic = FilterLogic(inv_rf)
        self.stats = stats if stats is not None else FadeStats()
        self._value_memo: Optional[Dict[tuple, _ValueMemoEntry]] = (
            {} if memo_enabled else None
        )
        self._chain_profiles: Dict[int, _ChainProfile] = {}
        #: The event table's generation the profiles and the memo hold.
        self._table_generation = event_table.generation
        #: One shared filtered outcome per (cycles, checks, tlb_miss) shape.
        self._filtered_outcomes: Dict[tuple, EventOutcome] = {}
        # Stable-identity metadata stores, hoisted for the memo hot path
        # (their identities never change after construction).
        self._reg_bytes = md_registers._bytes
        self._mem_pages = md_memory.pages
        self._mem_default = md_memory.default
        # Only Non-Blocking mode forwards in-flight FSQ values.
        self._fsq_by_word = (
            fsq._by_word if fsq is not None and non_blocking else None
        )
        self._inv_values = inv_rf._values
        self.memo_value_hits = 0
        self.memo_misses = 0

    # ----------------------------------------------------------------- reads

    def _read_memory_metadata(self, address: int) -> int:
        """FSQ (newest in-flight value) in parallel with the MD cache."""
        word = ShadowMemory.word_address(address)
        if self.non_blocking and self.fsq is not None:
            forwarded = self.fsq.lookup(word)
            if forwarded is not None:
                return forwarded
        return self.md_memory.read(address)

    def _operand_metadata(
        self, entry: EventTableEntry, addr: Optional[int],
        src1: Optional[int], src2: Optional[int], dest: Optional[int],
    ) -> Tuple[OperandMetadata, int, bool]:
        """Read the three operands' metadata; returns (values, cycles, tlb_miss).

        All memory operands of an instruction share the event's single
        app address ``addr`` (one memory operand per instruction in the
        modelled ISA), so at most one MD-cache access is made per event.
        """
        # Hot path (once per chain entry per event): the operand rules are
        # unpacked into locals and evaluated without inner closures.
        s1_rule = entry.s1
        s2_rule = entry.s2
        d_rule = entry.d
        cycles = 0
        tlb_miss = False
        memory_value: Optional[int] = None
        needs_memory = (
            (s1_rule.valid and s1_rule.mem)
            or (s2_rule.valid and s2_rule.mem)
            or (d_rule.valid and d_rule.mem)
        )
        if needs_memory and addr is not None:
            access = self.md_cache.access(addr)
            cycles += access.cycles
            tlb_miss = access.tlb_miss
            memory_value = self._read_memory_metadata(addr)

        read_register = self.md_registers.read
        if not s1_rule.valid:
            s1 = None
        elif s1_rule.mem:
            s1 = memory_value
        else:
            s1 = read_register(src1) if src1 is not None else None
        if not s2_rule.valid:
            s2 = None
        elif s2_rule.mem:
            s2 = memory_value
        else:
            s2 = read_register(src2) if src2 is not None else None
        if not d_rule.valid:
            d = None
        elif d_rule.mem:
            d = memory_value
        else:
            d = read_register(dest) if dest is not None else None
        return OperandMetadata(s1=s1, s2=s2, d=d), cycles, tlb_miss

    # ----------------------------------------------------------------- memo

    def _chain_profile(self, event_id: int) -> Optional[_ChainProfile]:
        """Static shape of ``event_id``'s chain, or None for an
        unprogrammed event."""
        if self.event_table.lookup(event_id) is None:
            return None
        mem_entries = 0
        plain_entries = 0
        reads_s1 = reads_s2 = reads_d = False
        chain = self.event_table.chain(event_id)
        update = chain[0][1].update
        reads_update_inv = update.is_active and (
            update.rule is NonBlockRule.SET_CONST
            or update.condition is not NonBlockCondition.ALWAYS
        )
        inv_ids: list = [update.inv_id] if reads_update_inv else []
        for _, entry in chain:
            rules = (entry.s1, entry.s2, entry.d)
            if any(rule.valid and rule.mem for rule in rules):
                mem_entries += 1
            else:
                plain_entries += 1
            if entry.s1.valid and not entry.s1.mem:
                reads_s1 = True
            if entry.s2.valid and not entry.s2.mem:
                reads_s2 = True
            if entry.d.valid and not entry.d.mem:
                reads_d = True
            if entry.cc:
                for rule in rules:
                    if rule.valid and rule.inv_id not in inv_ids:
                        inv_ids.append(rule.inv_id)
        profile = _ChainProfile(
            mem_entries, plain_entries,
            reads_s1, reads_s2, reads_d,
            operator.itemgetter(*inv_ids) if inv_ids else None,
        )
        self._chain_profiles[event_id] = profile
        return profile

    def _memoize(
        self,
        value_key: tuple,
        profile: _ChainProfile,
        has_address: bool,
        outcome: EventOutcome,
    ) -> None:
        """Cache a walk's decision under the metadata values it read (the
        key was read before the walk, whose only write is the final
        commit)."""
        if has_address:
            mem_reads = profile.mem_entries
            plain = profile.plain_entries
        else:
            mem_reads = 0  # No address: memory rules read a missing operand.
            plain = profile.mem_entries + profile.plain_entries
        value_memo = self._value_memo
        if len(value_memo) >= _MEMO_CAPACITY:
            value_memo.clear()
        md_update = outcome.md_update
        value_memo[value_key] = _ValueMemoEntry(
            plain, mem_reads, outcome.checks,
            outcome.filtered, outcome.handler_kind, outcome.handler_pc,
            None if md_update is None else (md_update[0], md_update[2]),
        )

    # --------------------------------------------------------------- evaluate

    def process(
        self, event_id: int, addr: Optional[int], src1: Optional[int],
        src2: Optional[int], dest: Optional[int], sequence: int,
    ) -> EventOutcome:
        """Push one instruction event through the pipeline.

        The arguments are the event-queue entry's fields (Figure 6(a)):
        event id, app address and the three operand registers (None where
        absent), plus the event's sequence number, which tags the FSQ
        entries of a Non-Blocking commit.

        Functionally evaluates the multi-shot chain (through the memo when
        the metadata values it reads were decided before), selects the
        handler for partial filtering, (Non-Blocking mode) commits the
        critical update for unfiltered events, and counts the event in
        ``stats``.
        """
        value_memo = self._value_memo
        if value_memo is None:
            return self._count(
                self._process_inline(event_id, addr, src1, src2, dest, sequence)
            )
        if self.event_table.generation != self._table_generation:
            # Reprogramming the table retires every profile and decision.
            self._table_generation = self.event_table.generation
            self._chain_profiles.clear()
            value_memo.clear()
        profile = self._chain_profiles.get(event_id)
        if profile is None:
            profile = self._chain_profile(event_id)
        value_key = None
        if profile is not None:
            # The decision is keyed on the metadata values read, through
            # direct functional reads (register bytes, the word's metadata
            # byte, the FSQ's per-word stack) — MD-cache timing is never
            # consulted to *find* the decision, only replayed once known.
            reg_bytes = self._reg_bytes
            r1 = (
                reg_bytes[src1]
                if profile.reads_s1_reg and src1 is not None
                else None
            )
            r2 = (
                reg_bytes[src2]
                if profile.reads_s2_reg and src2 is not None
                else None
            )
            rd = (
                reg_bytes[dest]
                if profile.reads_d_reg and dest is not None
                else None
            )
            memory_value = None
            forwarded = False
            if addr is not None and profile.mem_entries:
                word = addr - addr % WORD_SIZE
                if self._fsq_by_word is not None:
                    stack = self._fsq_by_word.get(word)
                    if stack:
                        forwarded = True
                        memory_value = stack[-1].value
                if not forwarded:
                    page = self._mem_pages.get(word >> PAGE_SHIFT)
                    memory_value = (
                        self._mem_default
                        if page is None
                        else page[(word >> WORD_SHIFT) & PAGE_WORD_MASK]
                    )
            read_invs = profile.read_invs
            value_key = (
                event_id, r1, r2, rd, memory_value,
                read_invs(self._inv_values) if read_invs is not None else (),
            )
            entry = value_memo.get(value_key)
            if entry is not None:
                self.memo_value_hits += 1
                if _COVERAGE.enabled:
                    _COVERAGE.hit("memo.value_hit")
                cycles = entry.base_cycles
                tlb_missed = False
                mem_reads = entry.mem_reads
                if mem_reads:
                    access_cycles = self.md_cache.access_cycles
                    for _ in range(mem_reads):
                        access, tlb_miss = access_cycles(addr)
                        cycles += access if access > 1 else 1
                        if tlb_miss:
                            tlb_missed = True
                if entry.filtered:
                    # The common case, counted inline.
                    stats = self.stats
                    stats.instruction_events += 1
                    stats.busy_cycles += cycles
                    if tlb_missed:
                        stats.tlb_misses += 1
                    stats.filtered += 1
                    shape = (cycles, entry.checks, tlb_missed)
                    outcome = self._filtered_outcomes.get(shape)
                    if outcome is None:
                        outcome = self._filtered_outcomes[shape] = EventOutcome(
                            True, HandlerKind.NONE, 0, cycles, entry.checks,
                            tlb_missed, None,
                        )
                    return outcome
                # The commit's value is a pure function of the key; only
                # its target (this event's word or register) is per event.
                commit = entry.commit
                return self._count(EventOutcome(
                    False, entry.handler_kind, entry.handler_pc, cycles,
                    entry.checks, tlb_missed,
                    None if commit is None else self._write_update(
                        commit[0], commit[1], addr, dest, sequence
                    ),
                ))
        self.memo_misses += 1
        if _COVERAGE.enabled:
            _COVERAGE.hit("memo.miss")
        outcome = self._process_inline(event_id, addr, src1, src2, dest, sequence)
        if value_key is not None:
            # Only a programmed event (so one with a profile) has a key.
            self._memoize(value_key, profile, addr is not None, outcome)
            if _COVERAGE.enabled and not outcome.filtered:
                _COVERAGE.hit("memo.unfiltered")
        return self._count(outcome)

    def _count(self, outcome: EventOutcome) -> EventOutcome:
        """Add an outcome to ``stats`` (a filtered memo hit counts itself
        inline)."""
        stats = self.stats
        stats.instruction_events += 1
        stats.busy_cycles += outcome.occupancy_cycles
        if outcome.tlb_miss:
            stats.tlb_misses += 1
        if outcome.filtered:
            stats.filtered += 1
        elif outcome.handler_kind is HandlerKind.SHORT:
            stats.partial_short += 1
        else:
            stats.unfiltered_full += 1
        if outcome.md_update is not None:
            stats.md_updates_committed += 1
        return outcome

    def _process_inline(
        self, event_id: int, addr: Optional[int], src1: Optional[int],
        src2: Optional[int], dest: Optional[int], sequence: int,
    ) -> EventOutcome:
        """The reference chain walk (memo misses, unprogrammed events and
        the memo-less configurations); counts nothing."""
        head = self.event_table.lookup(event_id)
        if head is None:
            # Unprogrammed event: always software (the monitor asked for the
            # event but provided no filtering rules).
            return EventOutcome(
                filtered=False,
                handler_kind=HandlerKind.FULL,
                handler_pc=0,
                occupancy_cycles=1,
                checks=0,
                tlb_miss=False,
                md_update=None,
            )

        chain = self.event_table.chain(event_id)
        filtered = True
        has_real_check = False
        partial_entry: Optional[EventTableEntry] = None
        partial_outcome = False
        total_cycles = 0
        tlb_missed = False
        first_metadata: Optional[OperandMetadata] = None

        for _, entry in chain:
            metadata, cycles, tlb_miss = self._operand_metadata(
                entry, addr, src1, src2, dest
            )
            if first_metadata is None:
                first_metadata = metadata
            total_cycles += max(1, cycles)  # One pipeline slot per check.
            tlb_missed = tlb_missed or tlb_miss
            outcome = self.filter_logic.evaluate(entry, metadata)
            if entry.partial:
                # Partial checks select the handler; they never make the
                # event fully filtered (software runs either way).
                partial_entry = entry
                partial_outcome = outcome
            elif entry.has_check:
                has_real_check = True
                filtered = filtered and outcome

        if not has_real_check:
            filtered = False  # Pure-partial programs never fully filter.

        if filtered:
            return EventOutcome(
                filtered=True,
                handler_kind=HandlerKind.NONE,
                handler_pc=0,
                occupancy_cycles=total_cycles,
                checks=len(chain),
                tlb_miss=tlb_missed,
                md_update=None,
            )

        handler_kind, handler_pc = self._select_handler(
            chain[0][1], partial_entry, partial_outcome
        )
        md_update = None
        if self.non_blocking:
            md_update = self._commit_update(
                chain[0][1], addr, dest, sequence, first_metadata
            )
        return EventOutcome(
            filtered=False,
            handler_kind=handler_kind,
            handler_pc=handler_pc,
            occupancy_cycles=total_cycles,
            checks=len(chain),
            tlb_miss=tlb_missed,
            md_update=md_update,
        )

    def _select_handler(
        self,
        head: EventTableEntry,
        partial_entry: Optional[EventTableEntry],
        partial_outcome: bool,
    ) -> Tuple[HandlerKind, int]:
        """The P bit drives handler-PC selection (Section 4.1).

        A passing partial check dispatches the *short* handler, whose PC is
        held in the entry referenced by the partial entry's ``next_entry``
        (a PC-holder row); a failing check dispatches the partial entry's
        own (long) handler.
        """
        if partial_entry is None:
            return HandlerKind.FULL, head.handler_pc
        if partial_outcome:
            holder = self.event_table.lookup(partial_entry.next_entry)
            if holder is None:
                raise ProgrammingError("partial entry's short-PC holder missing")
            return HandlerKind.SHORT, holder.handler_pc
        return HandlerKind.FULL, partial_entry.handler_pc

    def _commit_update(
        self, entry: EventTableEntry, addr: Optional[int], dest: Optional[int],
        sequence: int, metadata: Optional[OperandMetadata],
    ) -> Optional[Tuple[str, int, int]]:
        """Metadata Write stage: apply the Non-Blocking critical update."""
        if metadata is None or not entry.update.is_active:
            return None
        new_value = compute_update(
            entry.update, metadata.s1, metadata.s2, metadata.d, self.inv_rf
        )
        if new_value is None:
            return None
        if entry.d.valid and entry.d.mem:
            if addr is None:
                return None
            return self._write_update("mem", new_value, addr, dest, sequence)
        if entry.d.valid and dest is not None:
            return self._write_update("reg", new_value, addr, dest, sequence)
        return None

    def _write_update(
        self, target: str, value: int, addr: Optional[int],
        dest: Optional[int], sequence: int,
    ) -> Tuple[str, int, int]:
        """Write a committed value to the event's word (FSQ entry plus
        shadow memory) or to its destination's MD RF byte."""
        if target == "mem":
            word = addr - addr % WORD_SIZE
            if self.fsq is not None:
                self.fsq.insert(word, value, sequence)
            self.md_memory.write(word, value)
            return ("mem", word, value)
        self.md_registers.write(dest, value)
        return ("reg", dest, value)
