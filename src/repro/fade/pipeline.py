"""The filtering pipeline (Figure 5): functional + timing evaluation.

Stages: Event Table Read -> Control -> Metadata Read -> Filter, plus the
Metadata Write stage added for Non-Blocking Filtering.  The pipeline is fully
bypassed, so its *throughput* is one check per cycle; an event occupies it
for one cycle per chained check plus any MD-cache miss stall.  The stage
*depth* only adds fill latency, which is negligible against queue dynamics
and is folded into the per-event occupancy.

Because the hardware filters the overwhelming majority of events, the same
``(event id, operand registers, word address)`` tuple is evaluated against
unchanged metadata over and over.  The pipeline therefore memoizes fully
*filtered* outcomes keyed on that tuple plus the generation counters of
every metadata store the chain walk read (event table, INV RF, MD RF,
shadow memory, FSQ).  A memo hit skips the chain walk but still performs
the per-event MD-cache/M-TLB accesses, so access timing, cache state and
all statistics stay bit-identical to the inline walk.  Unfiltered outcomes
have side effects (handler selection, Non-Blocking commits, FSQ inserts)
and always take the inline path.
"""

from __future__ import annotations

import enum
import os
from typing import Dict, NamedTuple, Optional, Tuple

from repro.common.errors import ProgrammingError
from repro.common.units import WORD_SIZE
from repro.fade.event_table import EventTable, EventTableEntry
from repro.fade.filter_logic import FilterLogic, OperandMetadata
from repro.fade.fsq import FilterStoreQueue
from repro.fade.inv_rf import InvariantRegisterFile
from repro.fade.md_cache import MetadataCache
from repro.fade.update_logic import compute_update
from repro.metadata.shadow import (
    PAGE_SHIFT,
    PAGE_WORD_MASK,
    WORD_SHIFT,
    ShadowMemory,
    ShadowRegisters,
)
from repro.verify.coverage import COVERAGE as _COVERAGE

#: Memo entries are dropped wholesale past this size (a simple bound; keys
#: are per (event id, registers, word), so real runs stay far below it).
_MEMO_CAPACITY = 1 << 16


def force_inline_filtering() -> bool:
    """True when ``REPRO_FORCE_INLINE_FADE`` disables the filter memo — the
    CI knob that keeps the inline per-event path exercised."""
    return os.environ.get("REPRO_FORCE_INLINE_FADE", "") not in ("", "0")


class HandlerKind(enum.Enum):
    """What software work, if any, an event still needs after filtering."""

    NONE = "none"  # Filtered: no software handler at all.
    SHORT = "short"  # Partial filtering, hardware check passed.
    FULL = "full"  # Unfiltered: the full software handler runs.


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

    table_generation: int
    mem_entries: int  # Chain entries whose operands read memory metadata.
    plain_entries: int  # Chain entries with no memory access (1 cycle each).
    reads_registers: bool  # Any valid register-operand rule in the chain.
    reads_invariants: bool  # Any clean check (compares against the INV RF).
    reads_s1_reg: bool  # Some entry reads operand slot 1 as a register.
    reads_s2_reg: bool
    reads_d_reg: bool
    #: INV RF indices the chain's clean checks compare against (static per
    #: event id).  Their *values* join the value-memo key, so run-time INV
    #: reprogramming (AtomCheck thread switches) re-keys instead of
    #: invalidating.
    inv_ids: tuple


class _MemoEntry(NamedTuple):
    """One cached *filtered* outcome (timing is replayed, not cached).

    Generation fields hold the per-slot counters the chain walk read; -1
    marks a store the walk never touched (not compared).  Per-slot keying
    means a cached decision survives every metadata write except one to the
    exact registers / word it read.
    """

    table_gen: int  # EventTable.generation at walk time.
    inv_gen: int  # InvariantRegisterFile.generation, or -1.
    reg_gens: Tuple[Tuple[int, int], ...]  # (register, generation) pairs.
    word_gen: int  # ShadowMemory word generation, or -1.
    mem_epoch: int  # ShadowMemory.bulk_epoch at walk time (with word_gen).
    fsq_gen: int  # FSQ word generation, or -1.
    base_cycles: int  # Occupancy from entries without an MD-cache access.
    mem_reads: int  # MD-cache accesses to replay per event.
    checks: int
    fsq_hits: int  # FSQ forwarding hits to credit per replay.
    comparisons: int  # Comparator activations to credit per replay.


class _ValueMemoEntry(NamedTuple):
    """A cached filtered *decision* keyed on the metadata values read.

    The second memo level: when the generation-keyed entry misses (events
    touch fresh registers/words all the time), the operand metadata is read
    directly — cheap functional dict/list lookups — and the decision is
    cached per ``(event id, operand values)``.  Monitors encode metadata in
    a handful of byte values, so this level's key space is tiny and its hit
    rate approaches the filtering ratio.  Timing (MD-cache/M-TLB accesses)
    and FSQ-hit accounting still happen per event.
    """

    table_gen: int
    inv_gen: int  # Always -1: the INV values read are part of the key.
    base_cycles: int
    mem_reads: int
    checks: int
    comparisons: int


class FilteringPipeline:
    """Evaluates events against the programmed tables.

    The pipeline reads critical metadata through the MD RF (registers) and
    the FSQ + shadow memory (memory); in Non-Blocking mode it also commits
    critical updates for unfiltered events.
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
    ) -> None:
        self.event_table = event_table
        self.inv_rf = inv_rf
        self.md_registers = md_registers
        self.md_memory = md_memory
        self.md_cache = md_cache
        self.fsq = fsq
        self.non_blocking = non_blocking
        self.filter_logic = FilterLogic(inv_rf)
        self._memo: Optional[Dict[tuple, _MemoEntry]] = (
            {} if memo_enabled and not force_inline_filtering() else None
        )
        self._value_memo: Dict[tuple, _ValueMemoEntry] = {}
        self._chain_profiles: Dict[int, _ChainProfile] = {}
        # Stable-identity generation/value stores, hoisted for the memo hot
        # path (their identities never change after construction).
        self._reg_gens = md_registers.generations
        self._mem_word_gens = md_memory.word_generations
        self._fsq_word_gens = fsq.word_generations if fsq is not None else {}
        self._reg_bytes = md_registers._bytes
        self._mem_pages = md_memory.pages
        self._mem_default = md_memory.default
        self._fsq_by_word = fsq._by_word if fsq is not None else None
        self._inv_values = inv_rf._values
        self.memo_hits = 0
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

    def _chain_profile(self, event_id: int) -> _ChainProfile:
        """Static shape of ``event_id``'s chain (recomputed on reprogramming)."""
        table_generation = self.event_table.generation
        profile = self._chain_profiles.get(event_id)
        if profile is not None and profile.table_generation == table_generation:
            return profile
        mem_entries = 0
        plain_entries = 0
        reads_invariants = False
        reads_s1 = reads_s2 = reads_d = False
        inv_ids: list = []
        for _, entry in self.event_table.chain(event_id):
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
                reads_invariants = True
                for rule in rules:
                    if rule.valid and rule.inv_id not in inv_ids:
                        inv_ids.append(rule.inv_id)
        profile = _ChainProfile(
            table_generation, mem_entries, plain_entries,
            reads_s1 or reads_s2 or reads_d, reads_invariants,
            reads_s1, reads_s2, reads_d, tuple(inv_ids),
        )
        self._chain_profiles[event_id] = profile
        return profile

    def _profile_for(self, event_id: int) -> Optional[_ChainProfile]:
        """Like :meth:`_chain_profile` but None for unprogrammed events."""
        profile = self._chain_profiles.get(event_id)
        if (
            profile is not None
            and profile.table_generation == self.event_table.generation
        ):
            return profile
        if self.event_table.lookup(event_id) is None:
            return None
        return self._chain_profile(event_id)

    def _memoize(
        self,
        key: tuple,
        value_key: Optional[tuple],
        profile: Optional[_ChainProfile],
        outcome: EventOutcome,
        comparisons: int,
        forwarded: bool,
    ) -> None:
        """Cache a filtered outcome at both memo levels (the walk performed
        no writes, so the generations captured now equal those it read).
        ``key`` is the generation key ``(event id, src1, src2, dest,
        word)`` built by :meth:`process`."""
        event_id, src1, src2, dest, word = key
        if profile is None:
            profile = self._chain_profile(event_id)
        if word is not None:
            mem_reads = profile.mem_entries
            plain = profile.plain_entries
        else:
            mem_reads = 0  # No address: memory rules read a missing operand.
            plain = profile.mem_entries + profile.plain_entries
        inv_gen = self.inv_rf.generation if profile.reads_invariants else -1
        reg_gens: Tuple[Tuple[int, int], ...] = ()
        if profile.reads_registers:
            gens = self._reg_gens
            reg_gens = tuple(
                (register, gens[register])
                for register in (src1, src2, dest)
                if register is not None
            )
        word_gen = -1
        mem_epoch = 0
        fsq_gen = -1
        fsq_hits = 0
        if mem_reads:
            word_gen = self._mem_word_gens.get(word, 0)
            mem_epoch = self.md_memory.bulk_epoch
            if self.non_blocking and self.fsq is not None:
                fsq_gen = self._fsq_word_gens.get(word, 0)
                if forwarded:
                    fsq_hits = mem_reads
        memo = self._memo
        if len(memo) >= _MEMO_CAPACITY:
            memo.clear()
        memo[key] = _MemoEntry(
            profile.table_generation, inv_gen, reg_gens, word_gen, mem_epoch,
            fsq_gen, plain, mem_reads, outcome.checks, fsq_hits, comparisons,
        )
        if value_key is not None:
            value_memo = self._value_memo
            if len(value_memo) >= _MEMO_CAPACITY:
                value_memo.clear()
            # The INV values the decision depends on are part of the value
            # key itself, so no invariant generation is tracked here (-1).
            value_memo[value_key] = _ValueMemoEntry(
                profile.table_generation, -1, plain, mem_reads,
                outcome.checks, comparisons,
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

        Functionally evaluates the multi-shot chain (through the memo when a
        cached filtered decision is still valid), selects the handler for
        partial filtering, and (Non-Blocking mode) commits the critical
        update for unfiltered events.
        """
        memo = self._memo
        if memo is None:
            return self._process_inline(event_id, addr, src1, src2, dest, sequence)
        table_gen = self.event_table.generation
        word = addr - addr % WORD_SIZE if addr is not None else None
        # First probe: the decision keyed on the metadata values read
        # (functional lookups only — MD-cache timing is never consulted to
        # *find* the decision, only replayed once it is known).  Value hits
        # subsume generation hits, so this level leads the hot path.
        profile = self._chain_profiles.get(event_id)
        if profile is None or profile.table_generation != table_gen:
            profile = self._profile_for(event_id)
        value_key = None
        forwarded = False
        if profile is not None:
            # Direct functional reads (register bytes, the word's metadata
            # byte, the FSQ's per-word stack) — never the MD cache.
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
            if word is not None and profile.mem_entries:
                if self.non_blocking and self._fsq_by_word is not None:
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
            inv_ids = profile.inv_ids
            if not inv_ids:
                value_key = (event_id, r1, r2, rd, memory_value, ())
            elif len(inv_ids) == 1:
                value_key = (
                    event_id, r1, r2, rd, memory_value,
                    self._inv_values[inv_ids[0]],
                )
            else:
                inv_values = self._inv_values
                value_key = (
                    event_id, r1, r2, rd, memory_value,
                    tuple([inv_values[i] for i in inv_ids]),
                )
            ventry = self._value_memo.get(value_key)
            if ventry is not None and ventry.table_gen == table_gen:
                self.memo_value_hits += 1
                if _COVERAGE.enabled:
                    _COVERAGE.hit("memo.value_hit")
                cycles = ventry.base_cycles
                tlb_missed = False
                mem_reads = ventry.mem_reads
                if mem_reads:
                    access_cycles = self.md_cache.access_cycles
                    for _ in range(mem_reads):
                        access, tlb_miss = access_cycles(addr)
                        cycles += access if access > 1 else 1
                        if tlb_miss:
                            tlb_missed = True
                    if forwarded:
                        self.fsq.hits += mem_reads
                self.filter_logic.comparisons += ventry.comparisons
                return EventOutcome(
                    True, HandlerKind.NONE, 0, cycles, ventry.checks,
                    tlb_missed, None,
                )
        # Second probe: the generation-keyed entry for this exact
        # (event id, operand registers, word) — it survives value-memo
        # eviction and skips even the functional value reads when it hits.
        key = (event_id, src1, src2, dest, word)
        entry = memo.get(key)
        if entry is not None:
            # Validation attributes the stale-entry class (coverage map);
            # the checks and their order match the original composite test.
            invalidation = None
            if entry.table_gen != table_gen:
                invalidation = "memo.inval.table"
            elif entry.inv_gen >= 0 and entry.inv_gen != self.inv_rf.generation:
                invalidation = "memo.inval.inv"
            else:
                for register, generation in entry.reg_gens:
                    if self._reg_gens[register] != generation:
                        invalidation = "memo.inval.reg"
                        break
                if invalidation is None and entry.word_gen >= 0:
                    if (
                        self._mem_word_gens.get(word, 0) != entry.word_gen
                        or self.md_memory.bulk_epoch != entry.mem_epoch
                    ):
                        invalidation = "memo.inval.word"
                    elif (
                        entry.fsq_gen >= 0
                        and self._fsq_word_gens.get(word, 0) != entry.fsq_gen
                    ):
                        invalidation = "memo.inval.fsq"
            if invalidation is not None:
                entry = None
                if _COVERAGE.enabled:
                    _COVERAGE.hit(invalidation)
            if entry is not None:
                self.memo_hits += 1
                if _COVERAGE.enabled:
                    _COVERAGE.hit("memo.gen_hit")
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
                    if entry.fsq_hits:
                        self.fsq.hits += entry.fsq_hits
                self.filter_logic.comparisons += entry.comparisons
                return EventOutcome(
                    True, HandlerKind.NONE, 0, cycles, entry.checks,
                    tlb_missed, None,
                )
        self.memo_misses += 1
        if _COVERAGE.enabled:
            _COVERAGE.hit("memo.miss")
        comparisons_before = self.filter_logic.comparisons
        outcome = self._process_inline(event_id, addr, src1, src2, dest, sequence)
        if outcome.filtered:
            self._memoize(
                key, value_key, profile, outcome,
                self.filter_logic.comparisons - comparisons_before,
                forwarded,
            )
        else:
            memo.pop(key, None)  # Drop a stale filtered decision, if any.
            if _COVERAGE.enabled:
                _COVERAGE.hit("memo.unfiltered")
        return outcome

    def _process_inline(
        self, event_id: int, addr: Optional[int], src1: Optional[int],
        src2: Optional[int], dest: Optional[int], sequence: int,
    ) -> EventOutcome:
        """The reference chain walk (memo misses and unfiltered events)."""
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
            word = ShadowMemory.word_address(addr)
            if self.fsq is not None:
                self.fsq.insert(word, new_value, sequence)
            self.md_memory.write(word, new_value)
            return ("mem", word, new_value)
        if entry.d.valid and dest is not None:
            self.md_registers.write(dest, new_value)
            return ("reg", dest, new_value)
        return None
