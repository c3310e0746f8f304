"""Unit tests for the filtering support machinery: the per-word/per-owner
FSQ, the inlined MD-cache access path and the value-keyed filter memo."""

import random

import pytest

from repro.fade.accelerator import Fade, FadeConfig
from repro.fade.event_table import EventTableEntry, RuKind
from repro.fade.fsq import FilterStoreQueue
from repro.fade.programming import ProgramBuilder
from repro.fade.update_logic import NonBlockCondition, NonBlockRule, UpdateSpec
from repro.isa.events import MonitoredEvent
from repro.isa.opcodes import OpClass, event_id_for
from repro.metadata import ShadowMemory, ShadowRegisters
from repro.monitors import create_monitor


# ------------------------------------------------------------------- FSQ


class _ReferenceFsq:
    """The original list-scan FSQ semantics, as an oracle."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []
        self.inserts = 0
        self.max_occupancy = 0

    def insert(self, word, value, owner):
        assert len(self.entries) < self.capacity
        self.entries.append((word, value, owner))
        self.inserts += 1
        self.max_occupancy = max(self.max_occupancy, len(self.entries))

    def lookup(self, word):
        for entry_word, value, _ in reversed(self.entries):
            if entry_word == word:
                return value
        return None

    def release(self, owner):
        kept = [e for e in self.entries if e[2] != owner]
        released = len(self.entries) - len(kept)
        self.entries = kept
        return released


@pytest.mark.parametrize("seed", [1, 5, 23])
def test_fsq_randomized_against_reference(seed):
    """Interleaved insert/lookup/release streams match the reference
    linear-scan implementation, statistics included."""
    rng = random.Random(seed)
    fsq = FilterStoreQueue(capacity=8)
    ref = _ReferenceFsq(capacity=8)
    words = [0x100, 0x104, 0x108, 0x10C]
    owners = list(range(6))
    for _ in range(3000):
        op = rng.random()
        if op < 0.4 and len(fsq) < 8:
            word = rng.choice(words)
            value = rng.randrange(256)
            owner = rng.choice(owners)
            fsq.insert(word, value, owner)
            ref.insert(word, value, owner)
        elif op < 0.8:
            word = rng.choice(words)
            assert fsq.lookup(word) == ref.lookup(word)
        else:
            owner = rng.choice(owners)
            assert fsq.release(owner) == ref.release(owner)
        assert len(fsq) == len(ref.entries)
        assert fsq.is_full == (len(ref.entries) >= 8)
    assert fsq.inserts == ref.inserts
    assert fsq.max_occupancy == ref.max_occupancy


# --------------------------------------------------------------- MD cache


@pytest.mark.parametrize("seed", [7, 42])
def test_access_cycles_mirrors_access(seed):
    """``MetadataCache.access_cycles`` inlines the TLB and cache bodies for
    the memo replay path; this oracle pins the duplication — any future
    edit to ``Tlb.access``/``Cache.access`` that is not mirrored there
    fails here, before it can skew replayed timing."""
    from repro.fade.md_cache import MetadataCache

    rng = random.Random(seed)
    inlined = MetadataCache()
    reference = MetadataCache()
    addresses = [rng.randrange(0, 1 << 20) for _ in range(200)]
    for _ in range(5000):
        address = rng.choice(addresses)
        cycles, tlb_miss = inlined.access_cycles(address)
        result = reference.access(address)
        assert (cycles, tlb_miss) == (result.cycles, result.tlb_miss)
    for stats in ("cache_stats", "tlb_stats"):
        assert vars(getattr(inlined, stats)) == vars(getattr(reference, stats))
    # The same sets touched, each with the same ways in the same order.
    assert {
        index: list(ways) for index, ways in inlined._cache._sets.items()
    } == {index: list(ways) for index, ways in reference._cache._sets.items()}
    assert list(inlined._tlb._pages) == list(reference._tlb._pages)


# ------------------------------------------------------------ filter memo


#: INV ids of the update-rich program (``_update_rich_program``).
_DEFINED_INV, _ALLOCATED_INV, _STORE_TAG_INV, _CONDITION_INV = range(4)


def _update_rich_program():
    """A program whose Non-Blocking updates read INVs no clean check
    compares against: a SET_CONST store, a conditional PROP_S1 load behind
    a partial filter and a conditional COMPOSE_OR ALU chain."""
    builder = ProgramBuilder("update-rich")
    defined = builder.invariant(0x03, "defined")
    allocated = builder.invariant(0x01, "allocated")
    tag = builder.invariant(0x05, "store-tag")
    constant = builder.invariant(0x01, "condition-constant")
    assert (defined, allocated, tag, constant) == (
        _DEFINED_INV, _ALLOCATED_INV, _STORE_TAG_INV, _CONDITION_INV
    )
    builder.partial_filter(
        event_id_for(OpClass.LOAD, 1),
        full_check=EventTableEntry(
            s1=builder.mem_operand(inv_id=defined),
            d=builder.reg_operand(inv_id=defined),
            cc=True,
        ),
        partial_check=EventTableEntry(
            s1=builder.mem_operand(inv_id=allocated, mask=0x01), cc=True
        ),
        short_handler_pc=0x600,
        long_handler_pc=0x604,
        update=UpdateSpec(
            rule=NonBlockRule.PROP_S1,
            condition=NonBlockCondition.S1_NE_CONST,
            inv_id=constant,
        ),
    )
    builder.clean_check(
        event_id_for(OpClass.STORE, 1),
        s1=builder.reg_operand(inv_id=defined),
        d=builder.mem_operand(inv_id=defined),
        handler_pc=0x608,
        update=UpdateSpec(rule=NonBlockRule.SET_CONST, inv_id=tag),
    )
    builder.multi_shot(
        event_id_for(OpClass.ALU, 2),
        [
            EventTableEntry(
                s1=builder.reg_operand(),
                s2=builder.reg_operand(),
                d=builder.reg_operand(),
                ru=RuKind.OR,
            ),
            EventTableEntry(s1=builder.reg_operand(inv_id=defined), cc=True),
        ],
        handler_pc=0x60C,
        update=UpdateSpec(
            rule=NonBlockRule.COMPOSE_OR,
            condition=NonBlockCondition.S1_EQ_CONST,
            inv_id=constant,
        ),
    )
    return builder.build()


def _mirrored_fades(program_name="memcheck", non_blocking=True):
    """Two identically-programmed FADE instances, one memoized, one inline:
    a monitor's program, or the update-rich one."""
    fades = []
    for memo in (True, False):
        if program_name == "update-rich":
            program = _update_rich_program()
            md_registers = ShadowRegisters(default=0x03)
            md_memory = ShadowMemory()
        else:
            monitor = create_monitor(program_name)
            program = monitor.fade_program()
            md_registers = monitor.critical_regs
            md_memory = monitor.critical_mem
        fades.append(
            Fade(
                program=program,
                md_registers=md_registers,
                md_memory=md_memory,
                config=FadeConfig(non_blocking=non_blocking, filter_memo=memo),
            )
        )
    return fades


def _assert_same_metadata(memoized, inline):
    """The MD RF, shadow memory and the FSQ's per-word stacks agree."""
    a, b = memoized.pipeline, inline.pipeline
    assert a.md_registers.snapshot() == b.md_registers.snapshot()
    assert a.md_memory.snapshot() == b.md_memory.snapshot()
    if memoized.fsq is not None:
        assert memoized.fsq._by_word == inline.fsq._by_word


def _random_event(rng, sequence):
    kind = rng.random()
    if kind < 0.4:  # Load.
        return MonitoredEvent(
            event_id=event_id_for(OpClass.LOAD, 1),
            app_pc=rng.randrange(1 << 20),
            app_addr=rng.choice([0x1000, 0x1004, 0x2000, 0x2040]),
            dest_reg=rng.randrange(8),
            sequence=sequence,
        )
    if kind < 0.7:  # Store.
        return MonitoredEvent(
            event_id=event_id_for(OpClass.STORE, 1),
            app_pc=rng.randrange(1 << 20),
            app_addr=rng.choice([0x1000, 0x1004, 0x2000, 0x2040]),
            src1_reg=rng.randrange(8),
            sequence=sequence,
        )
    return MonitoredEvent(  # Two-source ALU.
        event_id=event_id_for(OpClass.ALU, 2),
        app_pc=rng.randrange(1 << 20),
        src1_reg=rng.randrange(8),
        src2_reg=rng.randrange(8),
        dest_reg=rng.randrange(8),
        sequence=sequence,
    )


@pytest.mark.parametrize("non_blocking", [True, False])
@pytest.mark.parametrize("seed", [2, 13])
def test_memoized_pipeline_matches_inline(seed, non_blocking):
    """Randomized events interleaved with metadata writes, SUU-style range
    fills, INV reprogramming and handler completions: the memoized pipeline
    produces bit-identical outcomes, statistics, MD-cache/TLB statistics
    and — after every event — metadata contents, under MemCheck's program
    and under one whose SET_CONST and conditional updates read INVs the
    loop rewrites."""
    for program_name in ("memcheck", "update-rich"):
        _check_memo_matches_inline(seed, non_blocking, program_name)


def _check_memo_matches_inline(seed, non_blocking, program_name):
    rng = random.Random(seed)
    memoized, inline = _mirrored_fades(program_name, non_blocking)
    pipeline = memoized.pipeline
    committing_hits = 0
    outstanding = []
    for sequence in range(2500):
        roll = rng.random()
        if roll < 0.08:
            # Critical-metadata churn.
            address = rng.choice([0x1000, 0x1004, 0x2000, 0x2040])
            value = rng.choice([0x00, 0x01, 0x03])
            for fade in (memoized, inline):
                fade.pipeline.md_memory.write(address, value)
        elif roll < 0.14:
            register = rng.randrange(8)
            value = rng.choice([0x01, 0x03])
            for fade in (memoized, inline):
                fade.pipeline.md_registers.write(register, value)
        elif roll < 0.18:
            start = rng.choice([0x1000, 0x2000])
            for fade in (memoized, inline):
                fade.pipeline.md_memory.fill(start, 64, 0x01)
        elif roll < 0.20:
            inv_id = rng.randrange(4)
            value = rng.choice([0x01, 0x03, 0x05])
            for fade in (memoized, inline):
                fade.write_invariant(inv_id, value)
        elif roll < 0.25 and outstanding:
            done = outstanding.pop(rng.randrange(len(outstanding)))
            for fade in (memoized, inline):
                fade.handler_completed(done)
        else:
            event = _random_event(rng, sequence)
            hits = pipeline.memo_value_hits
            a = memoized.process_event(event)
            b = inline.process_event(event)
            assert a == b, f"divergence at #{sequence}: {a} vs {b}"
            _assert_same_metadata(memoized, inline)
            if pipeline.memo_value_hits > hits and a.md_update is not None:
                committing_hits += 1
            if not a.filtered:
                outstanding.append(sequence)
                if len(outstanding) > 8:
                    done = outstanding.pop(0)
                    for fade in (memoized, inline):
                        fade.handler_completed(done)
    assert memoized.pipeline.md_cache.cache_stats.hits == (
        inline.pipeline.md_cache.cache_stats.hits
    )
    assert memoized.pipeline.md_cache.cache_stats.misses == (
        inline.pipeline.md_cache.cache_stats.misses
    )
    assert memoized.pipeline.md_cache.tlb_stats.hits == (
        inline.pipeline.md_cache.tlb_stats.hits
    )
    if non_blocking:
        assert memoized.fsq.inserts == inline.fsq.inserts
    assert memoized.stats == inline.stats
    # The memo actually engaged, replaying commits too (otherwise this
    # test proves nothing).
    assert pipeline.memo_value_hits > 0
    assert inline.pipeline.memo_value_hits == 0
    if non_blocking:
        assert committing_hits > 0


def _assert_mirrored(memoized, inline, event):
    outcome = memoized.process_event(event)
    assert outcome == inline.process_event(event)
    return outcome


def test_value_memo_rekeys_on_metadata_change():
    """The memo key holds the metadata values the cached decision read, so
    changing any of them — the exact register read, an INV value a clean
    check compares against, or the word's FSQ-forwarded value — re-keys
    the lookup and the walk decides afresh; writes elsewhere leave the
    cached decision in use."""
    fades = _mirrored_fades()
    memoized, inline = fades
    pipeline = memoized.pipeline

    def decide(event):
        return _assert_mirrored(memoized, inline, event).filtered

    def write_register(index, value):
        for fade in fades:
            fade.pipeline.md_registers.write(index, value)

    def assert_hit(event):
        hits = pipeline.memo_value_hits
        assert decide(event)
        assert pipeline.memo_value_hits == hits + 1

    def assert_miss(event):
        misses = pipeline.memo_misses
        assert not decide(event)
        assert pipeline.memo_misses == misses + 1
        # The unfiltered event's Non-Blocking commit may have changed its
        # destination's byte; put every register back to DEFINED.
        for index in range(8):
            write_register(index, 0x03)

    alu = MonitoredEvent(
        event_id=event_id_for(OpClass.ALU, 2),
        app_pc=0, src1_reg=1, src2_reg=2, dest_reg=3, sequence=0,
    )
    assert decide(alu)  # All registers default to DEFINED.
    assert_hit(alu)
    write_register(7, 0x01)  # A register the event does not read.
    assert_hit(alu)
    write_register(2, 0x01)  # The exact register read: src2 undefined.
    assert_miss(alu)
    assert_hit(alu)  # Back to the cached values.

    # An INV reprogram: the clean check's "defined" encoding changes.
    inv_id = pipeline.event_table.chain(alu.event_id)[0][1].s1.inv_id
    defined = memoized.inv_rf.read(inv_id)
    for fade in fades:
        fade.write_invariant(inv_id, 0x01)
    assert_miss(alu)
    for fade in fades:
        fade.write_invariant(inv_id, defined)
    assert_hit(alu)

    # An FSQ insert on the event's word: a load of an initialised word
    # filters until an in-flight update forwards "unallocated".
    load = MonitoredEvent(
        event_id=event_id_for(OpClass.LOAD, 1),
        app_pc=0, app_addr=0x1000, dest_reg=4, sequence=1,
    )
    for fade in fades:
        fade.pipeline.md_memory.write(0x1000, 0x03)
    assert decide(load)
    assert_hit(load)
    for fade in fades:
        fade.fsq.insert(0x1000, 0x00, owner_sequence=99)
    assert_miss(load)
    for fade in fades:
        fade.handler_completed(99)
    assert_hit(load)


def test_unfiltered_set_const_hit_commits_the_current_inv():
    """An unfiltered SET_CONST store replays its commit from the memo; the
    update's INV joins the key although no check compares against it, so
    after ``write_invariant`` on it the next identical store commits the
    new value."""
    fades = _mirrored_fades("update-rich")
    memoized, inline = fades
    pipeline = memoized.pipeline

    def store(address, sequence):
        # Register 1 is defined and every word starts at 0x00, so the
        # store's clean check fails and the update commits to its word.
        event = MonitoredEvent(
            event_id=event_id_for(OpClass.STORE, 1),
            app_pc=0, app_addr=address, src1_reg=1, sequence=sequence,
        )
        outcome = _assert_mirrored(memoized, inline, event)
        _assert_same_metadata(memoized, inline)
        assert not outcome.filtered
        for fade in fades:
            fade.handler_completed(sequence)
        return outcome.md_update

    assert store(0x1000, 0) == ("mem", 0x1000, 0x05)
    hits = pipeline.memo_value_hits
    assert store(0x2000, 1) == ("mem", 0x2000, 0x05)
    assert pipeline.memo_value_hits == hits + 1  # Replayed, not rewalked.
    for fade in fades:
        fade.write_invariant(_STORE_TAG_INV, 0x07)
    assert store(0x3000, 2) == ("mem", 0x3000, 0x07)
    assert pipeline.md_memory.read(0x3000) == 0x07
    assert memoized.stats.md_updates_committed == 3


def test_table_reprogramming_retires_cached_decisions():
    """Writing the event table retires every cached decision: the next
    event with a cached key walks the new chain."""
    fades = _mirrored_fades("update-rich")
    memoized, inline = fades
    alu = MonitoredEvent(
        event_id=event_id_for(OpClass.ALU, 2),
        app_pc=0, src1_reg=1, src2_reg=2, dest_reg=3, sequence=0,
    )
    assert _assert_mirrored(memoized, inline, alu).filtered
    assert _assert_mirrored(memoized, inline, alu).filtered  # A memo hit.
    hits = memoized.pipeline.memo_value_hits
    for fade in fades:
        # Every register holds "defined" (0x03); the new check wants 0x01.
        fade.event_table.program(
            alu.event_id,
            EventTableEntry(
                s1=ProgramBuilder.reg_operand(inv_id=_ALLOCATED_INV), cc=True
            ),
        )
    assert not _assert_mirrored(memoized, inline, alu).filtered
    assert memoized.pipeline.memo_value_hits == hits
