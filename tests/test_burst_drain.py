"""Unit tests for the filtering support machinery: the per-word/per-owner
FSQ, the inlined MD-cache access path and the value-keyed filter memo."""

import random

import pytest

from repro.fade.accelerator import Fade, FadeConfig
from repro.fade.fsq import FilterStoreQueue
from repro.isa.events import MonitoredEvent
from repro.isa.opcodes import OpClass, event_id_for
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


# ------------------------------------------------------------ filter memo


def _mirrored_fades(monitor_name="memcheck", non_blocking=True):
    """Two identically-programmed FADE instances, one memoized, one inline."""
    fades = []
    for memo in (True, False):
        monitor = create_monitor(monitor_name)
        fades.append(
            Fade(
                program=monitor.fade_program(),
                md_registers=monitor.critical_regs,
                md_memory=monitor.critical_mem,
                config=FadeConfig(non_blocking=non_blocking, filter_memo=memo),
            )
        )
    return fades


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
    produces bit-identical outcomes and MD-cache/TLB statistics."""
    rng = random.Random(seed)
    memoized, inline = _mirrored_fades(non_blocking=non_blocking)
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
            value = rng.choice([0x01, 0x03])
            for fade in (memoized, inline):
                fade.write_invariant(0, value)
        elif roll < 0.25 and outstanding:
            done = outstanding.pop(rng.randrange(len(outstanding)))
            for fade in (memoized, inline):
                fade.handler_completed(done)
        else:
            event = _random_event(rng, sequence)
            a = memoized.process_event(event)
            b = inline.process_event(event)
            assert a == b, f"divergence at #{sequence}: {a} vs {b}"
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
    # The memo actually engaged (otherwise this test proves nothing).
    assert memoized.pipeline.memo_value_hits > 0
    assert inline.pipeline.memo_value_hits == 0


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
