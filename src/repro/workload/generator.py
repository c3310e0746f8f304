"""Synthetic trace generation.

The generator maintains a lightweight ground-truth machine state (which
registers and words currently hold pointers or taint, which words are
initialised, the live heap and stack) and uses it to *bias* operand choices so
that the emitted stream exhibits the target statistics: mostly clean accesses
(filterable), pointer/taint densities that set the monitors' unfiltered rates,
and allocation-initialisation bursts that produce the clustered unfiltered
events of Figure 4(b, c).

The generated traces are clean by construction — no use-after-free, no reads
of uninitialised data, no tainted jump targets — so any report a monitor
raises on a generated trace is a false positive (tested).  Buggy traces come
from :mod:`repro.workload.bugs`.

Traces are emitted directly as :class:`~repro.workload.packed.PackedTrace`
columns — the hot emit path appends machine integers, never constructs
per-item ``Instruction``/``HighLevelEvent`` objects.  The packed trace's lazy
item view materialises identical objects on demand, so every consumer sees
the same trace an object emitter would have produced.
"""

from __future__ import annotations

from bisect import bisect
from collections import deque
from itertools import accumulate
from typing import Deque, Dict, List, Optional, Set

from repro.common.rng import DeterministicRng
from repro.common.units import WORD_SIZE
from repro.isa.opcodes import OpClass
from repro.workload.heap import HeapModel
from repro.workload.packed import (
    DEPENDS_BIT,
    DEST_SHIFT,
    HL_INDEX,
    KIND_INSTRUCTION,
    OP_CLASSES,
    OP_INDEX,
    OPERAND_MEMORY,
    OPERAND_REGISTER,
    SRC2_SHIFT,
    PackedTrace,
    PackedTraceBuilder,
)
from repro.workload.profile import BenchmarkProfile
from repro.workload.stack import CallStackModel
from repro.workload.trace import HighLevelKind

#: Base of the statically allocated (global/data) segment.
GLOBAL_BASE = 0x0040_0000
#: Base of the shared-data segment used by parallel profiles.
SHARED_BASE = 0x3000_0000
#: Base of the lazily shadowed segment (fresh-region touches).
FRESH_BASE = 0x2000_0000
#: Base of the code segment (PC values).
CODE_BASE = 0x0001_0000

#: Number of general-purpose registers; register 0 is the hardwired zero.
NUM_REGISTERS = 32

#: Registers 1..POINTER_REG_MAX hold addresses (the compiler's pointer
#: working set); higher registers hold data.  Segregating destinations keeps
#: register pointer density under the profile's control — without it, random
#: destination picks constantly clobber pointer registers and every such
#: event needs MemLeak reference-count work, saturating the unfiltered rate.
POINTER_REG_MAX = 8

#: Pointer stores are this much more likely inside an allocation-init burst,
#: modelling linked-structure construction (nodes are linked as they are
#: initialised) — the dominant source of MemLeak's unfiltered bursts.
_BURST_POINTER_BOOST = 3.0

#: Size of the streaming sub-segment of the global data segment.
STREAM_REGION_BYTES = 256 * 1024

# Hoisted column codes for the packed emit path.
_OP_LOAD = OP_INDEX[OpClass.LOAD]
_OP_STORE = OP_INDEX[OpClass.STORE]
_OP_ALU = OP_INDEX[OpClass.ALU]
_OP_MOVE = OP_INDEX[OpClass.MOVE]
_OP_FP = OP_INDEX[OpClass.FP]
_OP_BRANCH = OP_INDEX[OpClass.BRANCH]
_OP_CALL = OP_INDEX[OpClass.CALL]
_OP_RETURN = OP_INDEX[OpClass.RETURN]
_OP_NOP = OP_INDEX[OpClass.NOP]

_HL_MALLOC = HL_INDEX[HighLevelKind.MALLOC]
_HL_FREE = HL_INDEX[HighLevelKind.FREE]
_HL_TAINT_SOURCE = HL_INDEX[HighLevelKind.TAINT_SOURCE]
_HL_THREAD_SWITCH = HL_INDEX[HighLevelKind.THREAD_SWITCH]
_HL_PROGRAM_EXIT = HL_INDEX[HighLevelKind.PROGRAM_EXIT]

_REG = OPERAND_REGISTER
_MEM = OPERAND_MEMORY


#: Op-pick outcomes, in the order of the profile's mix weights (7 is NOP).
_PICK_LOAD = 0
_PICK_STORE = 1
_PICK_ALU1 = 2
_PICK_ALU2 = 3
_PICK_MOVE = 4
_PICK_FP = 5
_PICK_BRANCH = 6

#: Packed op codes that draw ``depends_on_prev`` (every op class except the
#: stack ops and NOP, which are emitted independent without a draw).
_DRAWS_DEPENDS = tuple(
    op not in (OpClass.CALL, OpClass.RETURN, OpClass.NOP) for op in OP_CLASSES
)

#: ``flags`` column values per instruction shape (depends bit added later).
_FLAGS_LOAD = _MEM | (_REG << DEST_SHIFT)
_FLAGS_STORE = _REG | (_MEM << DEST_SHIFT)
_FLAGS_REG1_DEST = _REG | (_REG << DEST_SHIFT)
_FLAGS_REG2_DEST = _REG | (_REG << SRC2_SHIFT) | (_REG << DEST_SHIFT)
_FLAGS_REG1 = _REG
_FLAGS_REG2 = _REG | (_REG << SRC2_SHIFT)

#: ``randint(0, 1 << 16)`` PC scatter, as a ``randbelow`` bound.
_PC_SCATTER_SPAN = (1 << 16) + 1
#: ``randint(1, NUM_REGISTERS - 1)`` and the two destination partitions.
_ANY_REGS = NUM_REGISTERS - 1
_DATA_REGS = NUM_REGISTERS - 1 - POINTER_REG_MAX


class TraceGenerator:
    """Generates one synthetic trace for a benchmark profile."""

    def __init__(self, profile: BenchmarkProfile, seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed
        self._rng = DeterministicRng(seed, profile.name, "trace")
        self._randbelow = self._rng.randbelow
        self._random = self._rng.random
        self._heap = HeapModel(self._rng.child("heap"))
        self._stack = CallStackModel(self._rng.child("stack"), profile.max_call_depth)

        # Ground-truth metadata used only to bias operand selection.
        self._pointer_regs: Set[int] = set()
        self._tainted_regs: Set[int] = set()
        self._pointer_words: List[int] = []  # list for O(1) random choice
        self._pointer_word_set: Set[int] = set()
        self._tainted_words: List[int] = []
        self._tainted_word_set: Set[int] = set()
        self._initialized_words: Set[int] = set()
        self._frame_written: Dict[int, List[int]] = {}

        # Hot working set of initialised global words, plus a streaming
        # region, both inside the statically allocated global segment.
        self._hot_words: List[int] = list(
            range(
                GLOBAL_BASE,
                GLOBAL_BASE + profile.hot_set_words * WORD_SIZE,
                WORD_SIZE,
            )
        )
        self._stream_start = GLOBAL_BASE + profile.hot_set_words * WORD_SIZE
        self._stream_end = self._stream_start + STREAM_REGION_BYTES
        # One stream cursor per thread, each walking its own slice, so
        # streaming never generates cross-thread accesses.
        threads = max(1, profile.num_threads)
        slice_bytes = (STREAM_REGION_BYTES // threads) & ~(WORD_SIZE - 1)
        self._stream_slices = [
            (
                self._stream_start + thread * slice_bytes,
                self._stream_start + (thread + 1) * slice_bytes,
            )
            for thread in range(threads)
        ]
        self._stream_cursors = [start for start, _ in self._stream_slices]
        self._hot_cursor = 0
        self._fresh_cursor = FRESH_BASE
        self._shared_word_list: List[int] = list(
            range(
                SHARED_BASE,
                SHARED_BASE + profile.shared_words * WORD_SIZE,
                WORD_SIZE,
            )
        )

        self._pending_init: Deque[int] = deque()
        self._thread = 0
        self._builder = PackedTraceBuilder()
        self._add_hl = self._builder.add_high_level

        # Opcode pick: random.choices' arithmetic over precomputed cumulative
        # weights (one random() per pick, the same bisection), in the
        # _PICK_* order.
        self._op_cum_weights = list(
            accumulate(
                (
                    profile.load_weight,
                    profile.store_weight,
                    profile.alu1_weight,
                    profile.alu2_weight,
                    profile.move_weight,
                    profile.fp_weight,
                    profile.branch_weight,
                    profile.nop_weight,
                )
            )
        )
        self._op_total = self._op_cum_weights[-1] + 0.0

    # ------------------------------------------------------------------ API

    def generate(self, num_instructions: int) -> PackedTrace:
        """Produce a trace with exactly ``num_instructions`` instructions
        (at least one: the main frame's CALL).

        One loop with hoisted locals.  Each pass first *chooses* an item —
        structural high-level steps (taint source, malloc, free) happen in
        the choice loop and choose again — then *emits* the chosen
        instruction: the PC draw, the ``depends_on_prev`` draw, the column
        appends and the thread-switch countdown.  The draw order per item is
        fixed (see DESIGN.md §6, "Trace synthesis hot loop").
        """
        profile = self.profile
        draw = self._random
        randbelow = self._randbelow
        stack = self._stack
        pending_init = self._pending_init
        popleft = pending_init.popleft
        pointer_regs = self._pointer_regs
        tainted_regs = self._tainted_regs
        pointer_word_set = self._pointer_word_set
        tainted_word_set = self._tainted_word_set
        initialized_add = self._initialized_words.add
        set_word_pointer = self._set_word_pointer
        set_word_tainted = self._set_word_tainted
        pick_clean = self._pick_clean_register
        choose_load_address = self._choose_load_address
        choose_data_address = self._choose_data_address
        cum_weights = self._op_cum_weights
        op_total = self._op_total
        op_hi = len(cum_weights) - 1
        draws_depends = _DRAWS_DEPENDS
        (
            col_f0, col_f1, col_f2, col_f3, col_f4, col_f5,
            col_kind, col_op, col_flags, col_thread,
        ) = self._builder.appends

        # Per-profile probabilities, read once.  Every ``chance(p)`` below is
        # inlined as ``p > 0.0 and (p >= 1.0 or draw() < p)``: no draw at
        # p <= 0 or p >= 1, exactly like DeterministicRng.chance.
        p_init = profile.init_burst_intensity
        p_taint_source = profile.taint_source_rate
        p_malloc = profile.malloc_rate
        p_free = profile.malloc_rate * profile.free_fraction
        p_call = profile.call_rate
        p_dep = profile.dep_prob
        p_pointer_store = profile.pointer_store_fraction
        p_pointer_store_burst = min(1.0, p_pointer_store * _BURST_POINTER_BOOST)
        p_taint_alu = profile.taint_alu_fraction
        p_pointer_alu = profile.pointer_alu_fraction
        parallel = profile.parallel
        num_threads = profile.num_threads
        switch_period = profile.thread_switch_period

        self._emit_startup()
        pc = CODE_BASE
        thread = self._thread
        until_switch = switch_period
        count = 0

        # The first instruction is the main frame's CALL.
        op_code = _OP_CALL
        frame = self._call_frame()
        v1 = v2 = v3 = flags = 0
        frame_base = frame.base
        frame_size = frame.size
        while True:
            # --- emit the chosen instruction --------------------------------
            pc += 4
            if draw() < 0.05:  # Taken branches/jumps scatter PCs.
                pc = CODE_BASE + randbelow(_PC_SCATTER_SPAN) * 4
            if draws_depends[op_code] and p_dep > 0.0 and (
                p_dep >= 1.0 or draw() < p_dep
            ):
                flags |= DEPENDS_BIT
            col_f0(pc)
            col_f1(v1)
            col_f2(v2)
            col_f3(v3)
            col_f4(frame_base)
            col_f5(frame_size)
            col_kind(KIND_INSTRUCTION)
            col_op(op_code)
            col_flags(flags)
            col_thread(thread)
            count += 1
            if parallel:
                until_switch -= 1
                if until_switch <= 0:
                    thread = self._thread = (thread + 1) % num_threads
                    until_switch = switch_period
                    self._add_hl(_HL_THREAD_SWITCH, 0, 0, 0, thread, False)
            if count >= num_instructions:
                break

            # --- choose the next instruction --------------------------------
            frame_base = frame_size = 0
            while True:
                # A pending allocation-init burst takes priority: it models
                # the store burst that immediately follows a malloc.
                if pending_init and p_init > 0.0 and (
                    p_init >= 1.0 or draw() < p_init
                ):
                    address = popleft()
                    p_pointer = p_pointer_store_burst
                    pick = _PICK_STORE
                else:
                    if p_taint_source > 0.0 and (
                        p_taint_source >= 1.0 or draw() < p_taint_source
                    ):
                        self._do_buffer_taint_source()
                        continue
                    if p_malloc > 0.0 and (p_malloc >= 1.0 or draw() < p_malloc):
                        self._do_malloc()
                        continue
                    if p_free > 0.0 and (p_free >= 1.0 or draw() < p_free):
                        self._do_free()
                        continue
                    if p_call > 0.0 and (p_call >= 1.0 or draw() < p_call):
                        # Keep depth roughly balanced around a slowly
                        # wandering level.
                        if stack.can_return and (
                            not stack.can_call or draw() < 0.5
                        ):
                            op_code = _OP_RETURN
                            frame = self._return_frame()
                        else:
                            op_code = _OP_CALL
                            frame = self._call_frame()
                        v1 = v2 = v3 = flags = 0
                        frame_base = frame.base
                        frame_size = frame.size
                        break
                    address = None
                    p_pointer = p_pointer_store
                    pick = bisect(cum_weights, draw() * op_total, 0, op_hi)

                if pick == _PICK_LOAD:
                    address = choose_load_address()
                    if address in pointer_word_set:
                        dest = 1 + randbelow(POINTER_REG_MAX)
                    else:
                        dest = POINTER_REG_MAX + 1 + randbelow(_DATA_REGS)
                    pointer_regs.discard(dest)
                    tainted_regs.discard(dest)
                    if address in pointer_word_set:
                        pointer_regs.add(dest)
                    if address in tainted_word_set:
                        tainted_regs.add(dest)
                    op_code = _OP_LOAD
                    v1, v2, v3, flags = address, 0, dest, _FLAGS_LOAD
                elif pick == _PICK_STORE:
                    src = None
                    if p_pointer > 0.0 and (p_pointer >= 1.0 or draw() < p_pointer):
                        src = self._pick_pointer_register()
                    if src is None and p_taint_alu > 0.0 and (
                        p_taint_alu >= 1.0 or draw() < p_taint_alu
                    ):
                        src = self._pick_tainted_register()
                    if src is None:
                        src = pick_clean()
                    if address is None:
                        address = choose_data_address(True)
                    initialized_add(address)
                    set_word_pointer(address, src in pointer_regs)
                    set_word_tainted(address, src in tainted_regs)
                    op_code = _OP_STORE
                    v1, v2, v3, flags = src, 0, address, _FLAGS_STORE
                elif pick == _PICK_ALU1 or pick == _PICK_ALU2:
                    num_sources = 1 if pick == _PICK_ALU1 else 2
                    sources = []
                    if p_pointer_alu > 0.0 and (
                        p_pointer_alu >= 1.0 or draw() < p_pointer_alu
                    ):
                        pointer_reg = self._pick_pointer_register()
                        if pointer_reg is not None:
                            sources.append(pointer_reg)
                    if p_taint_alu > 0.0 and (
                        p_taint_alu >= 1.0 or draw() < p_taint_alu
                    ):
                        tainted_reg = self._pick_tainted_register()
                        if tainted_reg is not None and len(sources) < num_sources:
                            sources.append(tainted_reg)
                    while len(sources) < num_sources:
                        sources.append(pick_clean())
                    if num_sources == 1:
                        v1 = sources[0]
                        v2 = 0
                        is_pointer = v1 in pointer_regs
                        is_tainted = v1 in tainted_regs
                        flags = _FLAGS_REG1_DEST
                    else:
                        v1, v2 = sources
                        is_pointer = v1 in pointer_regs or v2 in pointer_regs
                        is_tainted = v1 in tainted_regs or v2 in tainted_regs
                        flags = _FLAGS_REG2_DEST
                    if is_pointer:
                        dest = 1 + randbelow(POINTER_REG_MAX)
                    else:
                        dest = POINTER_REG_MAX + 1 + randbelow(_DATA_REGS)
                    pointer_regs.discard(dest)
                    tainted_regs.discard(dest)
                    if is_pointer:
                        pointer_regs.add(dest)
                    if is_tainted:
                        tainted_regs.add(dest)
                    op_code = _OP_ALU
                    v3 = dest
                elif pick == _PICK_MOVE:
                    src = None
                    if p_pointer_alu > 0.0 and (
                        p_pointer_alu >= 1.0 or draw() < p_pointer_alu
                    ):
                        src = self._pick_pointer_register()
                    if src is None:
                        src = pick_clean()
                    if src in pointer_regs:
                        dest = 1 + randbelow(POINTER_REG_MAX)
                    else:
                        dest = POINTER_REG_MAX + 1 + randbelow(_DATA_REGS)
                    # Discard first: a move onto its own source clears it.
                    pointer_regs.discard(dest)
                    tainted_regs.discard(dest)
                    if src in pointer_regs:
                        pointer_regs.add(dest)
                    if src in tainted_regs:
                        tainted_regs.add(dest)
                    op_code = _OP_MOVE
                    v1, v2, v3, flags = src, 0, dest, _FLAGS_REG1_DEST
                elif pick == _PICK_FP:
                    # FP operands live in the (untracked) floating-point
                    # register file; no monitor observes FP instructions, and
                    # FP results never carry pointers or taint, so the event
                    # has no destination to shadow.
                    if draw() < 0.5:
                        v1 = 1 + randbelow(_ANY_REGS)
                        v2 = 1 + randbelow(_ANY_REGS)
                        flags = _FLAGS_REG2
                    else:
                        v1 = 1 + randbelow(_ANY_REGS)
                        v2 = 0
                        flags = _FLAGS_REG1
                    op_code = _OP_FP
                    v3 = 0
                elif pick == _PICK_BRANCH:
                    # Clean programs never branch through tainted or
                    # undefined data; buggy traces (workload.bugs) construct
                    # those flows explicitly.
                    op_code = _OP_BRANCH
                    v1, v2, v3, flags = pick_clean(), 0, 0, _FLAGS_REG1
                else:
                    op_code = _OP_NOP
                    v1 = v2 = v3 = flags = 0
                break

        self._add_hl(_HL_PROGRAM_EXIT, 0, 0, 0, self._thread, False)
        return self._builder.build(name=self.profile.name, seed=self.seed)

    # ------------------------------------------------------------- internals

    def _emit_startup(self) -> None:
        """Register the global segment (and the shared one).

        The globals MALLOC tells monitors the static data segment is
        allocated and initialised at program start; :meth:`generate` then
        emits the CALL of the main stack frame.
        """
        global_size = (
            self.profile.hot_set_words * WORD_SIZE + STREAM_REGION_BYTES
        )
        self._add_hl(_HL_MALLOC, GLOBAL_BASE, global_size, 0, self._thread, True)
        if self.profile.parallel:
            self._add_hl(
                _HL_MALLOC,
                SHARED_BASE,
                self.profile.shared_words * WORD_SIZE,
                0,
                self._thread,
                True,
            )
        self._initialized_words.update(self._hot_words)
        self._initialized_words.update(self._shared_word_list)

    # --- operand selection helpers -------------------------------------------

    def _pick_clean_register(self) -> int:
        """A register holding neither a pointer nor taint.

        Undirected operand picks draw from clean registers so that pointer
        and taint densities stay under the profile's control instead of
        saturating the register file through accidental propagation.
        """
        randbelow = self._randbelow
        pointer_regs = self._pointer_regs
        tainted_regs = self._tainted_regs
        for _ in range(8):
            reg = 1 + randbelow(_ANY_REGS)
            if reg not in pointer_regs and reg not in tainted_regs:
                return reg
        return 1 + randbelow(_ANY_REGS)

    def _pick_pointer_register(self) -> Optional[int]:
        if not self._pointer_regs:
            return None
        regs = sorted(self._pointer_regs)
        return regs[self._randbelow(len(regs))]

    def _pick_tainted_register(self) -> Optional[int]:
        if not self._tainted_regs:
            return None
        regs = sorted(self._tainted_regs)
        return regs[self._randbelow(len(regs))]

    def _choose_load_address(self) -> int:
        """Pick a word to read; always an initialised, allocated word."""
        profile = self.profile
        draw = self._random
        bias = profile.pointer_load_bias
        if bias > 0.0 and self._pointer_words and (bias >= 1.0 or draw() < bias):
            address = self._pick_live(self._pointer_words, self._pointer_word_set)
            if address is not None:
                return address
        bias = profile.taint_load_bias
        if bias > 0.0 and self._tainted_words and (bias >= 1.0 or draw() < bias):
            address = self._pick_live(self._tainted_words, self._tainted_word_set)
            if address is not None:
                return address
        return self._choose_data_address(False)

    def _pick_live(self, candidates: List[int], live: Set[int]) -> Optional[int]:
        """Pick from ``candidates`` verifying against ``live`` (the candidate
        list uses lazy deletion, so it may contain freed/overwritten words —
        choosing one of those would synthesise a use-after-free)."""
        randbelow = self._randbelow
        count = len(candidates)
        for _ in range(6):
            address = candidates[randbelow(count)]
            if address in live:
                return address
        return None

    def _choose_data_address(self, for_write: bool) -> int:
        profile = self.profile
        draw = self._random
        roll = draw()
        if profile.parallel and roll < profile.shared_fraction:
            return self._sticky_pick(self._shared_word_list, for_write)
        p = profile.fresh_region_rate
        if p > 0.0 and (p >= 1.0 or draw() < p):
            self._fresh_cursor += WORD_SIZE
            self._initialized_words.add(self._fresh_cursor)
            return self._fresh_cursor
        p = profile.stack_access_fraction
        if p > 0.0 and (p >= 1.0 or draw() < p):
            address = self._choose_stack_address(for_write)
            if address is not None:
                return address
        p = profile.locality
        if p > 0.0 and (p >= 1.0 or draw() < p):
            if profile.parallel:
                # Non-shared data is thread-private: each thread owns a
                # partition of the hot set, so private re-references stay
                # same-thread (what AtomCheck's common case relies on).
                partition = self._hot_words[self._thread :: profile.num_threads]
                return self._sticky_pick(partition, for_write)
            return self._clustered_hot_pick()
        p = profile.stream_fraction
        if p > 0.0 and (p >= 1.0 or draw() < p):
            thread = self._thread
            start, end = self._stream_slices[thread]
            cursor = self._stream_cursors[thread] + WORD_SIZE
            if cursor >= end:
                cursor = start
            self._stream_cursors[thread] = cursor
            self._initialized_words.add(cursor)
            return cursor
        if profile.parallel:
            # Heap allocations are not partitioned by owner, so random heap
            # picks would look like cross-thread sharing; parallel profiles
            # keep their sharing in the dedicated shared segment instead.
            partition = self._hot_words[self._thread :: profile.num_threads]
            return self._sticky_pick(partition, for_write)
        allocation = self._heap.random_live()
        if allocation is None:
            return self._clustered_hot_pick()
        word = allocation.word_at(self._randbelow(max(1, allocation.num_words)))
        if not for_write and word not in self._initialized_words:
            # Reading it would be an uninitialised read; fall back to hot set.
            return self._clustered_hot_pick()
        return word

    def _clustered_hot_pick(self) -> int:
        """Hot-set pick with page-level clustering.

        Consecutive hot accesses mostly land near each other (within a few
        cache blocks), occasionally jumping to a new region — the locality
        real programs exhibit and the MD cache and M-TLB rely on.
        """
        count = len(self._hot_words)
        p = self.profile.page_locality
        if p > 0.0 and (p >= 1.0 or self._random() < p):
            # randint(-24, 24): a step of up to 24 words either way.
            self._hot_cursor = (self._hot_cursor - 24 + self._randbelow(49)) % count
        else:
            self._hot_cursor = self._randbelow(count)
        return self._hot_words[self._hot_cursor]

    def _sticky_pick(self, words: List[int], for_write: bool) -> int:
        """Type-sticky word choice for parallel profiles.

        Real parallel programs access a given word with a consistent pattern
        (read-mostly data versus producer-updated data).  Words at indices
        ``3 (mod 4)`` are write-mostly; the rest are read-mostly; 90% of
        accesses respect the word's role.  This keeps AtomCheck's
        same-thread-same-type common case dominant, as the paper observes.
        """
        randbelow = self._randbelow
        count = len(words)
        if count < 4:
            return self._rng.choice(words)
        wants_write_word = for_write == (self._random() < 0.98)
        for _ in range(6):
            index = randbelow(count)
            if (index % 4 == 3) == wants_write_word:
                return words[index]
        return words[randbelow(count)]

    def _choose_stack_address(self, for_write: bool) -> Optional[int]:
        frame = self._stack.current_frame()
        if frame is None:
            return None
        written = self._frame_written.setdefault(frame.base, [])
        if for_write or not written:
            if not for_write:
                return None  # Nothing written yet; a read would be uninit.
            word = frame.word_at(self._randbelow(max(1, frame.num_words)))
            if word not in written:
                written.append(word)
            return word
        return written[self._randbelow(len(written))]

    # --- ground-truth metadata updates ---------------------------------------

    def _set_word_pointer(self, address: int, is_pointer: bool) -> None:
        if is_pointer and address not in self._pointer_word_set:
            self._pointer_word_set.add(address)
            self._pointer_words.append(address)
        elif not is_pointer and address in self._pointer_word_set:
            self._pointer_word_set.discard(address)
            # Lazy deletion keeps this O(1); stale entries are re-checked.
            if len(self._pointer_words) > 4 * len(self._pointer_word_set) + 64:
                self._pointer_words[:] = sorted(self._pointer_word_set)

    def _set_word_tainted(self, address: int, tainted: bool) -> None:
        if tainted and address not in self._tainted_word_set:
            self._tainted_word_set.add(address)
            self._tainted_words.append(address)
        elif not tainted and address in self._tainted_word_set:
            self._tainted_word_set.discard(address)
            if len(self._tainted_words) > 4 * len(self._tainted_word_set) + 64:
                self._tainted_words[:] = sorted(self._tainted_word_set)

    # --- structural emitters ------------------------------------------------------

    def _call_frame(self):
        """Push a new stack frame; :meth:`generate` emits its CALL."""
        size = min(
            self.profile.frame_size_max,
            self._rng.pareto_int(self.profile.frame_size_mean // 2, shape=2.0),
        )
        return self._stack.call(size)

    def _return_frame(self):
        """Pop the innermost frame; :meth:`generate` emits its RETURN."""
        frame = self._stack.ret()
        self._frame_written.pop(frame.base, None)
        # The frame is dead: scrub its words from the ground-truth sets so
        # no biased operand pick resurrects a dangling stack address.
        for index in range(frame.num_words):
            word = frame.base + index * WORD_SIZE
            self._set_word_pointer(word, False)
            self._set_word_tainted(word, False)
            self._initialized_words.discard(word)
        return frame

    def _do_malloc(self) -> None:
        size = min(
            self.profile.alloc_size_max,
            self._rng.pareto_int(self.profile.alloc_size_mean // 2, shape=1.6),
        )
        allocation = self._heap.malloc(size)
        dest = 1 + self._randbelow(POINTER_REG_MAX)
        self._add_hl(
            _HL_MALLOC, allocation.base, allocation.size, dest, self._thread, False
        )
        self._pointer_regs.add(dest)
        self._tainted_regs.discard(dest)
        init_words = int(allocation.num_words * self.profile.init_burst_fraction)
        for index in range(init_words):
            self._pending_init.append(allocation.base + index * WORD_SIZE)
        if self._rng.chance(self.profile.taint_source_fraction):
            tainted_bytes = allocation.size
            self._add_hl(
                _HL_TAINT_SOURCE,
                allocation.base,
                tainted_bytes,
                0,
                self._thread,
                False,
            )
            for index in range(allocation.num_words):
                word = allocation.base + index * WORD_SIZE
                self._set_word_tainted(word, True)
                self._initialized_words.add(word)

    def _do_buffer_taint_source(self) -> None:
        """External input (read/recv) lands in a span of the global segment."""
        span_words = 16 + self._randbelow(49)  # randint(16, 64)
        start_index = self._randbelow(max(1, len(self._hot_words) - span_words))
        base = self._hot_words[start_index]
        self._add_hl(
            _HL_TAINT_SOURCE, base, span_words * WORD_SIZE, 0, self._thread, False
        )
        for index in range(span_words):
            word = base + index * WORD_SIZE
            self._set_word_tainted(word, True)
            self._initialized_words.add(word)

    def _do_free(self) -> None:
        allocation = self._heap.free_random()
        if allocation is None:
            return
        pending = self._pending_init
        if pending:
            # Drop queued initialisation stores aimed at the freed region —
            # letting them run would synthesise use-after-free stores.  In
            # place: generate() holds the deque.
            kept = [address for address in pending if not allocation.contains(address)]
            pending.clear()
            pending.extend(kept)
        for index in range(allocation.num_words):
            word = allocation.base + index * WORD_SIZE
            self._set_word_pointer(word, False)
            self._set_word_tainted(word, False)
            self._initialized_words.discard(word)
        self._add_hl(
            _HL_FREE, allocation.base, allocation.size, 0, self._thread, False
        )


def generate_trace(
    profile: BenchmarkProfile, num_instructions: int, seed: int = 0
) -> PackedTrace:
    """Convenience wrapper: build a generator and produce one trace."""
    return TraceGenerator(profile, seed=seed).generate(num_instructions)
