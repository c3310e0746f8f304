"""Batched filtered-event prediction for fused drain windows.

:class:`VectorPredictor` is a drop-in for ``FilteringPipeline.process`` on
the event engine's burst-drain path.  Instead of building one value-memo
key per event (tuple construction, dict probes and attribute chasing on
every filtered event — the scalar engine's dominant cost), it lowers a
*batch* of upcoming monitored events to NumPy column operations:

* operand metadata is gathered as array ops over the shadow-register bytes
  and per-unique-word FSQ / shadow-memory lookups;
* value keys are packed into int64 lanes and deduplicated with
  ``np.unique``, so the filter memo is probed once per *distinct* key
  instead of once per event;
* each prediction replays through the exact arithmetic of the scalar
  value-hit path (base cycles + per-event MD-cache accesses), so outcomes
  are bit-identical.

Validation is generational with per-slot value fallback, mirroring the
two-level scalar memo: every metadata store already bumps a global
generation counter on every value-changing mutation, so a prediction whose
stores' counters still match its build snapshot replays immediately.  When
a counter moved (an unfiltered event's metadata commit, an FSQ
insert/release, a register write), only predictions that *read* the
changed store re-verify — by comparing the handful of byte values their
key was built from against the live stores — so one write never discards
a batch.  Event-table reprogramming drops the batch (every chain shape is
suspect), and events the kernels cannot predict (memo misses,
unprogrammed ids, out-of-byte-range metadata) take the unchanged scalar
path: fallback is structural, never hoped-for.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Optional

from repro.fade.pipeline import EventOutcome, HandlerKind
from repro.kernels import counter_add, timer_add
from repro.kernels.columns import plan_columns
from repro.kernels.stats import batch_summary
from repro.verify.coverage import COVERAGE as _COVERAGE

#: Encodes "operand absent" in a 9-bit key lane (valid bytes are 0..255).
_NONE_LANE = 256
#: Batch sizing: adaptive between these bounds, doubling whenever a batch
#: is fully consumed (build overhead amortizes over more events).
_MIN_BATCH = 128
_MAX_BATCH = 4096

_HK_NONE = HandlerKind.NONE


class VectorPredictor:
    """Per-run batched predictor over one (plan, pipeline) pair."""

    __slots__ = (
        "_np",
        "_pipeline",
        "columns",
        "_scalar",
        "_access_cycles",
        "_filter_logic",
        "_fsq",
        "_event_table",
        "_inv_rf",
        "_md_registers",
        "_md_memory",
        "_reg_bytes",
        "_batch_seqs",
        "_valid",
        "_outcomes",
        "_outcome_pool",
        "_base",
        "_memr",
        "_comp",
        "_checks",
        "_fwd",
        "_addr",
        "_word",
        "_lane1",
        "_lane2",
        "_laned",
        "_lanem",
        "_s1r",
        "_s2r",
        "_sdr",
        "_ninv",
        "_next",
        "_col_pos",
        "_cap",
        "_gen_table",
        "_gen_inv",
        "_gen_reg",
        "_gen_mem",
        "_gen_epoch",
        "_gen_fsq",
        "replayed_events",
        "scalar_events",
        "rechecked_events",
    )

    def __init__(self, np, pipeline, plan) -> None:
        self._np = np
        self._pipeline = pipeline
        self.columns = plan_columns(np, plan)
        self._scalar = pipeline.process
        # Hoisted replay-path stores (stable identities for the run).
        self._access_cycles = pipeline.md_cache.access_cycles
        self._filter_logic = pipeline.filter_logic
        self._fsq = pipeline.fsq
        self._event_table = pipeline.event_table
        self._inv_rf = pipeline.inv_rf
        self._md_registers = pipeline.md_registers
        self._md_memory = pipeline.md_memory
        self._reg_bytes = pipeline._reg_bytes
        # Batch state (None until the first fused window asks).
        self._batch_seqs: Optional[list] = None
        # Prediction outcomes are immutable named tuples, so identical
        # (cycles, checks) predictions share one instance across batches.
        self._outcome_pool: dict = {}
        self._next = 0
        self._col_pos = 0
        self._cap = _MIN_BATCH
        self._gen_table = -1
        self._gen_inv = -1
        self._gen_reg = -1
        self._gen_mem = -1
        self._gen_epoch = -1
        self._gen_fsq = -1
        # Boundary accounting (flushed into the kernel counters).
        self.replayed_events = 0
        self.scalar_events = 0
        self.rechecked_events = 0

    # ------------------------------------------------------------- lifecycle

    def drop_batch(self) -> None:
        """Discard predictions (snapshot restore / checkpoint emission):
        generation counters may be rewound, so counter comparison against
        the captured snapshot is no longer proof of an unchanged store."""
        self._batch_seqs = None

    def flush_stats(self) -> None:
        """Accrue the per-run boundary counters into the kernel buckets."""
        if self.replayed_events:
            counter_add("predict.replayed_events", self.replayed_events)
        if self.scalar_events:
            counter_add("predict.scalar_events", self.scalar_events)
        if self.rechecked_events:
            counter_add("predict.rechecked_events", self.rechecked_events)
        self.replayed_events = 0
        self.scalar_events = 0
        self.rechecked_events = 0

    # --------------------------------------------------------------- process

    def process(self, event) -> EventOutcome:
        """Drop-in for ``FilteringPipeline.process`` on the drain path."""
        seq = event.sequence
        i = self._next
        seqs = self._batch_seqs
        if seqs is None or i >= len(seqs) or seqs[i] != seq:
            i = self._position(seq)
            if i < 0:
                self.scalar_events += 1
                return self._scalar(event)
        self._next = i + 1
        outcome = self._outcomes[i]
        if outcome is None:
            # Either unpredictable (scalar) or the prediction replays
            # MD-cache accesses (outcome depends on live cache state).
            if not self._valid[i]:
                self.scalar_events += 1
                return self._scalar(event)
            return self._replay_mem(event, i)
        # Memory-free prediction (``mem_reads == 0`` ⟺ no memory lane in
        # the key): the outcome is fully prebuilt; only the event table,
        # the INV RF and the register file can invalidate it.
        if self._event_table.generation != self._gen_table:
            # Reprogramming re-shapes chains; every prediction is suspect.
            self._batch_seqs = None
            self.scalar_events += 1
            return self._scalar(event)
        if self._ninv[i] and self._inv_rf.generation != self._gen_inv:
            self.scalar_events += 1
            return self._scalar(event)
        if self._md_registers.generation != self._gen_reg:
            if not self._recheck_registers(i):
                self.scalar_events += 1
                return self._scalar(event)
        self._filter_logic.comparisons += self._comp[i]
        self._pipeline.memo_value_hits += 1
        self.replayed_events += 1
        if _COVERAGE.enabled:
            _COVERAGE.hit("memo.value_hit")
        return outcome

    def take_run(self, entries, instruction_kind, max_cycles: int):
        """Consume the longest event-queue prefix that replays as one
        uninterrupted filtered run, without per-event dispatch.

        A run extends while the queue holds instruction events matching the
        batch's next rows, every row has a prebuilt (memory-free, filtered)
        outcome that validates, and the accumulated occupancy stays inside
        ``max_cycles`` — the caller's delivery-free march budget, so every
        cycle the run spans is quiet by construction.  Returns ``(count,
        busy_total, busys)`` with all pipeline-side statistics (comparisons,
        memo hits, coverage) already accrued, or None when the head of the
        queue cannot start a run; the caller pops ``count`` entries and
        advances its march state in bulk.  Monitor-busy windows never call
        this: their per-cycle budget arithmetic stays with the stepper.
        """
        seqs = self._batch_seqs
        if seqs is None:
            return None
        if self._event_table.generation != self._gen_table:
            self._batch_seqs = None
            return None
        inv_ok = self._inv_rf.generation == self._gen_inv
        reg_ok = self._md_registers.generation == self._gen_reg
        i = self._next
        start = i
        n = len(seqs)
        outcomes = self._outcomes
        ninv = self._ninv
        base = self._base
        busy_total = 0
        for work in entries:
            if i >= n or work.kind is not instruction_kind:
                break
            if seqs[i] != work.payload.sequence:
                break
            if outcomes[i] is None:
                break
            if not inv_ok and ninv[i]:
                break
            if not reg_ok and not self._recheck_registers(i):
                break
            busy = base[i]
            # The event must start strictly inside the budget and its
            # occupancy must not march past it (a delivery or the window
            # limit) — both in the stepper's own cycle accounting.
            if busy_total >= max_cycles or busy_total + busy > max_cycles:
                break
            busy_total += busy
            i += 1
        count = i - start
        if count == 0:
            return None
        self._next = i
        counter_add("predict.bulk_runs")
        counter_add("predict.bulk_events", count)
        comp = self._comp
        comparisons = 0
        for index in range(start, i):
            comparisons += comp[index]
        self._filter_logic.comparisons += comparisons
        self._pipeline.memo_value_hits += count
        self.replayed_events += count
        if _COVERAGE.enabled:
            hit = _COVERAGE.hit
            for _ in range(count):
                hit("memo.value_hit")
        return count, busy_total, base[start:i]

    def _recheck_registers(self, i: int) -> bool:
        """Do the live register bytes still match the key's lanes?

        Called only when the register generation moved since the batch was
        built: a write to an *unrelated* register must not discard the
        prediction, so the comparison is by value, lane by lane (absent
        lanes were never read and cannot invalidate)."""
        self.rechecked_events += 1
        none_lane = _NONE_LANE
        reg_bytes = self._reg_bytes
        lane = self._lane1[i]
        if lane != none_lane and reg_bytes[self._s1r[i]] != lane:
            return False
        lane = self._lane2[i]
        if lane != none_lane and reg_bytes[self._s2r[i]] != lane:
            return False
        lane = self._laned[i]
        if lane != none_lane and reg_bytes[self._sdr[i]] != lane:
            return False
        return True

    def _replay_mem(self, event, i: int) -> EventOutcome:
        """Replay a prediction whose chain reads memory metadata: validate
        all five stores (by value where a counter moved), then accrue the
        MD-cache accesses against the live cache exactly like the scalar
        value-hit path."""
        if self._event_table.generation != self._gen_table:
            self._batch_seqs = None
            self.scalar_events += 1
            return self._scalar(event)
        if self._ninv[i] and self._inv_rf.generation != self._gen_inv:
            self.scalar_events += 1
            return self._scalar(event)
        if self._md_registers.generation != self._gen_reg:
            if not self._recheck_registers(i):
                self.scalar_events += 1
                return self._scalar(event)
        lane = self._lanem[i]
        if lane != _NONE_LANE:
            pipeline = self._pipeline
            fsq = self._fsq
            if (
                self._md_memory.generation != self._gen_mem
                or self._md_memory.bulk_epoch != self._gen_epoch
                or (fsq is not None and fsq.generation != self._gen_fsq)
            ):
                self.rechecked_events += 1
                word = self._word[i]
                forwarded = False
                value = None
                if pipeline.non_blocking and pipeline._fsq_by_word is not None:
                    stack = pipeline._fsq_by_word.get(word)
                    if stack:
                        forwarded = True
                        value = stack[-1].value
                if not forwarded:
                    value = self._md_memory.read(word)
                if value != lane or forwarded != self._fwd[i]:
                    self.scalar_events += 1
                    return self._scalar(event)
        # Replay: the scalar value-hit arithmetic, from predicted fields.
        cycles = self._base[i]
        tlb_missed = False
        mem_reads = self._memr[i]
        if mem_reads:
            access_cycles = self._access_cycles
            addr = self._addr[i]
            for _ in range(mem_reads):
                access, tlb_miss = access_cycles(addr)
                cycles += access if access > 1 else 1
                if tlb_miss:
                    tlb_missed = True
            if self._fwd[i]:
                self._fsq.hits += mem_reads
        self._filter_logic.comparisons += self._comp[i]
        self._pipeline.memo_value_hits += 1
        self.replayed_events += 1
        if _COVERAGE.enabled:
            _COVERAGE.hit("memo.value_hit")
        return EventOutcome(
            True, _HK_NONE, 0, cycles, self._checks[i], tlb_missed, None
        )

    # ------------------------------------------------------------ positioning

    def _position(self, seq: int) -> int:
        """Index of ``seq`` inside the current batch, building or sliding
        one as needed; -1 when ``seq`` is not a monitored column (scalar)."""
        seqs = self._batch_seqs
        if seqs is not None and seqs[0] <= seq <= seqs[-1]:
            # The window skipped ahead (events consumed outside fused
            # windows): re-anchor inside the existing batch — per-event
            # validation keeps stale predictions harmless.
            i = bisect_left(seqs, seq)
            if i < len(seqs) and seqs[i] == seq:
                return i
        seq_list = self.columns.seq_list
        pos = bisect_left(seq_list, seq, self._col_pos)
        if pos >= len(seq_list) or seq_list[pos] != seq:
            pos = bisect_left(seq_list, seq)
            if pos >= len(seq_list) or seq_list[pos] != seq:
                return -1
        if seqs is not None and self._next >= len(seqs):
            if self._cap < _MAX_BATCH:
                self._cap <<= 1  # Fully consumed: batches are paying off.
        self._col_pos = pos
        self._build(pos)
        return 0

    # ----------------------------------------------------------------- build

    def _build(self, pos: int) -> None:
        """Lower columns ``[pos, pos + cap)`` to per-event predictions."""
        started = time.perf_counter()
        np = self._np
        pipeline = self._pipeline
        columns = self.columns
        stop = min(pos + self._cap, len(columns.seq_list))
        window = slice(pos, stop)
        ev = columns.event_ids[window]
        s1 = columns.s1_regs[window]
        s2 = columns.s2_regs[window]
        dr = columns.dest_regs[window]
        words = columns.words[window]
        n = stop - pos

        table_gen = self._event_table.generation
        profiles = {}
        inv_parts = {}
        inv_values = pipeline._inv_values
        for eid in np.unique(ev).tolist():
            profile = pipeline._profile_for(eid)
            if profile is not None and profile.table_generation != table_gen:
                profile = None
            profiles[eid] = profile
            if profile is not None:
                inv_ids = profile.inv_ids
                if not inv_ids:
                    inv_parts[eid] = ()
                elif len(inv_ids) == 1:
                    inv_parts[eid] = inv_values[inv_ids[0]]
                else:
                    inv_parts[eid] = tuple([inv_values[i] for i in inv_ids])

        none_lane = _NONE_LANE
        predictable = np.ones(n, dtype=bool)
        r1 = np.full(n, none_lane, dtype=np.int64)
        r2 = np.full(n, none_lane, dtype=np.int64)
        rd = np.full(n, none_lane, dtype=np.int64)
        mv = np.full(n, none_lane, dtype=np.int64)
        fwd = np.zeros(n, dtype=bool)
        ninv = np.zeros(n, dtype=bool)
        regs = np.array(self._reg_bytes, dtype=np.int64)
        mem_mask = np.zeros(n, dtype=bool)
        for eid, profile in profiles.items():
            mask = ev == eid
            if profile is None or eid > 0xFFFF or eid < 0:
                predictable &= ~mask
                continue
            if profile.reads_s1_reg:
                gather = mask & (s1 >= 0)
                r1[gather] = regs[s1[gather]]
            if profile.reads_s2_reg:
                gather = mask & (s2 >= 0)
                r2[gather] = regs[s2[gather]]
            if profile.reads_d_reg:
                gather = mask & (dr >= 0)
                rd[gather] = regs[dr[gather]]
            if profile.mem_entries:
                mem_mask |= mask & (words >= 0)
            if profile.inv_ids:
                ninv |= mask
        if mem_mask.any():
            fsq_by_word = (
                pipeline._fsq_by_word if pipeline.non_blocking else None
            )
            mem_read = self._md_memory.read
            unique_words, inverse = np.unique(
                words[mem_mask], return_inverse=True
            )
            unique_values = np.empty(len(unique_words), dtype=np.int64)
            unique_fwd = np.zeros(len(unique_words), dtype=bool)
            for index, word in enumerate(unique_words.tolist()):
                stack = (
                    fsq_by_word.get(word) if fsq_by_word is not None else None
                )
                if stack:
                    unique_fwd[index] = True
                    unique_values[index] = stack[-1].value
                else:
                    unique_values[index] = mem_read(word)
            mv[mem_mask] = unique_values[inverse]
            fwd[mem_mask] = unique_fwd[inverse]
        # Key lanes hold bytes or the None sentinel; anything wider (a
        # monitor storing non-byte metadata) is out of kernel scope.
        for lane in (r1, r2, rd, mv):
            predictable &= (lane >= 0) & (lane <= none_lane)
        packed = (
            ev
            | (r1 << 16)
            | (r2 << 25)
            | (rd << 34)
            | (mv << 43)
        )

        valid = np.zeros(n, dtype=bool)
        base = np.zeros(n, dtype=np.int64)
        memr = np.zeros(n, dtype=np.int64)
        comp = np.zeros(n, dtype=np.int64)
        checks = np.zeros(n, dtype=np.int64)
        outcomes = [None] * n
        if predictable.any():
            value_memo = pipeline._value_memo
            pool = self._outcome_pool
            keys = packed[predictable]
            unique_keys, inverse = np.unique(keys, return_inverse=True)
            u = len(unique_keys)
            u_valid = np.zeros(u, dtype=bool)
            u_base = np.zeros(u, dtype=np.int64)
            u_memr = np.zeros(u, dtype=np.int64)
            u_comp = np.zeros(u, dtype=np.int64)
            u_checks = np.zeros(u, dtype=np.int64)
            # Outcomes are immutable named tuples fully determined by the
            # key for memory-free predictions, so they are resolved once
            # per *unique* key (pooled across batches) and scattered
            # through the same inverse as the other prediction columns.
            u_outcomes = np.full(u, None, dtype=object)
            for index, key in enumerate(unique_keys.tolist()):
                eid = key & 0xFFFF
                l1 = (key >> 16) & 0x1FF
                l2 = (key >> 25) & 0x1FF
                ld = (key >> 34) & 0x1FF
                lm = (key >> 43) & 0x1FF
                entry = value_memo.get(
                    (
                        eid,
                        None if l1 == none_lane else l1,
                        None if l2 == none_lane else l2,
                        None if ld == none_lane else ld,
                        None if lm == none_lane else lm,
                        inv_parts[eid],
                    )
                )
                if entry is not None and entry.table_gen == table_gen:
                    u_valid[index] = True
                    u_base[index] = entry.base_cycles
                    u_memr[index] = entry.mem_reads
                    u_comp[index] = entry.comparisons
                    u_checks[index] = entry.checks
                    if not entry.mem_reads:
                        signature = (entry.base_cycles, entry.checks)
                        outcome = pool.get(signature)
                        if outcome is None:
                            outcome = EventOutcome(
                                True, _HK_NONE, 0,
                                signature[0], signature[1], False, None,
                            )
                            pool[signature] = outcome
                        u_outcomes[index] = outcome
            valid[predictable] = u_valid[inverse]
            base[predictable] = u_base[inverse]
            memr[predictable] = u_memr[inverse]
            comp[predictable] = u_comp[inverse]
            checks[predictable] = u_checks[inverse]
            scattered = np.full(n, None, dtype=object)
            scattered[predictable] = u_outcomes[inverse]
            outcomes = scattered.tolist()
            counter_add(
                "predict.batch_prebuilt",
                int((u_valid & (u_memr == 0))[inverse].sum()),
            )

        self._batch_seqs = columns.seq_list[pos:stop]
        self._valid = valid.tolist()
        self._outcomes = outcomes
        # Hot columns (read on every replay, or accrued into pipeline
        # counters and results — which must stay plain ints) materialize as
        # lists; the register-recheck columns stay as array views, paid
        # only when a register write forces a by-value revalidation.
        self._base = base.tolist()
        self._memr = memr.tolist()
        self._comp = comp.tolist()
        self._checks = checks.tolist()
        self._fwd = fwd.tolist()
        self._addr = columns.addrs[pos:stop]
        self._word = words.tolist()
        self._lane1 = r1
        self._lane2 = r2
        self._laned = rd
        self._lanem = mv.tolist()
        self._s1r = s1
        self._s2r = s2
        self._sdr = dr
        self._ninv = ninv.tolist()
        self._next = 0
        self._gen_table = table_gen
        self._gen_inv = self._inv_rf.generation
        self._gen_reg = self._md_registers.generation
        self._gen_mem = self._md_memory.generation
        self._gen_epoch = self._md_memory.bulk_epoch
        self._gen_fsq = self._fsq.generation if self._fsq is not None else 0
        summary = batch_summary(np, valid, memr, base, comp)
        counter_add("predict.batches")
        counter_add("predict.batch_events", summary["size"])
        counter_add("predict.batch_predicted", summary["predicted"])
        timer_add("predict.build", started)
