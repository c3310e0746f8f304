"""The coupled cycle-level simulation of application, FADE and monitor.

Follows the event-processing flow of Figure 1:

    app core --[event queue]--> FADE --[unfiltered event queue]--> monitor

The application core replays a precomputed retirement schedule (see
:mod:`repro.cores.retire`); enqueueing a monitored event into a full event
queue blocks retirement (backpressure).  FADE dequeues one event per cycle at
peak, occupies extra cycles for multi-shot chains and MD-cache misses, runs
stack updates on the SUU after draining the unfiltered queue (Section 5.2),
and — in blocking mode — stalls until the monitor finishes each unfiltered
event.  The monitor core executes software handlers at its handler IPC; in
the single-core (SMT) topology application and monitor threads each get half
throughput while the other is active.

Unaccelerated systems are the same loop with FADE removed: every monitored
event travels through a single queue straight to the monitor.

Two engines execute these semantics (``SystemConfig.engine``):

* ``"naive"`` — the reference stepper: one simulated cycle per loop
  iteration.
* ``"event"`` — the default event-driven core: each iteration computes the
  number of upcoming *quiet* cycles (no agent can dispatch, complete,
  enqueue, dequeue or retire anything — every agent only accrues time) and
  jumps across them in one step, accruing the skipped interval into the
  cycle counters and the time-weighted queue-occupancy statistics in bulk.
  Any cycle in which an agent acts runs the reference cycle, inlined into
  one flattened loop over local variables, so the two engines produce
  bit-identical results (see DESIGN.md, "Simulation engine").
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from repro.common.errors import ConfigurationError, SimulationError
from repro.cores.base import CORE_PARAMETERS
from repro.cores.retire import RetireModel
from repro.fade.accelerator import Fade, FadeConfig
from repro.fade.pipeline import HandlerKind
from repro.monitors.base import HandlerClass, Monitor
from repro.queues.bounded import BoundedQueue
from repro.system.config import SystemConfig
from repro.system.results import RunResult
from repro.verify.coverage import COVERAGE as _COVERAGE
from repro.workload.profile import BenchmarkProfile
from repro.workload.trace import (
    DEST_SHIFT,
    EVENT_ID_BY_SHAPE,
    KIND_INSTRUCTION,
    MEMORY_SLOT,
    OP_CLASSES,
    OPERAND_REGISTER,
    SRC2_SHIFT,
    STACK_OP_BY_CODE,
    Trace,
    event_fields,
)

#: Horizon sentinel: quiet until some *other* agent acts (the actual jump is
#: always additionally capped by ``SystemConfig.max_cycles``).
_NEVER = 1 << 62

#: Plan kind codes, one per trace item: what the item delivers when it
#: retires.
SKIP = 0
INSTRUCTION_EVENT = 1
STACK_UPDATE = 2
HIGH_LEVEL = 3

_NONZERO = re.compile(b"[^\x00]")


class KindTable(NamedTuple):
    """The delivery plan of one (trace, monitor): one kind code per trace
    item (:data:`SKIP`, :data:`INSTRUCTION_EVENT`, :data:`STACK_UPDATE`,
    :data:`HIGH_LEVEL`) plus the three counts.

    Monitor-specific but independent of the system configuration, so the
    runner layer shares one per (benchmark, settings, monitor)."""

    kinds: bytes
    monitored: int
    stack_updates: int
    high_level: int


def fade_config(config: SystemConfig) -> Optional[FadeConfig]:
    """The accelerator configuration ``config`` runs, None without FADE.

    The filter memo is enabled only for the event engine: the naive
    reference stays truly inline, so the equivalence suite compares
    memoized against inline walks."""
    if not config.fade_enabled:
        return None
    return FadeConfig(
        non_blocking=config.non_blocking,
        fsq_capacity=config.fsq_capacity,
        md_cache=config.md_cache,
        filter_memo=config.engine == "event",
    )


def warmup_count(trace_items: int, warmup_items: int) -> int:
    """The warmup a simulation applies: ``warmup_items``, leaving at least
    one item of a ``trace_items``-long trace timed."""
    return min(warmup_items, max(0, trace_items - 1))


def build_plan(trace: Trace, monitor: Monitor) -> KindTable:
    """Classify every trace item for ``monitor``, from the trace columns.

    The stock ``wants`` predicate depends only on the op class (plus the
    declared ``wants_memory_below`` bound), so it is one byte translation
    of the op column; high-level rows are patched in afterwards.  A monitor
    that overrides ``wants`` is asked about each instruction item."""
    op_bytes = bytes(trace.column("op"))
    kind_bytes = bytes(trace.column("kind"))
    if type(monitor).wants is Monitor.wants:
        wanted = bytes(
            (STACK_UPDATE if monitor.monitors_stack_updates else SKIP)
            if op.is_stack_op
            else INSTRUCTION_EVENT if op in monitor.monitored_op_classes
            else SKIP
            for op in OP_CLASSES
        ).ljust(256, b"\0")
        kinds = bytearray(op_bytes.translate(wanted))
        below = monitor.wants_memory_below
        if below is not None:
            # The app-address part of ``event_fields`` (high-level rows
            # have no memory slot).
            slots = bytes(trace.column("flags")).translate(bytes(MEMORY_SLOT))
            lists = trace.column_lists()
            for match in re.finditer(b"\x01", kinds):
                index = match.start()
                slot = slots[index]
                if not slot or lists[slot][index] >= below:
                    kinds[index] = SKIP
    else:
        wants = monitor.wants
        items = trace.items
        kinds = bytearray(len(trace))
        for index, (kind, op_code) in enumerate(zip(kind_bytes, op_bytes)):
            if kind == KIND_INSTRUCTION and wants(items[index]):
                kinds[index] = (
                    INSTRUCTION_EVENT
                    if STACK_OP_BY_CODE[op_code] is None
                    else STACK_UPDATE
                )
    # High-level rows: their op byte is a register, not an op code.
    for match in _NONZERO.finditer(kind_bytes):
        kinds[match.start()] = HIGH_LEVEL
    return KindTable(
        bytes(kinds),
        kinds.count(INSTRUCTION_EVENT),
        kinds.count(STACK_UPDATE),
        kinds.count(HIGH_LEVEL),
    )


class MonitoringSimulation:
    """One simulation run of a (trace, monitor, system) triple."""

    def __init__(
        self,
        trace: Trace,
        monitor: Monitor,
        config: SystemConfig,
        profile: Optional[BenchmarkProfile] = None,
        warmup_items: int = 0,
        schedule: Optional[Sequence[float]] = None,
        plan: Optional[KindTable] = None,
        fade: Optional[Fade] = None,
        warmed: bool = False,
    ) -> None:
        """``warmup_items`` leading trace items are applied functionally at
        zero cost before timing starts — the analogue of the paper's SMARTS
        checkpoints with warmed caches and metadata (Section 6).

        ``schedule`` and ``plan`` optionally supply the precomputed
        unobstructed retirement schedule and kind table (the runner layer
        caches both across grid cells); when omitted they are computed here.

        ``fade`` supplies the accelerator bound to ``monitor``'s critical
        metadata (built here from :func:`fade_config` when omitted).  With
        ``warmed=True`` the monitor and FADE already hold the state the
        warmup leaves behind (a stored warm state, see
        :mod:`repro.api.trace_store`): timing starts without applying it.
        """
        if fade is not None and not config.fade_enabled:
            raise ConfigurationError("a FADE instance needs fade_enabled")
        if warmed and config.fade_enabled and fade is None:
            raise ConfigurationError("a warmed FADE run needs its warmed FADE")
        self.trace = trace
        self.monitor = monitor
        self.config = config
        self.profile = profile
        self.warmup_items = warmup_count(len(trace), warmup_items)
        self._params = CORE_PARAMETERS[config.core_type]
        self._smt = config.is_smt
        self._sample = config.sample_queue_occupancy

        # Handler budgets in exact integer units of 1/(2 * denominator)
        # instructions: both the full-share and the SMT half-share budget
        # are integers, so handler-completion cycles are computed exactly —
        # no float remainder accumulates over long runs.
        ipc = Fraction(str(self._params.handler_ipc))
        self._unit_scale = 2 * ipc.denominator
        self._budget_full = 2 * ipc.numerator
        self._budget_half = ipc.numerator

        bubble_prob = profile.bubble_prob if profile is not None else 0.0
        bubble_mean = profile.bubble_mean if profile is not None else 6.0
        if schedule is None:
            schedule = RetireModel(
                core_type=config.core_type,
                bubble_prob=bubble_prob,
                bubble_mean=bubble_mean,
                hierarchy_config=config.hierarchy,
            ).schedule(trace)
        self._schedule = schedule

        if fade is None and config.fade_enabled:
            fade = Fade(
                program=monitor.fade_program(),
                md_registers=monitor.critical_regs,
                md_memory=monitor.critical_mem,
                config=fade_config(config),
            )
        self.fade: Optional[Fade] = fade
        self._tlb_service_cycles = (
            math.ceil(
                config.md_cache.tlb_service_instructions
                / self._params.handler_ipc
            )
            if config.fade_enabled
            else 0
        )

        # The queue FADE reads (event queue) and the queue the monitor reads
        # (unfiltered event queue with FADE; the single event queue without).
        if config.fade_enabled:
            self.event_queue: BoundedQueue = BoundedQueue(
                config.event_queue_capacity, name="event-queue"
            )
            self.work_queue: BoundedQueue = BoundedQueue(
                config.unfiltered_queue_capacity, name="unfiltered-queue"
            )
        else:
            self.event_queue = BoundedQueue(
                config.event_queue_capacity, name="event-queue"
            )
            self.work_queue = self.event_queue

        # The monitor's instruction handler, called with the event's fields.
        self._instruction_handler = monitor._field_handler()

        if plan is None:
            plan = build_plan(trace, monitor)
        self._kinds = plan.kinds
        self._plan_len = len(plan.kinds)

        self.result = RunResult(
            benchmark=trace.name,
            monitor=monitor.name,
            system=config.describe(),
            baseline_cycles=self._schedule[-1] if self._schedule else 0.0,
            instructions=trace.num_instructions,
            monitored_events=plan.monitored,
            stack_update_events=plan.stack_updates,
            high_level_events=plan.high_level,
        )

        # Hoisted hot-path references: these objects' identities are stable
        # for the lifetime of the run, and the cycle loop touches them every
        # simulated cycle.
        self._breakdown = self.result.cycle_breakdown
        self._eq_entries = self.event_queue._entries
        self._wq_entries = self.work_queue._entries
        self._eq_hist = self.event_queue.stats.occupancy_histogram
        self._wq_hist = self.work_queue.stats.occupancy_histogram
        self._wq_capacity = self.work_queue.capacity
        self._split_queues = self.work_queue is not self.event_queue

        # --- mutable run state ------------------------------------------------
        self._now = 0
        self._app_index = 0
        # Application progress is ``base + halves / 2``: the base is an
        # arbitrary schedule float and the per-cycle IPC shares (1.0 or 0.5)
        # accumulate in an integer half-cycle counter, so advancing N cycles
        # in one jump yields the bit-identical progress value of N
        # single-cycle advances.
        self._progress_base = 0.0
        self._progress_halves = 0
        self._app_blocked = False
        # Queue entries and the monitor's current item are trace indices;
        # an unfiltered event whose handler is SHORT travels as ``~index``.
        self._monitor_item: Optional[int] = None
        self._monitor_remaining = 0  # Integer handler-cost units.
        self._fade_ready_at = 0
        self._fade_wait_seq: Optional[int] = None
        self._fade_draining = False
        # Figure 4(b, c) tracking.
        self._filterable_gap = 0
        self._current_burst = 0
        self._saw_unfiltered = False
        # Handler instructions per ``HandlerClass.slot`` (None until a
        # handler of that class runs) and the slots in first-run order:
        # ``_finalize`` turns them into ``result.handler_instructions``.
        self._handler_totals: list = [None] * len(HandlerClass)
        self._handler_order: list = []
        #: Whether the monitor and FADE hold the warmed state.
        self._warmed = False
        if warmed:
            self._finish_warmup()

    # ------------------------------------------------------------------ run

    def warm_up(self) -> None:
        """Apply the functional warmup now, unless it has been applied
        (:meth:`run` starts here)."""
        if not self._warmed:
            self._run_warmup()

    def _run_warmup(self) -> None:
        """Apply the leading ``warmup_items`` functionally, then reset every
        statistic so timing starts from a warmed state."""
        count = self.warmup_items
        if count <= 0:
            self._finish_warmup()
            return
        fade = self.fade
        monitor = self.monitor
        trace = self.trace
        kinds = self._kinds
        items = trace.items
        lists = trace.column_lists()
        pcs, f1, f2, f3 = lists[0:4]
        op_column, flags_column = lists[7:9]
        event_ids = EVENT_ID_BY_SHAPE
        memory_slot = MEMORY_SLOT
        register = OPERAND_REGISTER
        handle_fields = self._instruction_handler
        handler_kind = HandlerKind.FULL
        if fade is not None:
            process = fade.process
            handler_completed = fade.handler_completed
        for index in range(count):
            kind = kinds[index]
            if kind == SKIP:
                continue
            if kind == INSTRUCTION_EVENT:
                # ``event_fields(lists, index)``, inlined.
                flags = flags_column[index]
                slot = memory_slot[flags]
                event_id = event_ids[(op_column[index] << 4) | (flags & 15)]
                addr = lists[slot][index] if slot else None
                src1 = f1[index] if flags & 3 == register else None
                src2 = f2[index] if (flags >> SRC2_SHIFT) & 3 == register else None
                dest = f3[index] if (flags >> DEST_SHIFT) & 3 == register else None
                if fade is not None:
                    outcome = process(event_id, addr, src1, src2, dest, index)
                    if outcome.filtered:
                        continue
                    handler_kind = outcome.handler_kind
                handle_fields(
                    event_id, pcs[index], addr, src1, src2, dest, index,
                    handler_kind,
                )
                if fade is not None:
                    handler_completed(index)
            elif kind == STACK_UPDATE:
                update = trace.stack_update(index)
                if fade is not None and fade.suu is not None:
                    fade.process_stack_update(update)
                    monitor.on_suu_stack_update(update)
                else:
                    monitor.handle_stack_update(update)
            else:
                event = items[index]
                if fade is not None:
                    for inv_id, value in monitor.runtime_invariant_updates(
                        event
                    ):
                        fade.write_invariant(inv_id, value)
                monitor.handle_high_level(event)
        self._finish_warmup()

    def _finish_warmup(self) -> None:
        """Start timing after the warmup: reset the statistics it gathered
        and move the application and the timed-region counts past it.

        The resets are idempotent, so a stored warm state (saved after
        them) passes through here again when it is installed."""
        self._warmed = True
        count = self.warmup_items
        if count <= 0:
            return
        trace = self.trace
        kinds = self._kinds
        self.monitor.reports.clear()
        if self.fade is not None:
            self.fade.stats.reset()
        self._app_index = count
        timed_start = self._schedule[count - 1]
        self._progress_base = timed_start
        self._progress_halves = 0
        # Report only the timed region's counts.
        self.result.instructions -= trace.count_instructions(0, count)
        self.result.monitored_events -= kinds.count(INSTRUCTION_EVENT, 0, count)
        self.result.stack_update_events -= kinds.count(STACK_UPDATE, 0, count)
        self.result.high_level_events -= kinds.count(HIGH_LEVEL, 0, count)
        self.result.baseline_cycles = self._schedule[-1] - timed_start

    def run(self) -> RunResult:
        self.warm_up()
        if self.config.engine == "naive":
            self._run_naive()
        else:
            self._run_event()
        return self._finalize()

    def _finalize(self) -> RunResult:
        """Collect the finished run into its :class:`RunResult` (split out
        so benchmarks can time the engine loop in isolation)."""
        self._finish_burst()
        self._check_conservation()
        self.result.cycles = float(self._now)
        classes = tuple(HandlerClass)
        totals = self._handler_totals
        self.result.handler_instructions = {
            classes[slot]: totals[slot] for slot in self._handler_order
        }
        self.result.reports = list(self.monitor.reports)
        if self.fade is not None:
            self.result.fade_stats = self.fade.stats
        self.result.event_queue_stats = self.event_queue.stats
        if self.work_queue is not self.event_queue:
            self.result.work_queue_stats = self.work_queue.stats
        if _COVERAGE.enabled:
            self._coverage_finalize()
        return self.result

    def _check_conservation(self) -> None:
        """Conservation laws of a finished run, O(histogram size): a counter
        that drifts in either engine raises here instead of reaching a
        stored result."""
        cycles = self._now
        result = self.result
        laws = [("cycle-breakdown total", self._breakdown.total, cycles)]
        if self._sample:
            # Each occupancy histogram samples every simulated cycle once.
            laws.append(("event-queue samples", sum(self._eq_hist.values()), cycles))
            if self._split_queues:
                laws.append(
                    ("unfiltered-queue samples", sum(self._wq_hist.values()), cycles)
                )
        if self.fade is not None:
            stats = self.fade.stats
            laws.append(
                (
                    "filtered + unfiltered events",
                    stats.filtered + stats.unfiltered,
                    stats.instruction_events,
                )
            )
            fsq = self.fade.fsq
            if fsq is not None:
                laws.append(
                    ("FSQ releases + entries left", fsq.releases + len(fsq), fsq.inserts)
                )
        for law, actual, expected in laws:
            if actual != expected:
                raise SimulationError(
                    f"conservation law broken: {law} is {actual}, expected "
                    f"{expected} ({result.benchmark}/{result.monitor})"
                )
        bounds = [("monitor busy cycles", result.monitor_busy_cycles, cycles)]
        if self.fade is not None:
            # A filtered event never commits a Non-Blocking update.
            stats = self.fade.stats
            bounds.append(
                ("Non-Blocking commits", stats.md_updates_committed, stats.unfiltered)
            )
        for law, actual, limit in bounds:
            if actual > limit:
                raise SimulationError(
                    f"conservation law broken: {law} {actual} exceed "
                    f"{limit} ({result.benchmark}/{result.monitor})"
                )

    def _coverage_finalize(self) -> None:
        """Derive the run-level and queue-occupancy-band coverage states
        from the finished statistics (zero per-cycle cost: bands come from
        the occupancy histograms the run collected anyway)."""
        cov = _COVERAGE
        result = self.result
        if self.warmup_items > 0:
            cov.hit("run.warmup")
        if self.fade is None:
            cov.hit("run.unaccelerated")
        if result.app_blocked_cycles:
            cov.hit("run.app_blocked")
        if result.fade_drain_cycles:
            cov.hit("run.fade_drain")
        if result.fade_wait_cycles:
            cov.hit("run.fade_wait")
        if self.event_queue.stats.rejected:
            cov.hit("run.eq_rejected")
        if not self._sample:
            return
        for prefix, hist, capacity in (
            ("eq", self._eq_hist, self.event_queue.capacity),
            ("wq", self._wq_hist, self._wq_capacity),
        ):
            if prefix == "wq" and not self._split_queues:
                break
            for occupancy, cycles in hist.items():
                if not cycles:
                    continue
                if occupancy == 0:
                    cov.hit(f"{prefix}.empty")
                elif capacity is not None and occupancy >= capacity:
                    cov.hit(f"{prefix}.full")
                else:
                    cov.hit(f"{prefix}.partial")
                if occupancy >= 64:
                    cov.hit(f"{prefix}.deep")

    def _cycle_limit_error(self) -> SimulationError:
        return SimulationError(
            f"cycle limit {self.config.max_cycles} exceeded "
            f"({self.result.benchmark}/{self.result.monitor})"
        )

    def _run_naive(self) -> None:
        """Reference stepper: one simulated cycle per iteration."""
        max_cycles = self.config.max_cycles
        done = self._done
        step = self._step_cycle
        if _COVERAGE.enabled and not done():
            _COVERAGE.hit("engine.step")
        while not done():
            if self._now >= max_cycles:
                raise self._cycle_limit_error()
            step()

    def _run_event(self) -> None:
        """Event-driven core: one flattened loop over hoisted locals.

        Each iteration computes the quiet horizon — the number of upcoming
        cycles in which no agent dispatches, completes, enqueues, dequeues
        or retires anything — and either jumps across those cycles in one
        bulk-accounted step or runs one reference cycle inline.  Both
        branches transliterate the naive engine's code: the horizon and the
        jump follow the per-agent state machines exactly, and the stepped
        cycle is :meth:`_step_cycle` with :meth:`_monitor_step`,
        :meth:`_dispatch_handler`, :meth:`_complete_handler`,
        :meth:`_fade_step`, :meth:`_app_step` and :meth:`_try_deliver`
        inlined, so the final :class:`RunResult` is bit-identical to the
        naive engine's (DESIGN.md §5).

        Loop state lives in locals, loaded once and written back to
        ``self`` once — at completion or before raising the cycle-limit
        error — so ``_finalize`` only ever sees flushed state.
        """
        # --- run invariants --------------------------------------------------
        max_cycles = self.config.max_cycles
        fade = self.fade
        monitor = self.monitor
        result = self.result
        breakdown = self._breakdown
        schedule = self._schedule
        kinds = self._kinds
        plan_len = self._plan_len
        trace = self.trace
        items = trace.items
        stack_update_at = trace.stack_update
        lists = trace.column_lists()
        # Columns for the inlined ``event_fields`` decode.
        pcs, f1, f2, f3 = lists[0:4]
        op_column, flags_column = lists[7:9]
        event_ids = EVENT_ID_BY_SHAPE
        memory_slot = MEMORY_SLOT
        register = OPERAND_REGISTER
        smt = self._smt
        sample = self._sample
        split = self._split_queues
        budget_full = self._budget_full
        budget_half = self._budget_half
        unit_scale = self._unit_scale
        # The application delivers into the event queue; without FADE that
        # is also the queue the monitor reads (``eq is wq``).
        eq = self._eq_entries
        wq = self._wq_entries
        eq_hist = self._eq_hist
        wq_hist = self._wq_hist
        eq_stats = self.event_queue.stats
        wq_stats = self.work_queue.stats
        eq_capacity = self.event_queue.capacity
        wq_capacity = self._wq_capacity
        handler_totals = self._handler_totals
        handler_order = self._handler_order
        track_filtering = self._track_filtering
        handle_fields = self._instruction_handler
        handle_stack_update = monitor.handle_stack_update
        handle_high_level = monitor.handle_high_level
        instruction_kind = INSTRUCTION_EVENT
        stack_kind = STACK_UPDATE
        high_level_kind = HIGH_LEVEL
        full_handler = HandlerKind.FULL
        short_handler = HandlerKind.SHORT
        filterable = (HandlerClass.CLEAN_CHECK, HandlerClass.REDUNDANT_UPDATE)
        # Unaccelerated runs retire stack updates a monitor does not take
        # without queueing them (``_try_deliver``).
        skip_kind = (
            stack_kind
            if fade is None and not monitor.monitors_stack_updates
            else SKIP
        )
        covering = _COVERAGE.enabled
        hit = _COVERAGE.hit
        if fade is not None:
            process = fade.process
            process_stack_update = fade.process_stack_update
            handler_completed = fade.handler_completed
            write_invariant = fade.write_invariant
            on_suu_stack_update = monitor.on_suu_stack_update
            runtime_invariant_updates = monitor.runtime_invariant_updates
            blocking = not fade.non_blocking
            stack_update_drain = self.config.stack_update_drain
            tlb_service = self._tlb_service_cycles
            # Instruction events stall while the FSQ is full; its fill
            # level is read directly (no FSQ in Blocking mode).
            fsq = fade.fsq
            fsq_capacity = fsq.capacity if fsq is not None else 0
        never = _NEVER

        # --- loop state, loaded once and flushed back to ``self`` at the end
        now = self._now
        app_index = self._app_index
        app_blocked = self._app_blocked
        base = self._progress_base
        halves = self._progress_halves
        mon_item = self._monitor_item
        mon_rem = self._monitor_remaining
        ready_at = self._fade_ready_at
        wait_seq = self._fade_wait_seq
        draining = self._fade_draining
        busy_cycles = result.monitor_busy_cycles
        blocked_cycles = result.app_blocked_cycles
        handlers = result.handlers_executed
        app_idle = breakdown.app_idle
        monitor_idle = breakdown.monitor_idle
        both_busy = breakdown.both_busy

        finished = False
        while True:
            if (
                app_index >= plan_len
                and not eq
                and not wq
                and mon_item is None
                and (
                    fade is None
                    or (ready_at <= now and not draining and wait_seq is None)
                )
            ):
                finished = True
                break
            if now >= max_cycles:
                break

            # --- quiet horizon (0: some agent acts this cycle) ----------------
            monitor_busy = mon_item is not None
            if monitor_busy:
                if smt and not app_blocked and app_index < plan_len:
                    budget = budget_half
                else:
                    budget = budget_full
                # The handler completes on cycle ceil(remaining / budget).
                quiet = (mon_rem - 1) // budget if mon_rem > budget else 0
            else:
                quiet = 0 if wq else never  # A queued handler dispatches.
            if quiet and fade is not None:
                if ready_at > now:
                    if ready_at - now < quiet:
                        quiet = ready_at - now
                elif wait_seq is not None:
                    pass  # Accrues wait cycles until the handler completes.
                elif draining:
                    # Drained means the unfiltered queue emptied and the
                    # last handler completed — both non-quiet cycles.
                    if not wq and mon_item is None:
                        quiet = 0
                elif eq:
                    kind = kinds[eq[0]]
                    if kind == stack_kind:
                        quiet = 0  # Starts draining or runs the SUU.
                    elif wq_capacity is None or len(wq) < wq_capacity:
                        if (
                            kind == high_level_kind
                            or fsq is None
                            or fsq._size < fsq_capacity
                        ):
                            quiet = 0  # Dequeues this cycle.
            if quiet and app_index < plan_len:
                if app_blocked:
                    # Retries keep failing while the queue stays full.
                    if eq_capacity is None or len(eq) < eq_capacity:
                        quiet = 0
                else:
                    step = 1 if (smt and monitor_busy) else 2
                    target = schedule[app_index]
                    if target <= base + (halves + step) * 0.5:
                        quiet = 0  # A retirement crosses this cycle.
                    else:
                        # First crossing cycle k: a float estimate seeds
                        # it, the exact progress expression verifies it.
                        k = int(math.ceil(((target - base) * 2.0 - halves) / step))
                        if k < 2:
                            k = 2
                        while k > 2 and base + (halves + (k - 1) * step) * 0.5 >= target:
                            k -= 1
                        while base + (halves + k * step) * 0.5 < target:
                            k += 1
                        if k - 1 < quiet:
                            quiet = k - 1

            if quiet:
                # --- jump: accrue exactly what `quiet` stepped cycles would
                if quiet > max_cycles - now:
                    quiet = max_cycles - now
                if monitor_busy:
                    mon_rem -= quiet * budget
                    busy_cycles += quiet
                    if app_blocked:
                        app_idle += quiet
                    else:
                        both_busy += quiet
                else:
                    monitor_idle += quiet
                if fade is not None and ready_at <= now:
                    if wait_seq is not None:
                        result.fade_wait_cycles += quiet
                    elif draining:
                        result.fade_drain_cycles += quiet
                if app_index < plan_len:
                    if app_blocked:
                        blocked_cycles += quiet
                        eq_stats.rejected += quiet
                    elif smt and monitor_busy:
                        halves += quiet
                    else:
                        halves += 2 * quiet
                if sample:
                    eq_hist[len(eq)] += quiet
                    if split:
                        wq_hist[len(wq)] += quiet
                now += quiet
                if covering:
                    hit("engine.skip")
                continue

            # --- one reference cycle: the monitor -----------------------------
            if monitor_busy or wq:
                if smt and not app_blocked and app_index < plan_len:
                    budget = budget_half
                else:
                    budget = budget_full
                while budget > 0:
                    if mon_item is None:
                        if not wq:
                            break
                        # Dispatch: functional effects apply here.
                        mon_item = wq.popleft()
                        wq_stats.dequeued += 1
                        if mon_item < 0:
                            mon_item = ~mon_item
                            handler_kind = short_handler
                        else:
                            handler_kind = full_handler
                        kind = kinds[mon_item]
                        if kind == instruction_kind:
                            # ``event_fields(lists, mon_item)``, inlined.
                            flags = flags_column[mon_item]
                            slot = memory_slot[flags]
                            outcome = handle_fields(
                                event_ids[(op_column[mon_item] << 4) | (flags & 15)],
                                pcs[mon_item],
                                lists[slot][mon_item] if slot else None,
                                f1[mon_item] if flags & 3 == register else None,
                                f2[mon_item]
                                if (flags >> SRC2_SHIFT) & 3 == register
                                else None,
                                f3[mon_item]
                                if (flags >> DEST_SHIFT) & 3 == register
                                else None,
                                mon_item,
                                handler_kind,
                            )
                        elif kind == stack_kind:
                            outcome = handle_stack_update(
                                stack_update_at(mon_item)
                            )
                        else:
                            outcome = handle_high_level(items[mon_item])
                        cost = outcome.cost
                        handler_class = outcome.handler_class
                        class_slot = handler_class.slot
                        total = handler_totals[class_slot]
                        if total is None:
                            total = 0.0
                            handler_order.append(class_slot)
                        handler_totals[class_slot] = total + cost
                        handlers += 1
                        if fade is None and kind == instruction_kind:
                            if handler_class in filterable:
                                # ``_track_filtering(True)``, inlined.
                                self._filterable_gap += 1
                            else:
                                track_filtering(False)
                        mon_rem = int(cost) * unit_scale
                    take = mon_rem if mon_rem < budget else budget
                    mon_rem -= take
                    budget -= take
                    if mon_rem <= 0:
                        # Completion.
                        if (
                            fade is not None
                            and kinds[mon_item] == instruction_kind
                        ):
                            handler_completed(mon_item)
                            if wait_seq == mon_item:
                                wait_seq = None
                        mon_item = None
                        mon_rem = 0
                busy_cycles += 1
                monitor_busy = mon_item is not None or bool(wq)

            # --- FADE ---------------------------------------------------------
            if fade is not None and ready_at <= now:
                if wait_seq is not None:
                    result.fade_wait_cycles += 1
                    if covering:
                        hit("fade.wait")
                elif draining and (wq or mon_item is not None):
                    result.fade_drain_cycles += 1
                    if covering:
                        hit("fade.drain")
                elif eq:
                    draining = False
                    item = eq[0]
                    kind = kinds[item]
                    if kind == stack_kind:
                        # Section 5.2: drain the unfiltered queue first.
                        if stack_update_drain and (wq or mon_item is not None):
                            draining = True
                            result.fade_drain_cycles += 1
                            if covering:
                                hit("fade.drain")
                        else:
                            eq.popleft()
                            eq_stats.dequeued += 1
                            update = stack_update_at(item)
                            cycles = process_stack_update(update)
                            on_suu_stack_update(update)
                            ready_at = now + cycles
                            if covering:
                                hit("fade.suu")
                    elif wq_capacity is not None and len(wq) >= wq_capacity:
                        if covering:
                            hit("stall.wq_full")
                    elif kind == high_level_kind:
                        eq.popleft()
                        eq_stats.dequeued += 1
                        for inv_id, value in runtime_invariant_updates(
                            items[item]
                        ):
                            write_invariant(inv_id, value)
                        wq.append(item)
                        wq_stats.enqueued += 1
                        if len(wq) > wq_stats.max_occupancy:
                            wq_stats.max_occupancy = len(wq)
                        ready_at = now + 1
                        if covering:
                            hit("fade.high_level")
                    elif fsq is not None and fsq._size >= fsq_capacity:
                        if covering:
                            hit("stall.fsq_full")
                    else:
                        eq.popleft()
                        eq_stats.dequeued += 1
                        # ``event_fields(lists, item)``, inlined.
                        flags = flags_column[item]
                        slot = memory_slot[flags]
                        outcome = process(
                            event_ids[(op_column[item] << 4) | (flags & 15)],
                            lists[slot][item] if slot else None,
                            f1[item] if flags & 3 == register else None,
                            f2[item] if (flags >> SRC2_SHIFT) & 3 == register else None,
                            f3[item] if (flags >> DEST_SHIFT) & 3 == register else None,
                            item,
                        )
                        busy = outcome.occupancy_cycles
                        if outcome.tlb_miss:
                            busy += tlb_service
                        ready_at = now + busy
                        if outcome.filtered:
                            # ``_track_filtering(True)``, inlined.
                            self._filterable_gap += 1
                        else:
                            track_filtering(False)
                            wq.append(
                                ~item
                                if outcome.handler_kind is short_handler
                                else item
                            )
                            wq_stats.enqueued += 1
                            if len(wq) > wq_stats.max_occupancy:
                                wq_stats.max_occupancy = len(wq)
                            if blocking:
                                wait_seq = item
                else:
                    draining = False

            # --- the application core ----------------------------------------
            if app_index < plan_len:
                if app_blocked:
                    # The blocked item is always deliverable: retry it.
                    if eq_capacity is not None and len(eq) >= eq_capacity:
                        eq_stats.rejected += 1
                        blocked_cycles += 1
                    else:
                        eq.append(app_index)
                        eq_stats.enqueued += 1
                        if len(eq) > eq_stats.max_occupancy:
                            eq_stats.max_occupancy = len(eq)
                        app_index += 1
                        app_blocked = False
                if not app_blocked:
                    halves += 1 if (smt and monitor_busy) else 2
                    progress = base + halves * 0.5
                    while app_index < plan_len and schedule[app_index] <= progress:
                        kind = kinds[app_index]
                        if kind and kind != skip_kind:
                            if eq_capacity is not None and len(eq) >= eq_capacity:
                                eq_stats.rejected += 1
                                app_blocked = True
                                blocked_cycles += 1
                                # Freeze progress at the blocked item.
                                base = schedule[app_index]
                                halves = 0
                                break
                            eq.append(app_index)
                            eq_stats.enqueued += 1
                            if len(eq) > eq_stats.max_occupancy:
                                eq_stats.max_occupancy = len(eq)
                        app_index += 1

            if sample:
                eq_hist[len(eq)] += 1
                if split:
                    wq_hist[len(wq)] += 1
            if not monitor_busy:
                monitor_idle += 1
            elif app_blocked:
                app_idle += 1
            else:
                both_busy += 1
            now += 1
            if covering:
                hit("engine.step")

        # --- flush the loop state back to ``self`` ----------------------------
        self._now = now
        self._app_index = app_index
        self._app_blocked = app_blocked
        self._progress_base = base
        self._progress_halves = halves
        self._monitor_item = mon_item
        self._monitor_remaining = mon_rem
        self._fade_ready_at = ready_at
        self._fade_wait_seq = wait_seq
        self._fade_draining = draining
        result.monitor_busy_cycles = busy_cycles
        result.app_blocked_cycles = blocked_cycles
        result.handlers_executed = handlers
        breakdown.app_idle = app_idle
        breakdown.monitor_idle = monitor_idle
        breakdown.both_busy = both_busy
        if not finished:
            raise self._cycle_limit_error()

    def _step_cycle(self) -> None:
        """One cycle of the reference semantics (the naive engine's cycle;
        ``_run_event`` inlines the same code over locals)."""
        monitor_busy = self._monitor_step()
        if self.fade is not None:
            self._fade_step()
        self._app_step(monitor_busy)
        if self._sample:
            self._eq_hist[len(self._eq_entries)] += 1
            if self._split_queues:
                self._wq_hist[len(self._wq_entries)] += 1
        # Classify the cycle (Figure 11(b)).
        breakdown = self._breakdown
        if self._app_blocked and monitor_busy:
            breakdown.app_idle += 1
        elif not monitor_busy:
            breakdown.monitor_idle += 1
        else:
            breakdown.both_busy += 1
        self._now += 1

    def _done(self) -> bool:
        if self._app_index < self._plan_len:
            return False
        if self._eq_entries or self._wq_entries:
            return False
        if self._monitor_item is not None:
            return False
        if self.fade is not None:
            if self._fade_ready_at > self._now or self._fade_draining:
                return False
            if self._fade_wait_seq is not None:
                return False
        return True

    # -------------------------------------------------------------- monitor

    def _monitor_step(self) -> bool:
        """Advance monitor-software execution; returns busy status."""
        entries = self._wq_entries
        if self._monitor_item is None and not entries:
            return False
        if self._smt and not self._app_blocked and self._app_index < self._plan_len:
            budget = self._budget_half
        else:
            budget = self._budget_full
        work_queue = self.work_queue
        while budget > 0:
            if self._monitor_item is None:
                if not entries:
                    break
                self._dispatch_handler(work_queue.dequeue())
            take = self._monitor_remaining
            if take > budget:
                take = budget
            self._monitor_remaining -= take
            budget -= take
            if self._monitor_remaining <= 0:
                self._complete_handler()
        self.result.monitor_busy_cycles += 1
        return self._monitor_item is not None or bool(entries)

    def _dispatch_handler(self, entry: int) -> None:
        """Start one software handler; functional effects apply here."""
        index, handler_kind = (
            (~entry, HandlerKind.SHORT) if entry < 0 else (entry, HandlerKind.FULL)
        )
        kind = self._kinds[index]
        if kind == INSTRUCTION_EVENT:
            lists = self.trace.column_lists()
            event_id, addr, src1, src2, dest = event_fields(lists, index)
            outcome = self._instruction_handler(
                event_id, lists[0][index], addr, src1, src2, dest, index,
                handler_kind,
            )
        elif kind == STACK_UPDATE:
            outcome = self.monitor.handle_stack_update(
                self.trace.stack_update(index)
            )
        else:
            outcome = self.monitor.handle_high_level(self.trace.items[index])
        slot = outcome.handler_class.slot
        if self._handler_totals[slot] is None:
            self._handler_totals[slot] = 0.0
            self._handler_order.append(slot)
        self._handler_totals[slot] += outcome.cost
        self.result.handlers_executed += 1
        if self.fade is None and kind == INSTRUCTION_EVENT:
            # Unaccelerated runs still record what *would* be filterable for
            # the Figure 4(b, c) motivation study: handlers that turned out
            # to be clean checks or redundant updates.
            filterable = outcome.handler_class in (
                HandlerClass.CLEAN_CHECK,
                HandlerClass.REDUNDANT_UPDATE,
            )
            self._track_filtering(filterable)
        self._monitor_item = index
        self._monitor_remaining = int(outcome.cost) * self._unit_scale

    def _complete_handler(self) -> None:
        index = self._monitor_item
        self._monitor_item = None
        self._monitor_remaining = 0
        if index is None:
            return
        if self.fade is not None and self._kinds[index] == INSTRUCTION_EVENT:
            self.fade.handler_completed(index)
            if self._fade_wait_seq == index:
                self._fade_wait_seq = None

    # ----------------------------------------------------------------- FADE

    def _fade_step(self) -> None:
        fade = self.fade
        assert fade is not None
        if self._fade_ready_at > self._now:
            return
        if self._fade_wait_seq is not None:
            self.result.fade_wait_cycles += 1
            if _COVERAGE.enabled:
                _COVERAGE.hit("fade.wait")
            return
        if self._fade_draining:
            if self._unfiltered_drained:
                self._fade_draining = False
            else:
                self.result.fade_drain_cycles += 1
                if _COVERAGE.enabled:
                    _COVERAGE.hit("fade.drain")
                return
        if not self._eq_entries:
            return

        index = self._eq_entries[0]
        kind = self._kinds[index]
        if kind == STACK_UPDATE:
            # Section 5.2: pending unfiltered events may reference the frame;
            # the consumer must drain the queue before SUU processing.
            if self.config.stack_update_drain and not self._unfiltered_drained:
                self._fade_draining = True
                self.result.fade_drain_cycles += 1
                if _COVERAGE.enabled:
                    _COVERAGE.hit("fade.drain")
                return
            self.event_queue.dequeue()
            update = self.trace.stack_update(index)
            cycles = fade.process_stack_update(update)
            self.monitor.on_suu_stack_update(update)
            self._fade_ready_at = self._now + cycles
            if _COVERAGE.enabled:
                _COVERAGE.hit("fade.suu")
            return

        if kind == HIGH_LEVEL:
            if self.work_queue.is_full:
                if _COVERAGE.enabled:
                    _COVERAGE.hit("stall.wq_full")
                return
            self.event_queue.dequeue()
            for inv_id, value in self.monitor.runtime_invariant_updates(
                self.trace.items[index]
            ):
                fade.write_invariant(inv_id, value)
            self.work_queue.enqueue(index)
            self._fade_ready_at = self._now + 1
            if _COVERAGE.enabled:
                _COVERAGE.hit("fade.high_level")
            return

        # Instruction event.  Conservatively require space in the unfiltered
        # queue and the FSQ before starting (hardware would stall mid-pipe).
        if self.work_queue.is_full:
            if _COVERAGE.enabled:
                _COVERAGE.hit("stall.wq_full")
            return
        if fade.fsq_full:
            if _COVERAGE.enabled:
                _COVERAGE.hit("stall.fsq_full")
            return
        self.event_queue.dequeue()
        outcome = fade.process(
            *event_fields(self.trace.column_lists(), index), index
        )
        busy = outcome.occupancy_cycles
        if outcome.tlb_miss:
            busy += self._tlb_service_cycles
        self._fade_ready_at = self._now + busy
        self._track_filtering(outcome.filtered)
        if not outcome.filtered:
            self.work_queue.enqueue(
                ~index if outcome.handler_kind is HandlerKind.SHORT else index
            )
            if not fade.non_blocking:
                self._fade_wait_seq = index

    @property
    def _unfiltered_drained(self) -> bool:
        return not self._wq_entries and self._monitor_item is None

    # ------------------------------------------------------------------ app

    def _app_step(self, monitor_busy: bool) -> None:
        if self._app_index >= self._plan_len:
            return
        if self._app_blocked:
            if not self._try_deliver(self._app_index):
                self.result.app_blocked_cycles += 1
                return
            self._app_index += 1
            self._app_blocked = False
        if self._smt and monitor_busy:
            self._progress_halves += 1
        else:
            self._progress_halves += 2
        progress = self._progress_base + self._progress_halves * 0.5
        schedule = self._schedule
        plan_len = self._plan_len
        while (
            self._app_index < plan_len
            and schedule[self._app_index] <= progress
        ):
            if not self._try_deliver(self._app_index):
                self._app_blocked = True
                self.result.app_blocked_cycles += 1
                # Freeze progress at the blocked item's retirement point so
                # the backlog does not silently accumulate while stalled.
                self._progress_base = schedule[self._app_index]
                self._progress_halves = 0
                return
            self._app_index += 1

    def _try_deliver(self, index: int) -> bool:
        """Retire item ``index``; False if the target queue rejected it."""
        kind = self._kinds[index]
        if kind == SKIP:
            return True
        if self.fade is not None:
            return self.event_queue.try_enqueue(index)
        if kind == STACK_UPDATE and not self.monitor.monitors_stack_updates:
            return True
        return self.work_queue.try_enqueue(index)

    # ------------------------------------------------------------- statistics

    def _track_filtering(self, filtered: bool) -> None:
        """Figure 4(b, c): distances between and bursts of unfiltered events.

        :meth:`_finish_burst` is the one-shot finalizer that flushes the
        trailing burst at run end.
        """
        if filtered:
            self._filterable_gap += 1
            return
        if self._saw_unfiltered:
            self.result.unfiltered_distances[self._filterable_gap] += 1
            if self._filterable_gap <= self.config.burst_gap_threshold:
                self._current_burst += 1
            else:
                self._finish_burst()
                self._current_burst = 1
        else:
            self._current_burst = 1
        self._saw_unfiltered = True
        self._filterable_gap = 0

    def _finish_burst(self) -> None:
        if self._current_burst > 0:
            self.result.unfiltered_burst_sizes.append(self._current_burst)
            self._current_burst = 0


def simulate(
    trace: Trace,
    monitor: Monitor,
    config: SystemConfig,
    profile: Optional[BenchmarkProfile] = None,
    warmup_items: int = 0,
    schedule: Optional[Sequence[float]] = None,
    plan: Optional[KindTable] = None,
) -> RunResult:
    """Simulate one run and return its :class:`RunResult`."""
    return MonitoringSimulation(
        trace, monitor, config, profile, warmup_items, schedule=schedule, plan=plan
    ).run()


def simulate_warmed(
    trace: Trace,
    monitor: Monitor,
    config: SystemConfig,
    profile: Optional[BenchmarkProfile] = None,
    warmup_fraction: float = 0.5,
    schedule: Optional[Sequence[float]] = None,
    plan: Optional[KindTable] = None,
) -> RunResult:
    """Simulate with the leading fraction of the trace as functional warmup
    (the default methodology for all paper-figure experiments)."""
    warmup_items = int(len(trace) * warmup_fraction)
    return MonitoringSimulation(
        trace, monitor, config, profile, warmup_items, schedule=schedule, plan=plan
    ).run()
