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
  Any cycle in which an agent acts runs through the reference stepper
  verbatim, so the two engines produce bit-identical results (see
  DESIGN.md, "Simulation engine").
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from repro.common.errors import SimulationError
from repro.cores.base import CORE_PARAMETERS
from repro.cores.retire import RetireModel
from repro.fade.accelerator import Fade, FadeConfig, FadeStats
from repro.fade.pipeline import HandlerKind, force_inline_filtering
from repro.isa.events import MonitoredEvent, StackOp, StackUpdate
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass, event_id_for, known_event_ids
from repro.monitors.base import HandlerClass, Monitor
from repro.queues.bounded import BoundedQueue
from repro.system.config import SystemConfig
from repro.system.results import RunResult
from repro.verify.coverage import COVERAGE as _COVERAGE
from repro.workload.packed import (
    DEST_SHIFT,
    KIND_INSTRUCTION,
    OP_CLASSES,
    OPERAND_MEMORY,
    OPERAND_REGISTER,
    SRC2_SHIFT,
    PackedTrace,
)
from repro.workload.profile import BenchmarkProfile
from repro.workload.trace import HighLevelEvent, Trace

#: Horizon sentinel: quiet until some *other* agent acts (the actual jump is
#: always additionally capped by ``SystemConfig.max_cycles``).
_NEVER = 1 << 62

#: Layout version of :meth:`MonitoringSimulation.snapshot` payloads.  Bump on
#: any change to what is captured or how it is encoded; ``restore`` refuses
#: mismatched versions (the checkpoint layer degrades that to a cold rerun).
SIM_STATE_VERSION = 2


class FusionStats:
    """Diagnostic telemetry of the event engine's burst draining.

    Module-global and deliberately *not* part of :class:`RunResult` — the
    two engines' serialized results stay bit-identical whether or not runs
    were fused.  ``benchmarks/bench_perf_core.py`` resets and reads it to
    record the fused-run-length distribution.
    """

    __slots__ = ("runs", "fused_events", "fused_cycles", "run_lengths")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.runs = 0
        self.fused_events = 0
        self.fused_cycles = 0
        #: events drained per fused window -> number of windows.
        self.run_lengths: Counter = Counter()


#: Process-wide burst-draining telemetry (serial measurement tool only).
fusion_stats = FusionStats()


class _ItemKind(enum.Enum):
    INSTRUCTION_EVENT = "event"
    STACK_UPDATE = "stack"
    HIGH_LEVEL = "high-level"


class _WorkItem:
    """One unit of monitor-software work.

    Slotted and with its event sequence precomputed: one is allocated per
    monitored event, on the simulator's hottest path.
    """

    __slots__ = ("kind", "payload", "handler_kind", "sequence")

    def __init__(
        self,
        kind: _ItemKind,
        payload: Union[MonitoredEvent, HighLevelEvent],
        handler_kind: HandlerKind = HandlerKind.FULL,
    ) -> None:
        self.kind = kind
        self.payload = payload
        self.handler_kind = handler_kind
        self.sequence = (
            payload.sequence if isinstance(payload, MonitoredEvent) else -1
        )


class DeliveryPlan:
    """Precomputed per-trace-item delivery plan for one (trace, monitor).

    ``items[i]`` is the :class:`_WorkItem` delivered when trace item ``i``
    retires (None when the monitor ignores it).  Every payload is immutable,
    so a plan may be shared between runs — the runner layer caches plans
    per (benchmark, settings, monitor name).

    ``vector_columns`` caches the vector tier's derived key columns
    (:mod:`repro.kernels.columns`), built lazily on first vector run and
    sharing the plan's cache lifecycle.
    """

    __slots__ = (
        "items",
        "monitored",
        "stack_updates",
        "high_level",
        "vector_columns",
    )

    def __init__(
        self,
        items: List[Optional[_WorkItem]],
        monitored: int,
        stack_updates: int,
        high_level: int,
    ) -> None:
        self.items = items
        self.monitored = monitored
        self.stack_updates = stack_updates
        self.high_level = high_level
        self.vector_columns = None


def _event_id(op_code: int, flags: int) -> int:
    """``event_id_for`` of a packed instruction (raises ``KeyError`` for a
    shape outside the modelled subset, like the object path)."""
    num_sources = (1 if flags & 3 else 0) + (1 if (flags >> SRC2_SHIFT) & 3 else 0)
    return event_id_for(OP_CLASSES[op_code], num_sources)


#: Stack-update direction per packed op code (None for non-stack ops).
_STACK_OP_BY_CODE: Tuple[Optional[StackOp], ...] = tuple(
    StackOp.CALL if op is OpClass.CALL
    else StackOp.RETURN if op is OpClass.RETURN
    else None
    for op in OP_CLASSES
)

#: Event id per packed instruction shape, indexed by
#: ``op_code << 4 | (flags & 15)`` (the low nibble holds both source kinds);
#: None where the (op class, source count) pair has no event id.
_EVENT_ID_BY_SHAPE: Tuple[Optional[int], ...] = tuple(
    known_event_ids().get(
        (
            OP_CLASSES[shape >> 4],
            (1 if shape & 3 else 0) + (1 if (shape >> SRC2_SHIFT) & 3 else 0),
        )
    )
    for shape in range(len(OP_CLASSES) << 4)
)


def build_plan(trace: Trace, monitor: Monitor) -> DeliveryPlan:
    """Classify every trace item into its delivery plan entry (hot: one
    pass per (trace, monitor), so the per-item lookups are hoisted).

    Packed traces whose monitor uses the stock ``wants`` predicate are
    classified straight from the columns — no per-item ``Instruction``
    materialisation (tested bit-identical against the object path)."""
    if isinstance(trace, PackedTrace) and type(monitor).wants is Monitor.wants:
        return _build_plan_packed(trace, monitor)
    items: List[Optional[_WorkItem]] = []
    append = items.append
    wants = monitor.wants
    from_instruction = MonitoredEvent.from_instruction
    instruction_event = _ItemKind.INSTRUCTION_EVENT
    stack_update = _ItemKind.STACK_UPDATE
    monitored = 0
    stack_events = 0
    high_level = 0
    for index, item in enumerate(trace):
        if isinstance(item, Instruction):
            if wants(item):
                event = from_instruction(item, sequence=index)
                if event.is_stack_update:
                    stack_events += 1
                    append(_WorkItem(stack_update, event))
                else:
                    monitored += 1
                    append(_WorkItem(instruction_event, event))
            else:
                append(None)
        else:
            high_level += 1
            append(_WorkItem(_ItemKind.HIGH_LEVEL, item))
    return DeliveryPlan(items, monitored, stack_events, high_level)


def _build_plan_packed(trace: PackedTrace, monitor: Monitor) -> DeliveryPlan:
    """Column fast path of :func:`build_plan`.

    Builds the exact :class:`MonitoredEvent` payloads that
    ``MonitoredEvent.from_instruction`` would produce, directly from the
    packed columns; high-level payloads come from the trace's lazy item view
    (shared with any other consumer of the same trace).

    Event payloads are monitor-independent (the monitor only decides *which*
    items produce one), so they are memoised on the trace: the five paper
    monitors mostly want overlapping op classes, and grid cells sharing a
    benchmark construct each event once.
    """
    # monitor.wants depends only on the op class for the stock predicate, so
    # it collapses to one boolean per packed op code.
    wanted = tuple(
        (monitor.monitors_stack_updates if op.is_stack_op else
         op in monitor.monitored_op_classes)
        for op in OP_CLASSES
    )
    items: List[Optional[_WorkItem]] = []
    append = items.append
    instruction_event = _ItemKind.INSTRUCTION_EVENT
    stack_update_kind = _ItemKind.STACK_UPDATE
    high_level_kind = _ItemKind.HIGH_LEVEL
    monitored = 0
    stack_events = 0
    high_level = 0

    f0, f1, f2, f3, f4, f5, kind_column, op_column, flags_column, _ = (
        trace.column_lists()
    )
    view = trace.items
    register_kind = OPERAND_REGISTER
    memory_kind = OPERAND_MEMORY
    memory_below = monitor.wants_memory_below
    full_handler = HandlerKind.FULL
    new_item = _WorkItem.__new__
    new_tuple = tuple.__new__
    event_type = MonitoredEvent
    stack_op_by_code = _STACK_OP_BY_CODE
    event_ids = _EVENT_ID_BY_SHAPE

    # Monitor-independent payload memo, one slot per trace item.
    events = getattr(trace, "_plan_event_cache", None)
    if events is None:
        events = [None] * len(trace)
        trace._plan_event_cache = events

    for index, kind, op_code, flags in zip(
        range(len(trace)), kind_column, op_column, flags_column
    ):
        if kind != KIND_INSTRUCTION:
            high_level += 1
            append(_WorkItem(high_level_kind, view[index]))
            continue
        if not wanted[op_code]:
            append(None)
            continue
        stack_op = stack_op_by_code[op_code]
        if stack_op is not None:
            stack_events += 1
            event = events[index]
            if event is None:
                event = new_tuple(event_type, (
                    _event_id(op_code, flags),
                    f0[index],
                    None,
                    None,
                    None,
                    None,
                    StackUpdate(
                        op=stack_op, frame_base=f4[index], frame_size=f5[index]
                    ),
                    index,
                ))
                events[index] = event
            item = new_item(_WorkItem)
            item.kind = stack_update_kind
            item.payload = event
            item.handler_kind = full_handler
            item.sequence = index
            append(item)
            continue
        src1_kind = flags & 3
        src2_kind = (flags >> SRC2_SHIFT) & 3
        dest_kind = (flags >> DEST_SHIFT) & 3
        if src1_kind == memory_kind:
            app_addr = f1[index]
        elif src2_kind == memory_kind:
            app_addr = f2[index]
        elif dest_kind == memory_kind:
            app_addr = f3[index]
        else:
            app_addr = None
        if memory_below is not None and (
            app_addr is None or app_addr >= memory_below
        ):
            append(None)
            continue
        monitored += 1
        event = events[index]
        if event is None:
            event_id = event_ids[(op_code << 4) | (flags & 15)]
            if event_id is None:
                event_id = _event_id(op_code, flags)
            event = new_tuple(event_type, (
                event_id,
                f0[index],
                app_addr,
                f1[index] if src1_kind == register_kind else None,
                f2[index] if src2_kind == register_kind else None,
                f3[index] if dest_kind == register_kind else None,
                None,
                index,
            ))
            events[index] = event
        item = new_item(_WorkItem)
        item.kind = instruction_event
        item.payload = event
        item.handler_kind = full_handler
        item.sequence = index
        append(item)
    return DeliveryPlan(items, monitored, stack_events, high_level)


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
        plan: Optional[DeliveryPlan] = None,
    ) -> None:
        """``warmup_items`` leading trace items are applied functionally at
        zero cost before timing starts — the analogue of the paper's SMARTS
        checkpoints with warmed caches and metadata (Section 6).

        ``schedule`` and ``plan`` optionally supply the precomputed
        unobstructed retirement schedule and delivery plan (the runner layer
        caches both across grid cells); when omitted they are computed here.
        """
        self.trace = trace
        self.monitor = monitor
        self.config = config
        self.profile = profile
        self.warmup_items = min(warmup_items, max(0, len(trace.items) - 1))
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

        # The filter memo and burst draining are enabled together: only for
        # the event-driven engines ("event" and its "vector" kernel tier;
        # the naive reference stays truly inline, so the equivalence suite
        # compares memoized-fused against inline walks), only for monitors
        # that declare their handlers memo-safe, and never under
        # REPRO_FORCE_INLINE_FADE=1 (the CI fallback-rot knob).
        fade_fast = (
            config.fade_enabled
            and config.engine in ("event", "vector")
            and monitor.filter_memo_safe
            and not force_inline_filtering()
        )
        self.fade: Optional[Fade] = None
        if config.fade_enabled:
            self.fade = Fade(
                program=monitor.fade_program(),
                md_registers=monitor.critical_regs,
                md_memory=monitor.critical_mem,
                config=FadeConfig(
                    non_blocking=config.non_blocking,
                    fsq_capacity=config.fsq_capacity,
                    md_cache=config.md_cache,
                    filter_memo=fade_fast,
                ),
            )
        self._fuse_enabled = fade_fast
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

        if plan is None:
            plan = build_plan(trace, monitor)
        self._plan = plan.items
        self._plan_len = len(plan.items)

        # The vector tier: NumPy column kernels layered over the event
        # engine's windows (see repro.kernels).  Preconditions the kernels
        # cannot honor drop to the plain event path *structurally*: no
        # NumPy (one-time warning), FADE disabled, a memo-unsafe monitor,
        # forced-inline CI runs, or blocking backpressure.
        self._vector = None
        self._np = None
        self._schedule_np = None
        self._cross_base: Optional[float] = None
        self._cross_js: Optional[list] = None
        self._cross_hs: list = []
        self._cross_pos = 0
        self._cross_streak = 0
        if config.engine == "vector":
            from repro.kernels import get_numpy

            np_mod = get_numpy(warn=True)
            if np_mod is not None and fade_fast and config.non_blocking:
                from repro.kernels.predict import VectorPredictor

                self._np = np_mod
                self._vector = VectorPredictor(
                    np_mod, self.fade.pipeline, plan
                )

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
        self._timed_started_at = 0.0

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
        self._monitor_item: Optional[_WorkItem] = None
        self._monitor_remaining = 0  # Integer handler-cost units.
        self._fade_ready_at = 0
        self._fade_wait_seq: Optional[int] = None
        self._fade_draining = False
        # Figure 4(b, c) tracking.
        self._filterable_gap = 0
        self._current_burst = 0
        self._saw_unfiltered = False
        # Checkpointing (off by default): ``_checkpoint_at`` is the next
        # plan-item index at which to emit a checkpoint, so the engine loops
        # pay one attribute load and integer compare while disabled.
        self._checkpoint_at = _NEVER
        self._checkpoint_thresholds: Sequence[int] = ()
        self._checkpoint_position = 0
        self._checkpoint_callback = None
        # Segment stop boundary (``run_segment``): like ``_checkpoint_at``,
        # a plan-item index compared once per engine iteration; ``_NEVER``
        # while running monolithically.
        self._stop_at = _NEVER
        self._restored = False

    # ------------------------------------------------------------------ run

    def _run_warmup(self) -> None:
        """Apply the leading ``warmup_items`` functionally, then reset every
        statistic so timing starts from a warmed state."""
        count = self.warmup_items
        if count <= 0:
            return
        fade = self.fade
        monitor = self.monitor
        plan = self._plan
        instruction_event = _ItemKind.INSTRUCTION_EVENT
        stack_kind = _ItemKind.STACK_UPDATE
        # Packed traces count instructions with a column scan; object traces
        # with an isinstance pass — no materialisation either way.
        instructions_warmed = self.trace.count_instructions(0, count)
        monitored = stack = high = 0
        for index in range(count):
            item = plan[index]
            if item is None:
                continue
            if item.kind is instruction_event:
                monitored += 1
                if fade is not None:
                    outcome = fade.process_event(item.payload)
                    kind = outcome.handler_kind
                    if not outcome.filtered:
                        monitor.handle_event(item.payload, kind)
                        fade.handler_completed(item.payload.sequence)
                else:
                    monitor.handle_event(item.payload)
            elif item.kind is stack_kind:
                stack += 1
                update = item.payload.stack_update
                if fade is not None and fade.suu is not None:
                    fade.process_stack_update(update)
                    monitor.on_suu_stack_update(update)
                else:
                    monitor.handle_stack_update(update)
            else:
                high += 1
                if fade is not None:
                    for inv_id, value in monitor.runtime_invariant_updates(
                        item.payload
                    ):
                        fade.write_invariant(inv_id, value)
                monitor.handle_high_level(item.payload)
        # Reset statistics gathered during warmup.
        monitor.reports.clear()
        if fade is not None:
            fade.stats.reset()
        self._app_index = count
        self._progress_base = self._schedule[count - 1]
        self._progress_halves = 0
        self._timed_started_at = self._schedule[count - 1]
        # Report only the timed region's counts.
        self.result.instructions -= instructions_warmed
        self.result.monitored_events -= monitored
        self.result.stack_update_events -= stack
        self.result.high_level_events -= high
        self.result.baseline_cycles = self._schedule[-1] - self._timed_started_at

    def run(self) -> RunResult:
        if not self._restored:
            # A restored simulation resumes strictly after warmup: snapshots
            # are only taken inside the timed region.
            self._run_warmup()
        if self.config.engine == "naive":
            self._run_naive()
        else:
            self._run_event()
        return self._finalize()

    def run_segment(self, stop_at: Optional[int] = None) -> Optional[RunResult]:
        """Run until the application has issued ``stop_at`` plan items, or
        to completion.

        ``stop_at`` is a plan-index boundary — the exact convention
        checkpoint thresholds use — and the engine pauses at its first
        top-of-loop observation of ``_app_index >= stop_at``, the same
        program point a checkpoint callback fires at.  Fused windows may
        overshoot the boundary before the check is reached; because the
        engines are deterministic, the paused state is still a pure
        function of (spec content, boundary), which is what lets seam
        blobs be shared across runs and across segment counts.

        Returns the finished :class:`RunResult` when the run completed
        within this segment (the boundary can sit past the last plan item,
        or a fused window can finish the run before the boundary check),
        or ``None`` when paused at the boundary — ``snapshot()`` then
        captures the seam state.  Cumulative statistics ride inside the
        seam, so the *final* segment's result is already the stitched
        whole-run result (see DESIGN.md §13).  A paused simulation must
        not be finalized or resumed in place; build a fresh simulation and
        ``restore`` the seam into it.
        """
        if not self._restored:
            self._run_warmup()
        self._stop_at = _NEVER if stop_at is None else stop_at
        try:
            if self.config.engine == "naive":
                self._run_naive()
            else:
                self._run_event()
        finally:
            self._stop_at = _NEVER
        if self._done():
            return self._finalize()
        return None

    def _finalize(self) -> RunResult:
        """Collect the finished run into its :class:`RunResult` (split out
        so benchmarks can time the engine loop in isolation)."""
        self._finish_burst()
        if self._vector is not None:
            self._vector.flush_stats()
        self.result.cycles = float(self._now)
        self.result.reports = list(self.monitor.reports)
        if self.fade is not None:
            self.result.fade_stats = self.fade.stats
        self.result.event_queue_stats = self.event_queue.stats
        if self.work_queue is not self.event_queue:
            self.result.work_queue_stats = self.work_queue.stats
        if _COVERAGE.enabled:
            self._coverage_finalize()
        return self.result

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
            if self._app_index >= self._checkpoint_at:
                self._emit_checkpoint()
            if self._app_index >= self._stop_at:
                return
            step()

    def _run_event(self) -> None:
        """Event-driven core: jump across provably quiet intervals.

        Each iteration either executes one reference cycle (when any agent
        acts this cycle) or advances ``_quiet_horizon()`` cycles in a single
        bulk-accounted step.  Because skips cover only cycles in which the
        reference stepper would mutate nothing but counters, the final
        :class:`RunResult` is bit-identical to the naive engine's.
        """
        max_cycles = self.config.max_cycles
        done = self._done
        step = self._step_cycle
        horizon = self._quiet_horizon
        skip = self._skip_cycles
        fuse = self._fuse_enabled
        fused_drain = self._fused_drain
        # Adaptive probing: during dense activity (probes keep finding
        # nothing, or only 1-3-cycle skips) the probe interval escalates up
        # to every 8th cycle, so busy regions stop paying the probe on every
        # cycle.  Stepping through a missed quiet cycle is the reference
        # behaviour itself, so probe scheduling never affects results.
        gap = 0  # Cycles to step blindly before the next probe.
        probe_gap = 1
        while not done():
            now = self._now
            if now >= max_cycles:
                raise self._cycle_limit_error()
            if self._app_index >= self._checkpoint_at:
                self._emit_checkpoint()
            if self._app_index >= self._stop_at:
                return
            # Burst draining first: a fused window handles whole filtered
            # bursts, FADE-busy tails, starved stretches, backpressured
            # (blocked-application) phases and monitor-bound drain/wait
            # stretches — plus the app's concurrent retirements — in one
            # call.
            if fuse and fused_drain():
                continue
            if gap > 0:
                gap -= 1
                step()
                continue
            quiet = horizon()
            if quiet > 0:
                probe_gap = 1  # Productive region: probe every cycle again.
                if quiet > max_cycles - now:
                    quiet = max_cycles - now
                skip(quiet)
                if _COVERAGE.enabled:
                    _COVERAGE.hit("engine.skip")
            else:
                step()
                if _COVERAGE.enabled:
                    _COVERAGE.hit("engine.step")
                if probe_gap < 8:
                    probe_gap <<= 1
                gap = probe_gap - 1

    def _step_cycle(self) -> None:
        """One cycle of the reference semantics (shared by both engines)."""
        monitor_busy = self._monitor_step()
        if self.fade is not None:
            self._fade_step()
        self._app_step(monitor_busy)
        if self._sample:
            self._eq_hist[len(self._eq_entries)] += 1
            if self._split_queues:
                self._wq_hist[len(self._wq_entries)] += 1
        # Inline CycleBreakdown.record(app_blocked, monitor_busy, 1): this
        # runs every stepped cycle.
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

    # ------------------------------------------------------ event-driven core

    def _quiet_horizon(self) -> int:
        """How many upcoming cycles are *quiet*: no agent dispatches,
        completes, enqueues, dequeues or retires anything — every agent only
        accrues time and counters.  0 means "some agent acts this cycle; run
        the reference stepper".  The computation is conservative: whenever a
        state change cannot be ruled out, the cycle is treated as non-quiet.
        """
        item = self._monitor_item
        if item is None:
            if self._wq_entries:
                return 0  # The monitor dispatches a handler this cycle.
            monitor_busy = False
            horizon = _NEVER
        else:
            monitor_busy = True
            if self._smt and not self._app_blocked and self._app_index < self._plan_len:
                budget = self._budget_half
            else:
                budget = self._budget_full
            remaining = self._monitor_remaining
            if remaining <= budget:
                return 0  # The running handler completes this cycle.
            # The handler completes on cycle ceil(remaining / budget); all
            # earlier cycles only decrement the integer remainder.
            horizon = (remaining - 1) // budget
        if self.fade is not None:
            fade_horizon = self._fade_quiet_horizon()
            if fade_horizon == 0:
                return 0
            if fade_horizon < horizon:
                horizon = fade_horizon
        app_horizon = self._app_quiet_horizon(monitor_busy)
        return app_horizon if app_horizon < horizon else horizon

    def _fade_quiet_horizon(self) -> int:
        """FADE's contribution to the quiet horizon (see `_quiet_horizon`).

        Returns cycles-until-ready while the pipeline is busy, ``_NEVER``
        while FADE only counts wait/drain cycles or is stalled on a full
        queue/FSQ (cleared only by a non-quiet monitor cycle), and 0 when it
        would dequeue or process something this cycle.
        """
        ready_at = self._fade_ready_at
        if ready_at > self._now:
            return ready_at - self._now
        if self._fade_wait_seq is not None:
            return _NEVER  # Accrues wait cycles until the handler completes.
        if self._fade_draining:
            # Drained means the unfiltered queue emptied and the last
            # handler completed — both non-quiet monitor cycles.
            if self._wq_entries or self._monitor_item is not None:
                return _NEVER
            return 0
        event_entries = self._eq_entries
        if not event_entries:
            return _NEVER  # Filling the queue is a (non-quiet) app retirement.
        kind = event_entries[0].kind
        if kind is _ItemKind.INSTRUCTION_EVENT:
            capacity = self._wq_capacity
            if capacity is not None and len(self._wq_entries) >= capacity:
                return _NEVER  # Freeing a slot is a non-quiet monitor cycle.
            if self.fade.fsq_full:
                return _NEVER  # FSQ entries release on handler completion.
            return 0
        if kind is _ItemKind.HIGH_LEVEL:
            capacity = self._wq_capacity
            if capacity is not None and len(self._wq_entries) >= capacity:
                return _NEVER
            return 0
        return 0  # Stack update: starts draining or runs the SUU this cycle.

    def _app_quiet_horizon(self, monitor_busy: bool) -> int:
        """The app core's contribution: cycles until the next retirement
        crossing at the current IPC share, or ``_NEVER`` while finished or
        blocked on a (still-full) queue."""
        if self._app_index >= self._plan_len:
            return _NEVER
        if self._app_blocked:
            # Blocked deliveries keep failing while the target queue is
            # full; the dequeue that frees a slot is itself non-quiet.
            queue = self.event_queue if self.fade is not None else self.work_queue
            return _NEVER if queue.is_full else 0
        halves = 1 if (self._smt and monitor_busy) else 2
        target = self._schedule[self._app_index]
        base = self._progress_base
        current = self._progress_halves
        if target <= base + (current + halves) * 0.5:
            return 0  # A retirement crosses this cycle.
        # First crossing cycle k: the smallest k with
        # base + (current + k*halves)/2 >= target.  A float estimate seeds
        # the search; the exact progress expression then verifies it, so the
        # crossing cycle matches the reference stepper bit for bit.
        k = int(math.ceil(((target - base) * 2.0 - current) / halves))
        if k < 2:
            k = 2
        while k > 2 and base + (current + (k - 1) * halves) * 0.5 >= target:
            k -= 1
        while base + (current + k * halves) * 0.5 < target:
            k += 1
        return k - 1

    def _skip_cycles(self, cycles: int) -> None:
        """Advance ``cycles`` quiet cycles in one jump, accruing exactly the
        statistics the reference stepper would accrue one cycle at a time."""
        result = self.result
        monitor_busy = self._monitor_item is not None
        if monitor_busy:
            if self._smt and not self._app_blocked and self._app_index < self._plan_len:
                budget = self._budget_half
            else:
                budget = self._budget_full
            self._monitor_remaining -= cycles * budget
            result.monitor_busy_cycles += cycles
        if self.fade is not None and self._fade_ready_at <= self._now:
            if self._fade_wait_seq is not None:
                result.fade_wait_cycles += cycles
            elif self._fade_draining:
                result.fade_drain_cycles += cycles
        if self._app_index < self._plan_len:
            if self._app_blocked:
                result.app_blocked_cycles += cycles
                queue = self.event_queue if self.fade is not None else self.work_queue
                queue.stats.rejected += cycles
            elif self._smt and monitor_busy:
                self._progress_halves += cycles
            else:
                self._progress_halves += 2 * cycles
        if self._sample:
            self._eq_hist[len(self._eq_entries)] += cycles
            if self._split_queues:
                self._wq_hist[len(self._wq_entries)] += cycles
        self._breakdown.record(self._app_blocked, monitor_busy, cycles)
        self._now += cycles

    # ------------------------------------------------------- burst draining

    def _fused_drain(self) -> bool:
        """Consume a run of filtered instruction events in one fused window.

        The window covers cycles in which the only agents acting are FADE —
        dequeueing and filtering instruction events back-to-back through the
        exact per-event functional path, in queue order — and the
        application, whose retirements are *marched* with the reference
        stepper's own progress arithmetic (same float expressions, same
        delivery order, same per-cycle backpressure retries, rejections,
        progress freezes and queue sampling).  The monitor must not *act*
        inside the window: while it is idle nothing may be dispatchable,
        and while it grinds a handler the march maintains the remaining
        handler cost with the reference per-cycle SMT budget (which tracks
        the application's blocked/finished state) and closes the window
        before the completion cycle.  Any cycle the window cannot reproduce
        verbatim — a monitor dispatch or completion, a non-instruction
        queue head, the cycle limit — ends the window *before* that cycle,
        which then runs through the shared stepper.  Results are therefore
        bit-identical to naive stepping (see DESIGN.md §7).

        Returns True when at least one cycle was consumed.
        """
        eq_entries = self._eq_entries
        instruction_kind = _ItemKind.INSTRUCTION_EVENT
        fade = self.fade
        wq_entries = self._wq_entries
        monitor_busy = self._monitor_item is not None
        # Draining/waiting FADE is *inert* under a busy monitor: the drain
        # clears only on a monitor-idle cycle and the wait only on handler
        # completion, both excluded from windows — so those states persist
        # verbatim and their cycle counters accrue in bulk.
        fade_inert = 0  # 1 = draining, 2 = waiting.
        if self._fade_draining:
            if not monitor_busy:
                return False  # The drain may clear this cycle.
            fade_inert = 1
        elif self._fade_wait_seq is not None:
            if not monitor_busy:
                return False  # The handler dispatches/completes around now.
            fade_inert = 2
        smt = self._smt
        budget_full = self._budget_full
        budget_half = self._budget_half
        remaining = 0
        if monitor_busy:
            remaining = self._monitor_remaining
            if smt and not self._app_blocked and self._app_index < self._plan_len:
                first_budget = budget_half
            else:
                first_budget = budget_full
            if remaining <= first_budget:
                return False  # The running handler completes this cycle.
        elif wq_entries:
            return False  # The monitor dispatches a handler this cycle.
        start = self._now
        ready = self._fade_ready_at
        if not fade_inert and ready <= start:
            # FADE acts immediately: cheap zero-window rejects before the
            # hoisting below (these are the common failed-attempt shapes).
            if eq_entries:
                if eq_entries[0].kind is not instruction_kind:
                    return False
            elif self._app_index >= self._plan_len and not self._app_blocked:
                return False

        # --- hoisted march state -----------------------------------------
        limit = self.config.max_cycles  # Exclusive window end.
        schedule = self._schedule
        plan = self._plan
        plan_len = self._plan_len
        app_index = self._app_index
        app_blocked = self._app_blocked
        base = self._progress_base
        halves = self._progress_halves
        step_halves = 1 if (smt and monitor_busy) else 2
        # Handler-budget consumption per cycle class (monitor-busy windows
        # only): the reference budget is the half share exactly when the
        # SMT application thread competes (running, not blocked).
        run_budget = budget_half if smt else budget_full
        eq_capacity = self.event_queue.capacity
        eq_popleft = eq_entries.popleft
        eq_stats = self.event_queue.stats
        # The pipeline is called directly; FadeStats accrue in bulk at
        # window end (bit-identical to Fade.process_event per event).  The
        # vector tier swaps in its batched predictor — a bit-identical
        # drop-in that falls back to this very pipeline per event whenever
        # a prediction is missing or a store generation moved.
        vec = self._vector
        process = vec.process if vec is not None else fade.pipeline.process
        next_nonnull = vec.columns.next_deliverable if vec is not None else None
        crossing = self._crossing_halves if vec is not None else None
        vec_take = vec.take_run if vec is not None else None
        sample = self._sample
        eq_hist = self._eq_hist
        tlb_extra = self._tlb_service_cycles
        app_finished = app_index >= plan_len
        ceil = math.ceil
        eq_append = eq_entries.append

        t = limit if fade_inert else (ready if ready > start else start)
        wq_capacity = self._wq_capacity
        # Both stall sources only change inside a window at an unfiltered
        # event (which re-derives this flag or ends the window): the
        # unfiltered queue drains and FSQ entries release only on monitor
        # cycles, which are excluded by construction.
        fade_stalled = (
            wq_capacity is not None and len(wq_entries) >= wq_capacity
        ) or fade.fsq_full
        was_stalled = fade_stalled  # Sticky (coverage classification only).
        unfiltered_exit = False

        drained = 0
        pending_filtered = 0  # Filtered run since the last unfiltered event.
        filtered_total = 0
        blocked_cycles = 0
        occupancy_sum = 0
        tlb_miss_count = 0
        partial_short_events = 0
        unfiltered_full_events = 0
        md_updates = 0
        wq_mark = start  # First cycle whose wq sample is not yet accrued.
        end = limit
        cur = start  # Next cycle to march (app step + eq sampling).
        stop = False
        # Cached absolute cycle of the next deliverable item's crossing
        # (progress at a given cycle is a fixed function while the app runs
        # unfrozen, so this survives across march segments); -1 = unknown.
        next_delivery = -1
        next_j = 0

        def march(upto: int, stop_on_delivery: bool = False) -> None:
            """Apply cycles ``[cur, upto)``: the app's retirement step, the
            monitor's budget consumption (busy windows), and the
            end-of-cycle event-queue sample, in stepper order.

            Delivery-free stretches (only None plan items cross, or nothing
            does) are accrued as whole spans: the next *deliverable* item's
            crossing cycle is computed with the stepper's own float
            expressions (seed + exact verify), every cycle before it leaves
            the queue untouched, and the crossing cycle itself is stepped
            one item at a time, reproducing rejections, the progress freeze
            and per-cycle blocked retries verbatim.  Busy windows maintain
            ``remaining`` with the per-cycle reference budget (full share
            while the application is blocked or finished, half share while
            an SMT application thread competes) and close the window before
            the handler-completion cycle (``stop``/``end``)."""
            nonlocal cur, app_index, halves, base, app_finished, app_blocked
            nonlocal blocked_cycles, stop, end, next_delivery, next_j
            nonlocal remaining
            while cur < upto:
                if app_finished:
                    # No deliveries, no progress: constant occupancy.
                    span = upto - cur
                    if monitor_busy:
                        quiet = (remaining - 1) // budget_full
                        if quiet < span:
                            span = quiet
                    if span:
                        if monitor_busy:
                            remaining -= span * budget_full
                        if sample:
                            eq_hist[len(eq_entries)] += span
                        cur += span
                    if cur < upto:
                        stop = True  # Handler completion next cycle.
                        end = cur
                    return
                delivered = False
                if app_blocked:
                    # Reference blocked-retry cycle (budget: full share).
                    if monitor_busy:
                        if remaining <= budget_full:
                            stop = True
                            end = cur
                            return
                        remaining -= budget_full
                    if len(eq_entries) >= eq_capacity:
                        eq_stats.rejected += 1
                        blocked_cycles += 1
                        if sample:
                            eq_hist[len(eq_entries)] += 1
                        cur += 1
                        continue
                    # Inlined successful BoundedQueue.try_enqueue (space
                    # was checked; the blocked item is never None).
                    eq_append(plan[app_index])
                    eq_stats.enqueued += 1
                    if len(eq_entries) > eq_stats.max_occupancy:
                        eq_stats.max_occupancy = len(eq_entries)
                    app_index += 1
                    app_blocked = False
                    delivered = True
                else:
                    if next_delivery < 0:
                        # The next cycle that can touch the queue: the
                        # crossing of the next non-None plan item (or the
                        # last item's crossing, where the app finishes).
                        if next_nonnull is not None:
                            j = next_nonnull[app_index]
                        else:
                            j = app_index
                            while j < plan_len and plan[j] is None:
                                j += 1
                        if crossing is not None and j < plan_len:
                            # Vector tier: the cached halves-space crossing
                            # (kernels.march) — step- and cycle-independent,
                            # so the pure-integer conversion below is exact.
                            h = crossing(j, base)
                            k = -((halves - h) // step_halves)
                            if k < 1:
                                k = 1
                        else:
                            target = (
                                schedule[j]
                                if j < plan_len
                                else schedule[plan_len - 1]
                            )
                            # First app step n >= 1 with base +
                            # (halves + n*h)/2 >= target, found exactly
                            # like _app_quiet_horizon.
                            k = int(
                                ceil(
                                    ((target - base) * 2.0 - halves)
                                    / step_halves
                                )
                            )
                            if k < 1:
                                k = 1
                            while (
                                k > 1
                                and base
                                + (halves + (k - 1) * step_halves) * 0.5
                                >= target
                            ):
                                k -= 1
                            while (
                                base + (halves + k * step_halves) * 0.5
                                < target
                            ):
                                k += 1
                        next_delivery = cur + k - 1
                        next_j = j
                    event_cycle = next_delivery
                    span = (
                        upto - cur if event_cycle >= upto else event_cycle - cur
                    )
                    if span and monitor_busy:
                        # The span runs at the half share (SMT app thread
                        # active); clamp it before the completion cycle.
                        quiet = (remaining - 1) // run_budget
                        if quiet < span:
                            if quiet <= 0:
                                stop = True
                                end = cur
                                return
                            span = quiet
                            halves += step_halves * span
                            progress = base + halves * 0.5
                            index = app_index
                            j = next_j
                            while index < j and schedule[index] <= progress:
                                index += 1
                            app_index = index
                            remaining -= span * run_budget
                            if sample:
                                eq_hist[len(eq_entries)] += span
                            cur += span
                            stop = True  # Completion on the next cycle.
                            end = cur
                            return
                    if span:
                        halves += step_halves * span
                        progress = base + halves * 0.5
                        index = app_index
                        j = next_j
                        while index < j and schedule[index] <= progress:
                            index += 1  # None items crossing inside the span.
                        app_index = index
                        if monitor_busy:
                            remaining -= span * run_budget
                        if sample:
                            eq_hist[len(eq_entries)] += span
                        cur += span
                        if cur >= upto:
                            return
                    next_delivery = -1  # Consumed by the cycle below.
                    # Budget for the delivery cycle: the app is running and
                    # unfrozen at cycle start.
                    if monitor_busy:
                        if remaining <= run_budget:
                            stop = True
                            end = cur
                            return
                        remaining -= run_budget
                # The delivery / retry cycle's progress advance and
                # crossing deliveries (shared by the unblock path, exactly
                # as the reference ``_app_step`` falls through).
                halves += step_halves
                progress = base + halves * 0.5
                index = app_index
                while index < plan_len and schedule[index] <= progress:
                    work = plan[index]
                    if work is not None:
                        if (
                            eq_capacity is not None
                            and len(eq_entries) >= eq_capacity
                        ):
                            # Inlined failing try_enqueue + the reference
                            # freeze at the blocked item.
                            eq_stats.rejected += 1
                            app_blocked = True
                            blocked_cycles += 1
                            base = schedule[index]
                            halves = 0
                            break
                        eq_append(work)
                        eq_stats.enqueued += 1
                        if len(eq_entries) > eq_stats.max_occupancy:
                            eq_stats.max_occupancy = len(eq_entries)
                        delivered = True
                    index += 1
                app_index = index
                if not app_blocked and index >= plan_len:
                    app_finished = True
                if sample:
                    eq_hist[len(eq_entries)] += 1
                cur += 1
                if delivered and stop_on_delivery:
                    return

        while True:
            target = t if t < limit else limit
            if cur < target:
                if (
                    target - cur == 1
                    and next_delivery > cur
                    and not app_blocked
                    and not app_finished
                    and (not monitor_busy or remaining > run_budget)
                ):
                    # Inlined single quiet-cycle march (the common shape
                    # between back-to-back one-cycle filtered events; no
                    # deliverable crosses, so only progress, the monitor
                    # budget and the sample advance — lagging ``app_index``
                    # over None items is benign, the next full march
                    # re-derives it).
                    halves += step_halves
                    if monitor_busy:
                        remaining -= run_budget
                    if sample:
                        eq_hist[len(eq_entries)] += 1
                    cur += 1
                else:
                    march(target)
                    if stop:
                        break
            if t >= limit:
                end = limit
                break
            if not eq_entries:
                if app_finished:
                    end = t
                    break
                # Starved: march (in spans) until a delivery lands; FADE
                # sees the new head on the cycle after the enqueue.
                march(limit, stop_on_delivery=True)
                if stop:
                    break
                if cur >= limit:
                    end = limit
                    break
                t = cur
                continue
            if eq_entries[0].kind is not instruction_kind:
                end = t  # Stack update / high-level head: stepper cycle.
                break
            if fade_stalled:
                # Instruction head but FADE is stalled, and freeing the
                # unfiltered queue or the FSQ takes a monitor cycle, which
                # is excluded by construction: FADE stays inert for the
                # whole window, which still marches the app.
                t = limit
                continue
            if monitor_busy:
                # Does the handler complete on cycle t itself?  Then the
                # whole cycle (FADE's dequeue included) belongs to the
                # stepper — check before processing, using cycle t's
                # reference budget (cur == t, so the app state is current).
                if app_blocked or app_finished or not smt:
                    head_budget = budget_full
                else:
                    head_budget = run_budget
                if remaining <= head_budget:
                    end = t
                    break
            if vec_take is not None and not monitor_busy and not app_blocked:
                # Vector tier, monitor-idle window: consume a whole run of
                # predicted filtered events in one step.  The run is capped
                # so every cycle it spans is delivery-free and inside the
                # window — exactly the cycles the march accrues as quiet
                # spans — so only progress, occupancy statistics and the
                # queue sample advance, in bulk.
                if app_finished:
                    max_cycles = limit - t
                elif next_delivery > t:
                    max_cycles = (
                        limit if limit < next_delivery else next_delivery
                    ) - t
                else:
                    max_cycles = 0
                if max_cycles > 0:
                    run = vec_take(eq_entries, instruction_kind, max_cycles)
                    if run is not None:
                        count, busy_total, busys = run
                        for _ in range(count):
                            eq_popleft()
                        eq_stats.dequeued += count
                        drained += count
                        pending_filtered += count
                        occupancy_sum += busy_total
                        if sample:
                            # Post-dequeue occupancies: after the k-th pop
                            # the queue sits at (len + count - 1 - k)
                            # entries for that event's occupancy cycles.
                            length = len(eq_entries) + count - 1
                            for busy in busys:
                                if busy:
                                    eq_hist[length] += busy
                                length -= 1
                        if not app_finished:
                            halves += step_halves * busy_total
                        cur += busy_total
                        t += busy_total
                        self._fade_ready_at = t
                        continue
            # Inlined BoundedQueue.dequeue (hot: once per drained event).
            work = eq_popleft()
            eq_stats.dequeued += 1
            outcome = process(work.payload)
            busy = outcome.occupancy_cycles
            occupancy_sum += busy
            if outcome.tlb_miss:
                busy += tlb_extra
                tlb_miss_count += 1
            self._fade_ready_at = t + busy
            drained += 1
            if outcome.filtered:
                pending_filtered += 1
                t += busy
                continue
            # Unfiltered: enqueue downstream; per-event statistics keep the
            # reference interleaving.
            self.work_queue.enqueue(
                _WorkItem(
                    instruction_kind,
                    work.payload,
                    handler_kind=outcome.handler_kind,
                )
            )
            if outcome.handler_kind is HandlerKind.SHORT:
                partial_short_events += 1
            else:
                unfiltered_full_events += 1
            if outcome.md_update is not None:
                md_updates += 1
            if pending_filtered:
                filtered_total += pending_filtered
                self._track_filtering(True, pending_filtered)
                pending_filtered = 0
            self._track_filtering(False)
            if sample and t > wq_mark:
                # The enqueue changes the sampled wq length from cycle t on.
                self._wq_hist[len(wq_entries) - 1] += t - wq_mark
            wq_mark = t
            if monitor_busy and fade.non_blocking:
                # The monitor only dispatches on completion (outside the
                # window): keep draining.  Our enqueue may have filled the
                # unfiltered queue, re-derive the stall flag.
                fade_stalled = (
                    wq_capacity is not None
                    and len(wq_entries) >= wq_capacity
                ) or fade.fsq_full
                was_stalled = was_stalled or fade_stalled
                t += busy
                continue
            # Monitor idle (dispatch at t + 1) or blocking mode (waiting
            # starts at t + 1): cycle t is the window's last.
            unfiltered_exit = True
            if not fade.non_blocking:
                self._fade_wait_seq = work.payload.sequence
            march(t + 1)
            if not stop:
                end = t + 1
            break

        window = end - start
        if window <= 0:
            return False  # First cycle not fusable; nothing was consumed.

        if pending_filtered:
            filtered_total += pending_filtered
            self._track_filtering(True, pending_filtered)
        if drained:
            # Bulk FadeStats accrual (what Fade.process_event does per
            # event, summed over the window).
            fade_stats = fade.stats
            fade_stats.instruction_events += drained
            fade_stats.busy_cycles += occupancy_sum
            fade_stats.tlb_misses += tlb_miss_count
            fade_stats.filtered += filtered_total
            fade_stats.partial_short += partial_short_events
            fade_stats.unfiltered_full += unfiltered_full_events
            fade_stats.md_updates_committed += md_updates

        # --- bulk accrual over [start, end) ------------------------------
        self._app_index = app_index
        self._app_blocked = app_blocked
        self._progress_base = base
        self._progress_halves = halves
        self._now = end
        result = self.result
        if blocked_cycles:
            result.app_blocked_cycles += blocked_cycles
        if fade_inert == 1:
            # Draining accrues every window cycle (ready_at never exceeds
            # ``now`` while the drain flag is up).
            result.fade_drain_cycles += window
        elif fade_inert == 2:
            # Waiting accrues only once the pipeline itself is free.
            accrue_from = ready if ready > start else start
            if end > accrue_from:
                result.fade_wait_cycles += end - accrue_from
        breakdown = self._breakdown
        if monitor_busy:
            self._monitor_remaining = remaining
            result.monitor_busy_cycles += window
            # Per-cycle classification: a cycle ends blocked exactly when
            # it accrued app_blocked_cycles (retry failure or fresh freeze).
            if blocked_cycles:
                breakdown.app_idle += blocked_cycles
                breakdown.both_busy += window - blocked_cycles
            else:
                breakdown.both_busy += window
        else:
            breakdown.monitor_idle += window
        if sample and self._split_queues and end > wq_mark:
            # Unfiltered-queue occupancy was constant since the last
            # unfiltered enqueue (monitor cycles are excluded).
            self._wq_hist[len(wq_entries)] += end - wq_mark
        fusion_stats.runs += 1
        fusion_stats.fused_events += drained
        fusion_stats.fused_cycles += window
        fusion_stats.run_lengths[drained] += 1
        if _COVERAGE.enabled:
            cov = _COVERAGE
            cov.hit("fuse.monitor_busy" if monitor_busy else "fuse.monitor_idle")
            if fade_inert == 1:
                cov.hit("fuse.inert_drain")
            elif fade_inert == 2:
                cov.hit("fuse.inert_wait")
            if was_stalled:
                cov.hit("fuse.stalled")
            if blocked_cycles:
                cov.hit("fuse.app_blocked")
            if filtered_total:
                cov.hit("fuse.filtered_run")
            if unfiltered_exit:
                cov.hit("fuse.unfiltered_exit")
            if not drained:
                cov.hit("fuse.app_only")
        return True

    # ------------------------------------------------------- vector kernels

    def _crossing_halves(self, j: int, base: float) -> int:
        """Exact crossing threshold (in progress halves) of deliverable
        plan item ``j`` for the current progress ``base``.

        Thin cache over :func:`repro.kernels.march.crossing_halves`: one
        kernel call covers a run of upcoming deliverables, and since the
        threshold depends only on (base, schedule target) the cache is
        keyed on the exact base value — correct across windows, marches,
        restores and even a coincidental base re-match after a freeze.
        """
        if base == self._cross_base:
            js = self._cross_js
            if js is not None:
                pos = self._cross_pos
                n = len(js)
                while pos < n and js[pos] < j:
                    pos += 1
                if pos < n and js[pos] == j:
                    self._cross_pos = pos
                    return self._cross_hs[pos]
            streak = self._cross_streak + 1
        else:
            # A backpressure freeze re-anchored the progress base; any
            # batched thresholds are for a stale base.
            streak = 1
            self._cross_base = base
            self._cross_js = None
        self._cross_streak = streak
        if streak < 16:
            # Base values die young around backpressure (every freeze
            # re-anchors), so batching pays only once this base has proven
            # stable; until then compute the one threshold scalar-wise,
            # with the same seed + exact-verify shape as the kernel.
            target = self._schedule[j]
            h = int(math.ceil((target - base) * 2.0))
            while base + (h - 1) * 0.5 >= target:
                h -= 1
            while base + h * 0.5 < target:
                h += 1
            return h
        from repro.kernels.march import crossing_halves

        np_mod = self._np
        schedule_np = self._schedule_np
        if schedule_np is None:
            schedule_np = np_mod.asarray(self._schedule, dtype=np_mod.float64)
            self._schedule_np = schedule_np
        deliverables = self._vector.columns.deliverable_list
        idx = bisect_left(deliverables, j)
        js = deliverables[idx : idx + 1024]
        self._cross_js = js
        self._cross_hs = crossing_halves(
            np_mod, schedule_np[js], base
        ).tolist()
        self._cross_pos = 0
        return self._cross_hs[0]

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

    def _dispatch_handler(self, item: _WorkItem) -> None:
        """Start one software handler; functional effects apply here."""
        if item.kind is _ItemKind.INSTRUCTION_EVENT:
            outcome = self.monitor.handle_event(item.payload, item.handler_kind)
        elif item.kind is _ItemKind.STACK_UPDATE:
            outcome = self.monitor.handle_stack_update(item.payload.stack_update)
        else:
            outcome = self.monitor.handle_high_level(item.payload)
        totals = self.result.handler_instructions
        totals[outcome.handler_class] = totals.get(outcome.handler_class, 0.0) + outcome.cost
        self.result.handlers_executed += 1
        if self.fade is None and item.kind is _ItemKind.INSTRUCTION_EVENT:
            # Unaccelerated runs still record what *would* be filterable for
            # the Figure 4(b, c) motivation study: handlers that turned out
            # to be clean checks or redundant updates.
            filterable = outcome.handler_class in (
                HandlerClass.CLEAN_CHECK,
                HandlerClass.REDUNDANT_UPDATE,
            )
            self._track_filtering(filterable)
        self._monitor_item = item
        self._monitor_remaining = int(outcome.cost) * self._unit_scale

    def _complete_handler(self) -> None:
        item = self._monitor_item
        self._monitor_item = None
        self._monitor_remaining = 0
        if item is None:
            return
        if self.fade is not None and item.kind is _ItemKind.INSTRUCTION_EVENT:
            self.fade.handler_completed(item.sequence)
            if self._fade_wait_seq == item.sequence:
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

        item: _WorkItem = self._eq_entries[0]
        if item.kind is _ItemKind.STACK_UPDATE:
            # Section 5.2: pending unfiltered events may reference the frame;
            # the consumer must drain the queue before SUU processing.
            if self.config.stack_update_drain and not self._unfiltered_drained:
                self._fade_draining = True
                self.result.fade_drain_cycles += 1
                if _COVERAGE.enabled:
                    _COVERAGE.hit("fade.drain")
                return
            self.event_queue.dequeue()
            update = item.payload.stack_update
            cycles = fade.process_stack_update(update)
            self.monitor.on_suu_stack_update(update)
            self._fade_ready_at = self._now + cycles
            if _COVERAGE.enabled:
                _COVERAGE.hit("fade.suu")
            return

        if item.kind is _ItemKind.HIGH_LEVEL:
            if self.work_queue.is_full:
                if _COVERAGE.enabled:
                    _COVERAGE.hit("stall.wq_full")
                return
            self.event_queue.dequeue()
            for inv_id, value in self.monitor.runtime_invariant_updates(item.payload):
                fade.write_invariant(inv_id, value)
            self.work_queue.enqueue(item)
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
        event = item.payload
        outcome = fade.process_event(event)
        busy = outcome.occupancy_cycles
        if outcome.tlb_miss:
            busy += self._tlb_service_cycles
        self._fade_ready_at = self._now + busy
        self._track_filtering(outcome.filtered)
        if not outcome.filtered:
            self.work_queue.enqueue(
                _WorkItem(
                    _ItemKind.INSTRUCTION_EVENT,
                    event,
                    handler_kind=outcome.handler_kind,
                )
            )
            if not fade.non_blocking:
                self._fade_wait_seq = event.sequence

    @property
    def _unfiltered_drained(self) -> bool:
        return not self._wq_entries and self._monitor_item is None

    # ------------------------------------------------------------------ app

    @property
    def _app_finished(self) -> bool:
        return self._app_index >= self._plan_len

    @property
    def _app_progress(self) -> float:
        """Current application progress in (fractional) schedule cycles."""
        return self._progress_base + self._progress_halves * 0.5

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
        plan_item = self._plan[index]
        if plan_item is None:
            return True
        if self.fade is not None:
            return self.event_queue.try_enqueue(plan_item)
        if plan_item.kind is _ItemKind.STACK_UPDATE and not self.monitor.monitors_stack_updates:
            return True
        return self.work_queue.try_enqueue(plan_item)

    # ------------------------------------------------------------- statistics

    def _track_filtering(self, filtered: bool, run: int = 1) -> None:
        """Figure 4(b, c): distances between and bursts of unfiltered events.

        ``run`` bulk-accrues a fused run of ``run`` consecutive *filtered*
        events in one call (identical to ``run`` single calls; unfiltered
        events are always tracked one at a time).  :meth:`_finish_burst` is
        the one-shot finalizer that flushes the trailing burst at run end.
        """
        if filtered:
            self._filterable_gap += run
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

    # --------------------------------------------------- checkpoint protocol

    def configure_checkpoints(self, every_instructions: int, callback) -> None:
        """Invoke ``callback(self)`` each time ``every_instructions`` timed
        instructions have retired (measured from the end of warmup).

        Thresholds are precomputed plan-item indices, so the engine loops
        only compare ``_app_index`` against an integer per iteration; while
        disabled that integer is ``_NEVER`` and the compare never fires.
        Thresholds at or before the current ``_app_index`` are skipped, so
        a restored simulation only emits checkpoints *beyond* the one it
        resumed from.  The callback runs between engine iterations and must
        not mutate simulation state (``snapshot`` does not)."""
        if callback is None or every_instructions <= 0:
            self._checkpoint_thresholds = ()
            self._checkpoint_position = 0
            self._checkpoint_callback = None
            self._checkpoint_at = _NEVER
            return
        instruction_flags = _instruction_flags(self.trace)
        thresholds: List[int] = []
        seen = 0
        mark = every_instructions
        plan_len = self._plan_len
        for index in range(self.warmup_items, plan_len):
            if instruction_flags[index]:
                seen += 1
                if seen >= mark:
                    # A checkpoint at the very end of the plan is useless
                    # (the run completes immediately after); drop it.
                    if index + 1 < plan_len:
                        thresholds.append(index + 1)
                    mark += every_instructions
        position = 0
        while position < len(thresholds) and thresholds[position] <= self._app_index:
            position += 1
        self._checkpoint_thresholds = tuple(thresholds)
        self._checkpoint_position = position
        self._checkpoint_callback = callback
        self._checkpoint_at = (
            thresholds[position] if position < len(thresholds) else _NEVER
        )

    def _emit_checkpoint(self) -> None:
        """Fire the checkpoint callback once and arm the next threshold.

        The event engine can jump several thresholds inside one fused
        window; all of them collapse into the single checkpoint taken here
        (checkpoints are periodic best-effort, not exact)."""
        thresholds = self._checkpoint_thresholds
        position = self._checkpoint_position
        app_index = self._app_index
        while position < len(thresholds) and thresholds[position] <= app_index:
            position += 1
        self._checkpoint_position = position
        self._checkpoint_at = (
            thresholds[position] if position < len(thresholds) else _NEVER
        )
        callback = self._checkpoint_callback
        if callback is not None:
            if self._vector is not None:
                # The callback may snapshot/restore or otherwise touch
                # stores whose generation counters anchor the predictions.
                self._vector.drop_batch()
            callback(self)

    def timed_progress(self) -> float:
        """Fraction of the timed (post-warmup) region already consumed —
        the checkpoint hooks use it to gate progress-conditioned fault
        injection (``worker_kill_midrun`` fires only past its threshold)."""
        total = self._plan_len - self.warmup_items
        if total <= 0:
            return 1.0
        return min(1.0, (self._app_index - self.warmup_items) / total)

    @staticmethod
    def _encode_item(item: Optional[_WorkItem]):
        """Compact, payload-free encoding of one queue entry.

        Instruction-event and stack-update payloads are immutable plan
        entries, so only the plan index (== event sequence) travels with the
        snapshot; high-level payloads have no plan-relative identity worth
        preserving and are carried whole (they are small and immutable)."""
        if item is None:
            return None
        if item.kind is _ItemKind.HIGH_LEVEL:
            return (item.kind.value, item.payload, item.handler_kind.value)
        return (item.kind.value, item.sequence, item.handler_kind.value)

    def _decode_item(self, encoded) -> Optional[_WorkItem]:
        """Inverse of :meth:`_encode_item`: rebuilds a fresh ``_WorkItem``
        (queue entries are compared by value, never by identity)."""
        if encoded is None:
            return None
        tag, reference, handler_value = encoded
        handler_kind = HandlerKind(handler_value)
        if tag == _ItemKind.HIGH_LEVEL.value:
            return _WorkItem(_ItemKind.HIGH_LEVEL, reference, handler_kind)
        plan_item = self._plan[reference]
        return _WorkItem(_ItemKind(tag), plan_item.payload, handler_kind)

    def snapshot(self) -> dict:
        """Full mid-run state as a picklable plain-container dict.

        Captures everything ``restore`` needs to finish the run with results
        bit-identical to never having stopped: engine scalars, queue entries
        and statistics, mid-run :class:`RunResult` counters, the monitor's
        functional state and FADE's architectural state.  Pure caches (the
        filter memo, chain caches, plan/event memos) are deliberately
        excluded — they rebuild cold without affecting any result
        (DESIGN.md §11)."""
        result = self.result
        split = self._split_queues
        return {
            "version": SIM_STATE_VERSION,
            "engine": self.config.engine,
            "now": self._now,
            "app_index": self._app_index,
            "progress_base": self._progress_base,
            "progress_halves": self._progress_halves,
            "app_blocked": self._app_blocked,
            "timed_started_at": self._timed_started_at,
            "monitor_item": self._encode_item(self._monitor_item),
            "monitor_remaining": self._monitor_remaining,
            "fade_ready_at": self._fade_ready_at,
            "fade_wait_seq": self._fade_wait_seq,
            "fade_draining": self._fade_draining,
            "filterable_gap": self._filterable_gap,
            "current_burst": self._current_burst,
            "saw_unfiltered": self._saw_unfiltered,
            "eq_entries": [self._encode_item(i) for i in self._eq_entries],
            "eq_stats": self.event_queue.stats.capture_state(),
            "wq_entries": (
                [self._encode_item(i) for i in self._wq_entries] if split else None
            ),
            "wq_stats": self.work_queue.stats.capture_state() if split else None,
            "monitor": self.monitor.capture_state(),
            "fade": self.fade.capture_state() if self.fade is not None else None,
            "result": {
                "instructions": result.instructions,
                "monitored_events": result.monitored_events,
                "stack_update_events": result.stack_update_events,
                "high_level_events": result.high_level_events,
                "baseline_cycles": result.baseline_cycles,
                "handler_instructions": {
                    handler_class.value: cost
                    for handler_class, cost in result.handler_instructions.items()
                },
                "handlers_executed": result.handlers_executed,
                "unfiltered_distances": dict(result.unfiltered_distances),
                "unfiltered_burst_sizes": list(result.unfiltered_burst_sizes),
                "cycle_breakdown": result.cycle_breakdown.to_dict(),
                "app_blocked_cycles": result.app_blocked_cycles,
                "monitor_busy_cycles": result.monitor_busy_cycles,
                "fade_drain_cycles": result.fade_drain_cycles,
                "fade_wait_cycles": result.fade_wait_cycles,
            },
        }

    def restore(self, state: dict, owned: bool = False) -> None:
        """Resume a freshly-constructed simulation from a :meth:`snapshot`.

        The simulation must have been built from the same spec (trace,
        monitor, config, warmup) that produced the snapshot — the checkpoint
        layer guarantees that by keying blobs on the spec's content key.
        Every container restores *in place*: the hoisted hot-path references
        (queue deques, histograms, the cycle breakdown, FADE's tables) keep
        their identities.  Calling ``run`` afterwards skips warmup and
        finishes the run.

        ``owned=True`` lets the monitor adopt the state's subclass dict
        without a defensive deep copy — correct only when the caller owns
        the state exclusively and restores it at most once, which is true
        of every state freshly unpickled from a checkpoint or seam blob
        (the restore paths in :mod:`repro.api.runner` and
        :mod:`repro.api.segments`).  In-memory snapshot/restore callers
        that keep the snapshot alive must leave it False."""
        version = state.get("version")
        if version != SIM_STATE_VERSION:
            raise SimulationError(
                f"snapshot version {version!r} does not match "
                f"SIM_STATE_VERSION={SIM_STATE_VERSION}"
            )
        engine = state.get("engine")
        if engine != self.config.engine:
            raise SimulationError(
                f"snapshot was taken by the {engine!r} engine; "
                f"this simulation runs {self.config.engine!r}"
            )
        self._now = state["now"]
        self._app_index = state["app_index"]
        self._progress_base = state["progress_base"]
        self._progress_halves = state["progress_halves"]
        self._app_blocked = state["app_blocked"]
        self._timed_started_at = state["timed_started_at"]
        self._monitor_item = self._decode_item(state["monitor_item"])
        self._monitor_remaining = state["monitor_remaining"]
        self._fade_ready_at = state["fade_ready_at"]
        self._fade_wait_seq = state["fade_wait_seq"]
        self._fade_draining = state["fade_draining"]
        self._filterable_gap = state["filterable_gap"]
        self._current_burst = state["current_burst"]
        self._saw_unfiltered = state["saw_unfiltered"]
        eq_entries = self._eq_entries
        eq_entries.clear()
        eq_entries.extend(self._decode_item(entry) for entry in state["eq_entries"])
        self.event_queue.stats.restore_state(state["eq_stats"])
        if self._split_queues:
            wq_entries = self._wq_entries
            wq_entries.clear()
            wq_entries.extend(
                self._decode_item(entry) for entry in state["wq_entries"]
            )
            self.work_queue.stats.restore_state(state["wq_stats"])
        self.monitor.restore_state(state["monitor"], owned=owned)
        if self.fade is not None and state["fade"] is not None:
            self.fade.restore_state(state["fade"])
        payload = state["result"]
        result = self.result
        result.instructions = payload["instructions"]
        result.monitored_events = payload["monitored_events"]
        result.stack_update_events = payload["stack_update_events"]
        result.high_level_events = payload["high_level_events"]
        result.baseline_cycles = payload["baseline_cycles"]
        result.handler_instructions.clear()
        result.handler_instructions.update(
            (HandlerClass(name), cost)
            for name, cost in payload["handler_instructions"].items()
        )
        result.handlers_executed = payload["handlers_executed"]
        result.unfiltered_distances.clear()
        result.unfiltered_distances.update(payload["unfiltered_distances"])
        result.unfiltered_burst_sizes[:] = payload["unfiltered_burst_sizes"]
        breakdown_state = payload["cycle_breakdown"]
        breakdown = self._breakdown
        breakdown.app_idle = breakdown_state["app_idle"]
        breakdown.monitor_idle = breakdown_state["monitor_idle"]
        breakdown.both_busy = breakdown_state["both_busy"]
        result.app_blocked_cycles = payload["app_blocked_cycles"]
        result.monitor_busy_cycles = payload["monitor_busy_cycles"]
        result.fade_drain_cycles = payload["fade_drain_cycles"]
        result.fade_wait_cycles = payload["fade_wait_cycles"]
        # Re-arm any configured checkpoint thresholds past the restored
        # position (configure_checkpoints after restore does the same).
        thresholds = self._checkpoint_thresholds
        position = 0
        while position < len(thresholds) and thresholds[position] <= self._app_index:
            position += 1
        self._checkpoint_position = position
        self._checkpoint_at = (
            thresholds[position] if position < len(thresholds) else _NEVER
        )
        if self._vector is not None:
            # Restored stores carry restored generation counters, so value
            # comparison against a pre-restore snapshot proves nothing:
            # predictions must be rebuilt from the restored state.
            self._vector.drop_batch()
        self._restored = True


def _instruction_flags(trace) -> List[bool]:
    """Per-plan-index "is a timed instruction" flags (shared by checkpoint
    thresholds and segment boundaries, which must agree on the convention).
    Packed traces answer with a column scan; object traces with an
    isinstance pass — no materialisation either way."""
    if isinstance(trace, PackedTrace):
        kind_column = trace.column_lists()[6]
        return [kind == KIND_INSTRUCTION for kind in kind_column]
    items = trace.items
    return [
        isinstance(items[index], Instruction) for index in range(len(items))
    ]


def segment_boundaries(
    trace, warmup_items: int, plan_len: int, segments: int
) -> Tuple[int, ...]:
    """Plan-index boundaries splitting the timed region into ``segments``
    near-equal instruction spans.

    Boundary *j* is the plan index just past the ``ceil(j·N/K)``-th timed
    instruction (N timed instructions, K segments) — the same ``index + 1``
    convention :meth:`MonitoringSimulation.configure_checkpoints` uses, so a
    seam is observable at the exact engine-loop point a checkpoint would
    fire.  Ceiling division makes boundary sets *nest*: K=2's midpoint is
    K=4's second boundary, so seam blobs (keyed by boundary index) are
    shared across segment counts.  Boundaries that would land at or past
    the end of the plan are dropped, so ``segments`` larger than the trace
    degrades gracefully to fewer (possibly zero) boundaries.
    """
    if segments <= 1 or plan_len <= 0:
        return ()
    total = trace.count_instructions(warmup_items, plan_len)
    if total <= 0:
        return ()
    targets = []
    for j in range(1, segments):
        target = -(-(j * total) // segments)  # ceil(j*total/segments)
        if target < total and (not targets or target != targets[-1]):
            targets.append(target)
    boundaries: List[int] = []
    flags = _instruction_flags(trace)
    seen = 0
    position = 0
    for index in range(warmup_items, plan_len):
        if position >= len(targets):
            break
        if flags[index]:
            seen += 1
            while position < len(targets) and seen >= targets[position]:
                if index + 1 < plan_len:
                    boundaries.append(index + 1)
                position += 1
    # Collapse boundaries that coincide (several targets inside one
    # non-instruction tail collapse onto the same plan index).
    unique: List[int] = []
    for boundary in boundaries:
        if not unique or boundary != unique[-1]:
            unique.append(boundary)
    return tuple(unique)


def simulate(
    trace: Trace,
    monitor: Monitor,
    config: SystemConfig,
    profile: Optional[BenchmarkProfile] = None,
    warmup_items: int = 0,
    schedule: Optional[Sequence[float]] = None,
    plan: Optional[DeliveryPlan] = None,
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
    plan: Optional[DeliveryPlan] = None,
) -> RunResult:
    """Simulate with the leading fraction of the trace as functional warmup
    (the default methodology for all paper-figure experiments)."""
    warmup_items = int(len(trace.items) * warmup_fraction)
    return MonitoringSimulation(
        trace, monitor, config, profile, warmup_items, schedule=schedule, plan=plan
    ).run()
