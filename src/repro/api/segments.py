"""Segmented execution of a single cell: checkpointed trace segments with
bit-identical stat stitching.

A :class:`~repro.api.RunSpec`'s timed region is split into K segments at
**plan-index boundaries** (:func:`repro.system.simulator.segment_boundaries`
— the exact ``index + 1`` convention checkpoint thresholds use, so a seam
is observed at the same engine-loop point a checkpoint callback fires at).
Segment *k* runs the timing from segment *k−1*'s seam — a full
:meth:`~repro.system.simulator.MonitoringSimulation.snapshot` taken where
the engine paused — restored into a fresh simulation.

**Stitch soundness.**  The seam carries the run's *cumulative* statistics
(the snapshot's mid-run ``RunResult`` counters, queue stats, monitor and
FADE state), so the final segment's ``_finalize()`` already *is* the
stitched whole-run result: no counter is ever re-summed outside the engine,
which is what makes the stitch bit-identical — float accumulators like
``handler_instructions`` are added in exactly the order the monolithic run
adds them.  Per-segment progress is extracted only to *verify* monotonic
consistency, never to reconstruct totals.

This is also why segmentation is exact where SimPoint-style functional
warming is approximate: producing segment k's start state by a cheap
functional-only pass would diverge from the monolithic run's timing state
(in-flight queue entries, cycle count, FADE occupancy), so seams must be
*timing* checkpoints.  The cost is a serial dependency between cold
segments — cold segmented execution is a pipeline, not a fan-out.  Stored
seams break the dependency: a re-run (or a crash retry, or a boundary-
aligned run with a different K) restores the latest stored seam and
computes only the tail, and a grid of segmented cells keeps a worker pool
busy with whichever segments are ready (see
:meth:`repro.api.runner.ParallelRunner`).
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple, Union

from repro.common.errors import SimulationError
from repro.monitors import create_monitor
from repro.system.results import RunResult
from repro.system.simulator import MonitoringSimulation, segment_boundaries

from repro.api.cache import RunnerCache
from repro.api.spec import RunSpec

#: The exception set :meth:`MonitoringSimulation.restore` can raise on a
#: decodable-but-unusable state (e.g. a stale ``SIM_STATE_VERSION``); the
#: same set ``execute_spec`` treats as "cold recompute, never an error".
_RESTORE_ERRORS = (SimulationError, KeyError, TypeError, ValueError, IndexError)


def build_simulation(
    spec: RunSpec, cache: RunnerCache
) -> MonitoringSimulation:
    """One fresh simulation for ``spec``, with trace/schedule/plan served
    from ``cache`` (the construction :func:`~repro.api.runner.execute_spec`
    uses; shared so segmented and monolithic cells are built identically).
    The cache gets the spec's own ``profile`` (None unless inline), which
    is what lets it persist registry traces and skip inline ones."""
    inline = spec.profile
    trace = cache.trace(spec.benchmark, spec.settings, inline)
    warmup = int(len(trace.items) * spec.settings.warmup_fraction)
    return MonitoringSimulation(
        trace,
        create_monitor(spec.monitor),
        spec.config,
        spec.resolved_profile(),
        warmup_items=warmup,
        schedule=cache.schedule(
            spec.benchmark,
            spec.settings,
            spec.config.core_type,
            spec.config.hierarchy,
            inline,
        ),
        plan=cache.plan(spec.benchmark, spec.settings, spec.monitor, inline),
    )


def plan_boundaries(
    spec: RunSpec, cache: RunnerCache, segments: int
) -> Tuple[int, ...]:
    """The plan-index boundaries a K-segment run of ``spec`` pauses at
    (possibly fewer than K−1 on short traces; empty means the run is
    effectively monolithic)."""
    trace = cache.trace(spec.benchmark, spec.settings, spec.profile)
    warmup = int(len(trace.items) * spec.settings.warmup_fraction)
    # The delivery plan has exactly one slot per trace item, so the timed
    # plan range is [warmup, len(trace.items)).
    return segment_boundaries(trace, warmup, len(trace.items), segments)


# Per-(path, pid) segment-store cache so fork/spawn pool workers reuse one
# store handle per process (mirrors repro.checkpoint.runtime's pattern).
_SEGMENT_STORES: dict = {}


def open_segment_store(path: Union[str, os.PathLike]):
    from repro.checkpoint import CheckpointStore

    key = (os.fspath(path), os.getpid())
    store = _SEGMENT_STORES.get(key)
    if store is None:
        store = CheckpointStore(path)
        _SEGMENT_STORES[key] = store
    return store


def close_segment_store(path: Union[str, os.PathLike]) -> None:
    store = _SEGMENT_STORES.pop((os.fspath(path), os.getpid()), None)
    if store is not None:
        store.close()


def _restore_into_sim(
    spec: RunSpec, cache: RunnerCache, boundaries: Sequence[int], store
) -> Tuple[MonitoringSimulation, int, Optional[dict]]:
    """A simulation positioned at the newest *usable* stored seam.

    Returns ``(sim, next_segment_index, seam_state_or_None)``.  Seams that
    decode but fail to restore (stale ``SIM_STATE_VERSION``) are discarded
    and the next-older seam is tried, down to a cold start — a bad seam
    degrades to recomputation, never an error.
    """
    usable = list(boundaries)
    while True:
        state = None
        position = 0
        if store is not None:
            for candidate in range(len(usable) - 1, -1, -1):
                record = store.get_segment(spec, usable[candidate])
                if record is not None:
                    state = record["state"]
                    position = candidate + 1
                    break
        sim = build_simulation(spec, cache)
        if state is None:
            return sim, 0, None
        try:
            # The state is freshly unpickled and restored exactly once, so
            # the monitor may adopt it without a defensive deep copy.
            sim.restore(state, owned=True)
        except _RESTORE_ERRORS:
            store.discard_segment(
                spec, usable[position - 1], reason="segment-restore-failed"
            )
            usable = usable[: position - 1]
            continue
        return sim, position, state


def run_chain_to(
    spec: RunSpec,
    cache: RunnerCache,
    prior_boundaries: Sequence[int],
    stop_at: Optional[int],
    store,
) -> Optional[RunResult]:
    """Advance ``spec`` from its newest stored seam through ``stop_at``.

    This is the unit of work one pool task executes in a segmented grid:
    normally the seam immediately before ``stop_at`` is stored and the task
    runs exactly one segment, but a missing or unusable seam heals by
    chaining through the intervening boundaries (storing each seam it
    produces, so the store converges).  Returns the final
    :class:`RunResult` when the run completed (``stop_at`` is None), else
    None with the seam at
    ``stop_at`` stored.
    """
    sim, position, state = _restore_into_sim(spec, cache, prior_boundaries, store)
    stops = list(prior_boundaries[position:]) + [stop_at]
    fresh = True  # ``sim`` is already positioned at ``state``.
    for stop in stops:
        if (
            state is not None
            and stop is not None
            and int(state.get("app_index", -1)) >= stop
        ):
            # One cycle retired past this boundary: the previous seam
            # *is* this boundary's seam (running to ``stop`` from it would
            # pause before stepping), so store it as-is and move on.
            if store is not None:
                store.put_segment(spec, stop, state)
            continue
        if not fresh:
            sim = build_simulation(spec, cache)
            # ``state`` is this chain's private snapshot (capture already
            # deep-copied it) and is rebound right after the run: owned.
            sim.restore(state, owned=True)
        result = sim.run_segment(stop)
        fresh = False
        if result is not None:
            return result
        state = sim.snapshot()
        if stop is not None and store is not None:
            store.put_segment(spec, stop, state)
    return None


def _verify_stitch(per_segment: List[dict], resumed_state: Optional[dict]) -> None:
    """Integer-consistency check over the executed segment chain: every
    segment must advance the (application index, cycle) pair — the app
    index never goes backwards, and a segment that issues nothing new (the
    final drain of a run whose app stream ended at a seam) must still burn
    cycles.  Cumulative carrying makes totals correct by construction;
    this catches a restore that silently reset state."""
    previous = (-1, -1)
    if resumed_state is not None:
        previous = (
            int(resumed_state.get("app_index", -1)),
            int(resumed_state.get("now", -1)),
        )
    for entry in per_segment:
        current = (int(entry["app_index"]), int(entry["cycle"]))
        if current[0] < previous[0] or current <= previous:
            raise SimulationError(
                "segment stitch inconsistency: progress went from "
                f"app_index={previous[0]}, cycle={previous[1]} to "
                f"app_index={current[0]}, cycle={current[1]}"
            )
        previous = current


def run_segmented(
    spec: RunSpec,
    cache: Optional[RunnerCache] = None,
    segments: int = 2,
    segment_store=None,
) -> RunResult:
    """Execute ``spec`` as a chain of ``segments`` checkpointed segments;
    the returned result is bit-identical to the monolithic run.

    With a ``segment_store`` (a :class:`~repro.checkpoint.CheckpointStore`),
    the chain restores from the newest stored seam and computes only the
    remaining tail — on a fully warm store that is just the final segment,
    ~1/K of the run — and stores every seam it produces for the next run.
    Without a store the full chain runs in process (the validation mode the
    oracle's ``seg`` leg and the equivalence tests exercise).

    The result carries a non-serialized ``segment_metadata`` attribute
    (planned boundaries, executed segments, the resume boundary if any, and
    per-seam progress), mirroring ``resume_metadata``; serialized results
    stay byte-identical to monolithic ones.
    """
    if cache is None:
        cache = RunnerCache(max_traces=1, max_schedules=1, max_plans=1)
    boundaries = list(plan_boundaries(spec, cache, segments))
    stops: List[Optional[int]] = boundaries + [None]
    sim, start, resumed_state = _restore_into_sim(
        spec, cache, boundaries, segment_store
    )
    resumed_from = boundaries[start - 1] if start > 0 else None
    per_segment: List[dict] = []
    result: Optional[RunResult] = None
    state = resumed_state
    fresh = True  # ``sim`` is already positioned at ``state``.
    for position in range(start, len(stops)):
        stop = stops[position]
        if (
            state is not None
            and stop is not None
            and int(state.get("app_index", -1)) >= stop
        ):
            # One cycle retired past this boundary: the previous seam
            # *is* this boundary's seam — store it as-is and move on.
            if segment_store is not None:
                segment_store.put_segment(spec, stop, state)
            continue
        if not fresh:
            sim = build_simulation(spec, cache)
            # ``state`` is this chain's private snapshot (capture already
            # deep-copied it) and is rebound right after the run: owned.
            sim.restore(state, owned=True)
        result = sim.run_segment(stop)
        fresh = False
        if result is not None:
            per_segment.append(
                {
                    "boundary": stop,
                    "app_index": sim._app_index,
                    "cycle": sim._now,
                    "final": True,
                }
            )
            break
        state = sim.snapshot()
        per_segment.append(
            {
                "boundary": stop,
                "app_index": state["app_index"],
                "cycle": state["now"],
                "final": False,
            }
        )
        if segment_store is not None:
            segment_store.put_segment(spec, stop, state)
    if result is None:  # pragma: no cover - the final stop is unbounded.
        raise SimulationError(
            f"segmented run of {spec.benchmark}/{spec.monitor} never "
            "reached completion"
        )
    _verify_stitch(per_segment, resumed_state)
    result.segment_metadata = {
        "segments": segments,
        "boundaries": boundaries,
        "executed_segments": len(per_segment),
        "resumed_from_boundary": resumed_from,
        "per_segment": per_segment,
    }
    return result
