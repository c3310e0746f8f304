"""Runners: execute :class:`RunSpec` grids serially or across processes.

Every runner owns its trace/schedule cache (no module-global state) and
returns results in spec order, so serial and parallel execution of the same
grid produce identical :class:`~repro.api.results.ResultSet` contents — the
whole simulation derives its randomness deterministically from the spec.

Two layers keep functional work off the grid's critical path:

* **Trace-grouped dispatch** — the parallel runner sends all cells of one
  trace to a worker as one chunk, and the worker synthesizes that trace
  itself; the parent generates no traces and ships only specs.
* **Result store** — pass ``store=ResultStore(path)`` (or ``--result-cache``
  on the CLI) and cells whose spec content already has a stored result are
  served from disk; only dirty cells are simulated.  Store hits are
  bit-identical to recomputation (see :mod:`repro.api.store`).
"""

from __future__ import annotations

import copy
import itertools
import math
import multiprocessing
import os
import shutil
import tempfile
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.checkpoint.runtime import active_checkpoint_runtime
from repro.common.errors import ConfigurationError, SimulationError
from repro.faults.injector import worker_fault, worker_midrun_fault
from repro.monitors import MONITOR_REGISTRY, create_monitor
from repro.system.results import RunResult
from repro.system.simulator import MonitoringSimulation
from repro.workload.profiles import get_profile

from repro.api.cache import RunnerCache
from repro.api.results import ResultSet, RunRecord
from repro.api.segments import (
    build_simulation,
    close_segment_store,
    open_segment_store,
    plan_boundaries,
    run_chain_to,
    run_segmented,
)
from repro.api.spec import RunSpec
from repro.api.store import ResultStore

#: Identity of one grid trace: (benchmark, num_instructions, seed, inline
#: profile or None).  Carrying the profile keeps keys unique when specs
#: share a benchmark name but not a profile.
TraceKey = Tuple[str, int, int, Optional["BenchmarkProfile"]]


def _trace_key(spec: RunSpec) -> "TraceKey":
    return (
        spec.benchmark,
        spec.settings.num_instructions,
        spec.settings.seed,
        spec.profile,
    )

#: Grids smaller than ``jobs`` run serially: pool startup (process spawn,
#: imports, cache warm-up per worker) costs more than the handful of cells.
_TINY_GRID = 2

#: How many times a broken process pool is replaced with a fresh one before
#: the remaining chunks finish serially.  A single crashed worker (OOM kill,
#: injected fault) breaks the whole ProcessPoolExecutor; rebuilding and
#: resubmitting only the unfinished chunks keeps completed work.
_POOL_REBUILD_LIMIT = 2


def execute_spec(
    spec: RunSpec,
    cache: Optional[RunnerCache] = None,
    store: Optional[ResultStore] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_store=None,
    segments: int = 1,
    segment_store=None,
) -> RunResult:
    """Simulate one cell with the standard warmup methodology.

    The trace, retirement schedule and delivery plan all come from the
    runner's cache, so cells of a grid that share a benchmark (and core or
    monitor) only pay for them once.  With a ``store``, a cell whose spec
    content already has a persisted result is served from disk.

    ``checkpoint_every`` / ``checkpoint_store`` enable mid-run checkpoints
    (every N timed instructions, into a
    :class:`~repro.checkpoint.CheckpointStore`); when omitted they are
    discovered from the environment
    (:func:`~repro.checkpoint.active_checkpoint_runtime`), which is how
    pool workers — and the fresh workers that retry a killed worker's spec
    — checkpoint and resume without any plumbing.  A valid checkpoint
    restores and finishes with results bit-identical to an uninterrupted
    run; anything invalid degrades to a cold recompute.  A resumed run's
    result carries a non-serialized ``resume_metadata`` attribute
    (``resumed_from_cycle`` / ``recompute_fraction``).

    ``segments > 1`` runs the cell as a chain of checkpointed segments
    (:func:`repro.api.segments.run_segmented`) — bit-identical to the
    monolithic run — reusing seams from ``segment_store`` (a
    :class:`~repro.checkpoint.CheckpointStore` or a path) when given.
    Segment seams *are* the checkpoints of a segmented run, so
    ``checkpoint_every`` periodic checkpointing does not apply to it.
    """
    if store is not None:
        cached = store.get(spec)
        if cached is not None:
            return cached
    if segments and segments > 1:
        if cache is None:
            cache = RunnerCache(max_traces=1, max_schedules=1, max_plans=1)
        seg_store = segment_store
        if isinstance(seg_store, (str, os.PathLike)):
            seg_store = open_segment_store(seg_store)
        result = run_segmented(spec, cache, segments, seg_store)
        if store is not None:
            store.put(spec, result)
        return result
    if checkpoint_store is None and checkpoint_every is None:
        runtime = active_checkpoint_runtime()
        if runtime is not None:
            checkpoint_store, checkpoint_every = runtime
    checkpointing = (
        checkpoint_store is not None
        and checkpoint_every is not None
        and checkpoint_every > 0
    )
    if cache is None:
        cache = RunnerCache(max_traces=1, max_schedules=1, max_plans=1)
    sim = build_simulation(spec, cache)
    resume_metadata = None
    if checkpointing:
        record = checkpoint_store.get(spec)
        if record is not None:
            try:
                sim.restore(record["state"], owned=True)
            except (SimulationError, KeyError, TypeError, ValueError, IndexError):
                # A decodable blob the simulation itself rejects (e.g. a
                # stale SIM_STATE_VERSION): cold recompute, never an error.
                checkpoint_store.discard(spec, reason="restore-failed")
                sim = build_simulation(spec, cache)
            else:
                trace = sim.trace
                warmup = int(len(trace.items) * spec.settings.warmup_fraction)
                total = trace.count_instructions(warmup)
                remaining = trace.count_instructions(record["app_index"])
                fraction = remaining / total if total else 0.0
                resume_metadata = {
                    "resumed_from_cycle": record["cycle"],
                    "recompute_fraction": fraction,
                }
                checkpoint_store.note_restored(
                    spec, record, recompute_fraction=fraction
                )

        def _emit(running_sim: MonitoringSimulation) -> None:
            checkpoint_store.put(spec, running_sim.snapshot())
            # Chaos seam: a worker_kill_midrun fault SIGKILLs here, strictly
            # after a checkpoint exists (and past the event's progress
            # gate), so recovery must resume it.
            worker_midrun_fault(spec, running_sim.timed_progress())

        sim.configure_checkpoints(checkpoint_every, _emit)
    result = sim.run()
    if checkpointing:
        checkpoint_store.complete(spec)
    if resume_metadata is not None:
        result.resume_metadata = resume_metadata
    if store is not None:
        store.put(spec, result)
    return result


class Runner:
    """Executes specs; owns the bounded trace/schedule cache for its runs.

    ``segments > 1`` switches every cell to segmented execution
    (:mod:`repro.api.segments`): bit-identical results, with seams reused
    from ``segment_store`` (a filesystem path) when one is given.
    """

    def __init__(
        self,
        cache: Optional[RunnerCache] = None,
        store: Optional[ResultStore] = None,
        segments: int = 1,
        segment_store: Optional[Union[str, os.PathLike]] = None,
    ) -> None:
        self.cache = cache if cache is not None else RunnerCache()
        self.store = store
        self.segments = max(1, int(segments)) if segments else 1
        self.segment_store = segment_store

    def run_one(self, spec: RunSpec) -> RunResult:
        return execute_spec(
            spec,
            self.cache,
            self.store,
            segments=self.segments,
            segment_store=self.segment_store,
        )

    def run(self, specs: Iterable[RunSpec]) -> ResultSet:
        raise NotImplementedError


class SerialRunner(Runner):
    """In-process execution, one spec at a time, in spec order."""

    def run(self, specs: Iterable[RunSpec]) -> ResultSet:
        return ResultSet(RunRecord(spec, self.run_one(spec)) for spec in specs)


# Per-process state for pool workers: each worker builds its own cache once,
# so specs sharing a benchmark reuse the trace within that process.
_WORKER_CACHE: Optional[RunnerCache] = None


def _worker_init(persist: bool = True) -> None:
    global _WORKER_CACHE
    _WORKER_CACHE = RunnerCache(persist=persist)


def _worker_run(spec: RunSpec) -> RunResult:
    global _WORKER_CACHE
    if _WORKER_CACHE is None:  # Pool created without the initializer.
        _WORKER_CACHE = RunnerCache()
    # Fault-injection seam (no-op unless a plan is installed): a chaos plan
    # targeting this spec crashes or hangs the worker *here*, before any
    # simulation state exists, so recovery never sees half-computed work.
    worker_fault(spec)
    return execute_spec(spec, _WORKER_CACHE)


def _worker_run_chunk(specs: List[RunSpec]) -> List[RunResult]:
    """Execute one chunk of specs in one pool task.

    The specs of a chunk share one trace (:func:`_trace_chunks`), so this
    worker's cache synthesizes it on first use and every later cell of the
    chunk reuses it, together with its schedules and plans.  Chunking also
    amortises the per-task submission overhead across the batch.
    """
    return [_worker_run(spec) for spec in specs]


def _trace_chunks(spec_list: List[RunSpec], workers: int) -> List[List[int]]:
    """Spec indices grouped into pool tasks, largest task first.

    In (benchmark, settings, monitor) order, a chunk is one run of specs
    with equal :func:`_trace_key`, so a trace and its schedules and plans
    are built by one worker.  Only a run longer than
    ``ceil(n / (workers * 4))`` is split, into near-equal pieces, so grids
    of one or two traces still spread across the pool.  Dispatching the
    largest chunks first keeps a long chunk from starting last.
    """
    order = sorted(
        range(len(spec_list)),
        key=lambda i: (
            spec_list[i].benchmark,
            spec_list[i].settings.num_instructions,
            spec_list[i].settings.seed,
            spec_list[i].monitor,
        ),
    )
    cap = math.ceil(len(spec_list) / (workers * 4))
    chunks: List[List[int]] = []
    for _, run in itertools.groupby(
        order, key=lambda i: _trace_key(spec_list[i])
    ):
        run = list(run)
        pieces = math.ceil(len(run) / cap)
        size = math.ceil(len(run) / pieces)
        chunks.extend(run[start:start + size] for start in range(0, len(run), size))
    chunks.sort(key=len, reverse=True)
    return chunks


def _worker_run_segment(
    payload: Tuple[RunSpec, Optional[int], Tuple[int, ...], str],
) -> Optional[RunResult]:
    """One segment-pipeline task: advance ``spec`` from its newest stored
    seam through ``stop_at`` (plan index, or None for run-to-completion).

    Returns the final :class:`RunResult` when the run completed, else None
    with the seam at ``stop_at`` stored — the scheduler then submits the
    next segment.  A missing or torn predecessor seam heals in-task by
    chaining from the newest usable seam (see
    :func:`repro.api.segments.run_chain_to`), so the store converging is a
    liveness property, never a correctness one.
    """
    spec, stop_at, prior_boundaries, store_path = payload
    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        _WORKER_CACHE = RunnerCache()
    worker_fault(spec)
    store = open_segment_store(store_path)
    return run_chain_to(
        spec, _WORKER_CACHE, list(prior_boundaries), stop_at, store
    )


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*: cancel queued chunks, terminate the worker
    processes (running simulations are CPU-bound and uninterruptible from
    the parent otherwise), and release the executor without waiting."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive: teardown must finish
        pass
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            process.terminate()
        except (OSError, AttributeError):  # pragma: no cover
            pass


# One-time flag for the spawn-context registration warning.
_SPAWN_WARNING_EMITTED = False


def _warn_spawn_context() -> None:
    """Warn (once per process) that spawn-based pools re-import the package
    and therefore cannot see monitors/profiles registered at runtime."""
    global _SPAWN_WARNING_EMITTED
    if _SPAWN_WARNING_EMITTED:
        return
    _SPAWN_WARNING_EMITTED = True
    warnings.warn(
        "the 'fork' start method is unavailable on this platform: pool "
        "workers start from a fresh interpreter, so register_monitor()/"
        "register_profile() calls made at runtime in this process are "
        "invisible to them (built-in names are unaffected); grids using "
        "runtime registrations fall back to serial execution",
        RuntimeWarning,
        stacklevel=4,
    )


class ParallelRunner(Runner):
    """Fans a grid out over a process pool.

    Simulations are CPU-bound pure Python, so processes (not threads) are
    the unit of parallelism; wall-clock improvement scales with available
    cores.  The ``fork`` start method is preferred so monitors and profiles
    registered at runtime remain visible to workers.  Each worker builds the
    traces of its own chunks (see module docstring).  Tiny grids
    (``len(specs) < jobs``), ``jobs=1`` and platforms without working
    process pools fall back to serial execution; results are bit-identical
    either way.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[RunnerCache] = None,
        store: Optional[ResultStore] = None,
        segments: int = 1,
        segment_store: Optional[Union[str, os.PathLike]] = None,
    ) -> None:
        super().__init__(
            cache, store, segments=segments, segment_store=segment_store
        )
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))

    def run(self, specs: Iterable[RunSpec]) -> ResultSet:
        spec_list = list(specs)
        store = self.store
        results: List[Optional[RunResult]] = [None] * len(spec_list)
        if store is not None:
            # Serve warm cells from the store up front; only misses hit the
            # pool.  Misses are stored as they complete below.
            pending = []
            for index, spec in enumerate(spec_list):
                hit = store.get(spec)
                if hit is None:
                    pending.append(index)
                else:
                    results[index] = hit
        else:
            pending = list(range(len(spec_list)))
        if pending:
            computed = self._run_grid([spec_list[index] for index in pending])
            for index, result in zip(pending, computed):
                results[index] = result
                if store is not None:
                    store.put(spec_list[index], result)
        return ResultSet(
            RunRecord(spec, result) for spec, result in zip(spec_list, results)
        )

    # ------------------------------------------------------------- internals

    def _run_serial(self, spec_list: List[RunSpec]) -> List[RunResult]:
        return [execute_spec(spec, self.cache) for spec in spec_list]

    def _run_grid(self, spec_list: List[RunSpec]) -> List[RunResult]:
        """Execute every spec (no store involvement), in order."""
        if self.segments > 1:
            return self._run_segmented_grid(spec_list)
        workers = min(self.jobs, len(spec_list))
        # Tiny grids: pool startup costs more than the cells themselves.
        if workers <= 1 or len(spec_list) < max(self.jobs, _TINY_GRID):
            return self._run_serial(spec_list)
        # Validate names in the parent so a genuinely unknown monitor or
        # benchmark fails fast here; a ConfigurationError raised in a worker
        # afterwards means the worker cannot see this process's runtime
        # registrations (spawn-based pools) and serial execution can finish.
        for spec in spec_list:
            if spec.monitor not in MONITOR_REGISTRY:
                create_monitor(spec.monitor)  # Raises with the known names.
            if spec.profile is None:  # Inline profiles resolve spec-locally.
                get_profile(spec.benchmark)
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            context = None
            _warn_spawn_context()
        index_chunks = _trace_chunks(spec_list, workers)
        payloads = [[spec_list[i] for i in indices] for indices in index_chunks]
        pool = self._make_pool(workers, context)
        if pool is None:
            return self._run_serial(spec_list)
        # Chunk results land here as they are harvested; a broken pool
        # costs only the chunks that had not finished.
        batches: List[Optional[List[RunResult]]] = [None] * len(payloads)
        pending = list(range(len(payloads)))
        rebuilds = 0
        while pending:
            futures = []
            try:
                # Submit inside the try: a worker that dies while later
                # chunks are still being submitted breaks the pool, and
                # submit() itself then raises BrokenProcessPool.
                for slot in pending:
                    futures.append(
                        pool.submit(_worker_run_chunk, payloads[slot])
                    )
                for slot, future in zip(pending, futures):
                    batches[slot] = future.result()
                pending = []
                pool.shutdown()
            except KeyboardInterrupt:
                # Graceful interrupt: persist what already finished —
                # this round's done futures plus chunks harvested in
                # earlier rounds — kill the workers outright (waiting
                # for running chunks defeats the point of Ctrl-C), and
                # let the interrupt propagate.
                self._store_partial(
                    spec_list,
                    [index_chunks[slot] for slot in pending],
                    futures,
                )
                self._store_batches(spec_list, index_chunks, batches)
                _terminate_pool(pool)
                raise
            except BrokenProcessPool:
                # A dead worker (OOM kill, segfault, injected crash)
                # breaks the whole executor.  Keep every chunk that
                # finished, then retry the rest on a fresh pool; the
                # results are deterministic per spec, so a recomputed
                # chunk is bit-identical to an uninterrupted one.
                # Classify harvested failures: only chunks that died
                # *with the pool* are retryable — a chunk whose future
                # carries a deterministic per-spec exception would fail
                # identically on every retry, so it must fail fast with
                # its original (worker) traceback, not be silently
                # retried until the rebuild limit turns it into an
                # unrelated serial error.
                spec_error: Optional[BaseException] = None
                for slot, future in zip(pending, futures):
                    if (
                        batches[slot] is None
                        and future.done()
                        and not future.cancelled()
                    ):
                        chunk_error = future.exception()
                        if chunk_error is None:
                            batches[slot] = future.result()
                        elif isinstance(chunk_error, BrokenProcessPool):
                            pass  # Chunk died with the pool: retry it.
                        elif spec_error is None:
                            spec_error = chunk_error
                if spec_error is not None:
                    _terminate_pool(pool)
                    if isinstance(spec_error, ConfigurationError):
                        # Workers cannot see this process's runtime
                        # registrations (spawn pools): finish serially,
                        # exactly as the non-broken path below does.
                        warnings.warn(
                            f"process pool unavailable ({spec_error}); "
                            f"running serially",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                        return self._run_serial(spec_list)
                    raise spec_error
                pending = [slot for slot in pending if batches[slot] is None]
                _terminate_pool(pool)
                pool = None
                rebuilds += 1
                if pending and rebuilds <= _POOL_REBUILD_LIMIT:
                    warnings.warn(
                        f"process pool broke (worker died); retrying "
                        f"{len(pending)} unfinished chunk(s) on a "
                        f"fresh pool",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    pool = self._make_pool(workers, context)
                if pool is None and pending:
                    warnings.warn(
                        "process pool kept breaking; running serially "
                        f"for the {len(pending)} unfinished chunk(s)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    for slot in pending:
                        batches[slot] = [
                            execute_spec(spec, self.cache)
                            for spec in payloads[slot]
                        ]
                    pending = []
            except (OSError, PermissionError, ConfigurationError) as error:
                pool.shutdown(wait=True, cancel_futures=True)
                warnings.warn(
                    f"process pool unavailable ({error}); running "
                    f"serially",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return self._run_serial(spec_list)
        results: List[Optional[RunResult]] = [None] * len(spec_list)
        for indices, batch in zip(index_chunks, batches):
            for index, result in zip(indices, batch):
                results[index] = result
        return results

    def _run_segmented_grid(self, spec_list: List[RunSpec]) -> List[RunResult]:
        """Segment-aware scheduling: each spec is a pipeline of segment
        tasks — segment k is submitted once seam k−1 is on disk — and the
        pool runs whichever segments across the grid are ready.

        Cold segments of one spec are serially dependent (bit-identical
        stitching needs *timing* seams; see :mod:`repro.api.segments`), so
        a single cold cell cannot fan out — but a grid of cells keeps the
        pool busy, cells with stored seams skip straight to their final
        segment, and a pool crash loses at most the in-flight segments:
        the serial finish resumes from the seams already stored.  Without
        a configured ``segment_store`` the seams live in a per-grid
        temporary store (crash recovery within the grid; no cross-run
        reuse).  Each worker's cache generates traces once per process.
        """
        cleanup_dir = None
        store_path = self.segment_store
        if store_path is None:
            cleanup_dir = tempfile.mkdtemp(prefix="repro-segments-")
            store_path = cleanup_dir
        store_path = os.fspath(store_path)
        seg_store = open_segment_store(store_path)
        try:
            if self.jobs <= 1 or len(spec_list) < _TINY_GRID:
                return [
                    run_segmented(spec, self.cache, self.segments, seg_store)
                    for spec in spec_list
                ]
            for spec in spec_list:
                if spec.monitor not in MONITOR_REGISTRY:
                    create_monitor(spec.monitor)  # Raises with known names.
                if spec.profile is None:
                    get_profile(spec.benchmark)
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:
                context = None
                _warn_spawn_context()
            plans = []
            for spec in spec_list:
                boundaries = list(
                    plan_boundaries(spec, self.cache, self.segments)
                )
                stored = set(seg_store.segment_boundaries_stored(spec))
                start = 0
                for position in range(len(boundaries), 0, -1):
                    if boundaries[position - 1] in stored:
                        start = position
                        break
                plans.append(
                    {"boundaries": boundaries, "next": start, "result": None}
                )
            pool = self._make_pool(min(self.jobs, len(spec_list)), context)
            if pool is None:
                return [
                    run_segmented(spec, self.cache, self.segments, seg_store)
                    for spec in spec_list
                ]
            futures: Dict = {}

            def _submit(index: int) -> None:
                plan = plans[index]
                stops = plan["boundaries"] + [None]
                payload = (
                    spec_list[index],
                    stops[plan["next"]],
                    tuple(plan["boundaries"][: plan["next"]]),
                    store_path,
                )
                futures[pool.submit(_worker_run_segment, payload)] = index

            try:
                for index in range(len(spec_list)):
                    _submit(index)
                while futures:
                    done, _ = wait(list(futures), return_when=FIRST_COMPLETED)
                    for future in done:
                        index = futures.pop(future)
                        outcome = future.result()
                        if outcome is not None:
                            plans[index]["result"] = outcome
                        else:
                            plans[index]["next"] += 1
                            _submit(index)
                pool.shutdown()
            except KeyboardInterrupt:
                _terminate_pool(pool)
                raise
            except (
                BrokenProcessPool,
                OSError,
                PermissionError,
                ConfigurationError,
            ) as error:
                _terminate_pool(pool)
                warnings.warn(
                    f"process pool failed mid-grid ({error}); finishing the "
                    f"segmented grid serially from stored seams",
                    RuntimeWarning,
                    stacklevel=2,
                )
                for index, plan in enumerate(plans):
                    if plan["result"] is None:
                        plan["result"] = run_segmented(
                            spec_list[index],
                            self.cache,
                            self.segments,
                            seg_store,
                        )
            except BaseException:
                # A deterministic per-spec failure: retrying cannot
                # succeed — fail fast with the original traceback.
                _terminate_pool(pool)
                raise
            return [plan["result"] for plan in plans]
        finally:
            if cleanup_dir is not None:
                close_segment_store(store_path)
                shutil.rmtree(cleanup_dir, ignore_errors=True)

    def _make_pool(
        self, workers: int, context
    ) -> Optional[ProcessPoolExecutor]:
        try:
            return ProcessPoolExecutor(
                max_workers=workers,
                initializer=_worker_init,
                mp_context=context,
            )
        except (OSError, PermissionError, ValueError) as error:
            warnings.warn(
                f"process pool unavailable ({error}); running serially",
                RuntimeWarning,
                stacklevel=3,
            )
            return None

    def _store_partial(self, spec_list, index_chunks, futures) -> int:
        """Persist every chunk that completed before an interrupt.

        With no store the completed work is simply dropped (as before);
        with one, a re-run after Ctrl-C serves the finished cells warm and
        only recomputes the killed ones.  Returns how many results were
        stored.
        """
        if self.store is None:
            return 0
        stored = 0
        for indices, future in zip(index_chunks, futures):
            if not future.done() or future.cancelled():
                continue
            try:
                batch = future.result()
            except BaseException:
                continue  # The chunk raised; nothing to keep.
            for index, result in zip(indices, batch):
                try:
                    self.store.put(spec_list[index], result)
                    stored += 1
                except OSError:
                    return stored  # Store unwritable mid-interrupt: stop.
        return stored

    def _store_batches(self, spec_list, index_chunks, batches) -> int:
        """Persist chunks already harvested into ``batches`` (the pool-
        breakage recovery buffer) when an interrupt cuts the grid short."""
        if self.store is None:
            return 0
        stored = 0
        for indices, batch in zip(index_chunks, batches):
            if batch is None:
                continue
            for index, result in zip(indices, batch):
                try:
                    self.store.put(spec_list[index], result)
                    stored += 1
                except OSError:
                    return stored
        return stored


_DEFAULT_RUNNER: Optional[Runner] = None


def default_runner() -> Runner:
    """The shared in-process runner used when callers don't pass their own.

    Lazily created so importing :mod:`repro` costs nothing; its bounded
    cache replaces the old module-global trace/schedule caches.
    """
    global _DEFAULT_RUNNER
    if _DEFAULT_RUNNER is None:
        _DEFAULT_RUNNER = SerialRunner()
    return _DEFAULT_RUNNER


def set_default_runner(runner: Optional[Runner]) -> None:
    """Override (or with None, reset) the shared default runner."""
    global _DEFAULT_RUNNER
    _DEFAULT_RUNNER = runner


def run_specs(
    specs: Iterable[RunSpec],
    jobs: int = 1,
    runner: Optional[Runner] = None,
    store: Optional[ResultStore] = None,
    segments: int = 1,
    segment_store: Optional[Union[str, os.PathLike]] = None,
) -> ResultSet:
    """Convenience entry point: run a grid with ``jobs`` worker processes
    (``jobs <= 1`` means in-process serial execution) and an optional
    persistent :class:`ResultStore`.

    ``segments > 1`` runs each cell as a chain of checkpointed segments
    (bit-identical results; see :mod:`repro.api.segments`), reusing seams
    from ``segment_store`` (a path) when given.

    Serial runs without a store go through :func:`default_runner` (honouring
    :func:`set_default_runner` and its warm cache); a store or segment
    setting never mutates a caller-supplied or shared runner — it applies
    to this call only.
    """
    segments = max(1, int(segments)) if segments else 1
    if runner is None:
        if jobs > 1:
            runner = ParallelRunner(
                jobs=jobs,
                store=store,
                segments=segments,
                segment_store=segment_store,
            )
        elif store is None and segments <= 1:
            runner = default_runner()
        else:
            # Share the default runner's warm cache without mutating it.
            runner = SerialRunner(
                cache=default_runner().cache,
                store=store,
                segments=segments,
                segment_store=segment_store,
            )
    else:
        if store is not None and runner.store is not store:
            runner = copy.copy(runner)  # Same cache; scoped to this call.
            runner.store = store
        if segments > 1 and getattr(runner, "segments", 1) != segments:
            runner = copy.copy(runner)
            runner.segments = segments
            if segment_store is not None:
                runner.segment_store = segment_store
    return runner.run(specs)
