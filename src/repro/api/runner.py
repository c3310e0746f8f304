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
import os
import signal
import warnings
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.faults.injector import worker_fault
from repro.monitors import create_monitor
from repro.system.results import RunResult
from repro.system.simulator import (
    MonitoringSimulation,
    fade_config,
    warmup_count,
)

from repro.api.cache import RunnerCache
from repro.api.results import ResultSet, RunRecord
from repro.api.spec import RunSpec
from repro.api.store import ResultStore

if TYPE_CHECKING:
    # Imported where a pool is built, so serial runs never load them.
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing.process import BaseProcess

    from repro.api.trace_store import TraceStore, WarmState

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


def build_simulation(
    spec: RunSpec, cache: RunnerCache, warm_store: Optional["TraceStore"] = None
) -> MonitoringSimulation:
    """One fresh simulation for ``spec``, with its trace and schedule
    served from ``cache`` and its warm state from the cache's trace store
    (the construction :func:`execute_spec` uses).  The cache gets the spec's own ``profile`` (None unless inline),
    which is what lets it persist registry traces and skip inline ones.

    When the store holds the monitor and FADE this spec's warmup leaves
    behind, the simulation starts from them, warmed; otherwise it warms
    itself when it runs.  A ``warm_store`` keeps the warm state of any
    spec with a warmup there instead, whatever the cache's scope rules
    (the oracle's stored-warm-state leg)."""
    inline = spec.profile
    trace = cache.trace(spec.benchmark, spec.settings, inline)
    warmup = warmup_count(
        len(trace), int(len(trace) * spec.settings.warmup_fraction)
    )
    schedule = cache.schedule(
        spec.benchmark,
        spec.settings,
        spec.config.core_type,
        spec.config.hierarchy,
        inline,
    )
    plan = cache.plan(trace, spec.monitor)

    def simulation(monitor, fade=None, warmed=False) -> MonitoringSimulation:
        return MonitoringSimulation(
            trace, monitor, spec.config, spec.resolved_profile(),
            warmup_items=warmup, schedule=schedule, plan=plan,
            fade=fade, warmed=warmed,
        )

    def warm() -> "WarmState":
        from repro.api.trace_store import encode_warm_state

        fresh = simulation(create_monitor(spec.monitor))
        fresh.warm_up()
        return encode_warm_state(fresh.monitor, fresh.fade)

    if warm_store is None:
        state = cache.warm_state(spec, warmup, warm)
    elif warmup > 0:
        state = warm_store.warm(
            warm_store.warm_key(
                spec.resolved_profile(), spec.settings.num_instructions,
                spec.settings.seed, spec.monitor, fade_config(spec.config),
                warmup,
            ),
            warm,
        )[0]
    else:
        state = None
    if state is None:
        return simulation(create_monitor(spec.monitor))
    return simulation(state.monitor, state.fade, warmed=True)


def execute_spec(
    spec: RunSpec,
    cache: Optional[RunnerCache] = None,
    store: Optional[ResultStore] = None,
) -> RunResult:
    """Simulate one cell with the standard warmup methodology.

    The trace and retirement schedule come from the runner's cache, so
    cells of a grid that share a benchmark (and core) only pay for them
    once.  With a ``store``, a cell whose spec
    content already has a persisted result is served from disk.

    The result store is the only resume: a cell interrupted mid-run (a
    killed worker) reruns from its start, and a re-run grid or campaign
    with the same store recomputes only the cells that never finished.
    """
    if store is not None:
        cached = store.get(spec)
        if cached is not None:
            return cached
    if cache is None:
        cache = RunnerCache()
    result = build_simulation(spec, cache).run()
    if store is not None:
        store.put(spec, result)
    return result


class Runner:
    """Executes specs; owns the bounded trace/schedule cache for its runs."""

    def __init__(
        self,
        cache: Optional[RunnerCache] = None,
        store: Optional[ResultStore] = None,
    ) -> None:
        self.cache = cache if cache is not None else RunnerCache()
        self.store = store

    def run_one(self, spec: RunSpec) -> RunResult:
        return execute_spec(spec, self.cache, self.store)

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


def _pool_worker_init(persist: bool) -> None:
    """The pool initializer: reset the signal state a forked worker
    inherits, then :func:`_worker_init`.

    Under ``repro serve`` that state is the event loop's SIGTERM/SIGINT
    handlers and its wakeup fd, so a signal to a worker would run the
    server's handler: a SIGTERM from a pool teardown would stop the
    server.  The parent owns interruption, so a worker takes SIGTERM's
    default action and ignores the terminal's SIGINT (on Ctrl-C the parent
    terminates the pool)."""
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_init(persist)


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
    chunk reuses it, together with its schedules.  Chunking also
    amortises the per-task submission overhead across the batch.
    """
    return [_worker_run(spec) for spec in specs]


def _trace_chunks(spec_list: List[RunSpec], workers: int) -> List[List[int]]:
    """Spec indices grouped into pool tasks, largest task first.

    In (benchmark, settings, monitor) order, a chunk is one run of specs
    with equal :func:`_trace_key`, so a trace and its schedules are built
    by one worker.  Only a run longer than
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


def _terminate_pool(pool: ProcessPoolExecutor) -> List[BaseProcess]:
    """Tear a pool down *now*: cancel queued chunks, terminate the worker
    processes (running simulations are CPU-bound and uninterruptible from
    the parent otherwise), and release the executor without waiting.
    Returns the terminated workers, for a caller that waits for their
    exit.  They are listed before ``shutdown``, which drops the pool's own
    list."""
    processes = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive: teardown must finish
        pass
    for process in processes:
        try:
            process.terminate()
        except (OSError, AttributeError):  # pragma: no cover
            pass
    return processes


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
        stacklevel=5,
    )


def new_worker_pool(
    workers: int, persist: bool = True
) -> ProcessPoolExecutor:
    """A process pool whose workers each build one :class:`RunnerCache`
    (``persist`` says whether it reads and writes the trace store).

    The ``fork`` start method is preferred so monitors and profiles
    registered at runtime stay visible to the workers.  Raises ``OSError``
    or ``ValueError`` when no pool can be built; the parallel runner and
    the service's scheduler each decide what that means for their work,
    and both replace a pool that breaks with a fresh one from here.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        context = None
        _warn_spawn_context()
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_pool_worker_init,
        initargs=(persist,),
        mp_context=context,
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
    ) -> None:
        super().__init__(cache, store)
        if jobs is None:
            jobs = os.cpu_count() or 1
        elif jobs < 1:
            raise ConfigurationError(
                f"jobs: need at least 1 worker process, got {jobs!r}"
            )
        self.jobs = jobs

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
        workers = min(self.jobs, len(spec_list))
        # Tiny grids: pool startup costs more than the cells themselves.
        if workers <= 1 or len(spec_list) < max(self.jobs, _TINY_GRID):
            return self._run_serial(spec_list)
        from concurrent.futures.process import BrokenProcessPool

        # Specs check their names against this process's registries when
        # constructed (``RunSpec.__post_init__``), so a ConfigurationError
        # raised in a worker means the worker cannot see this process's
        # runtime registrations (spawn-based pools) and serial execution
        # can finish.
        index_chunks = _trace_chunks(spec_list, workers)
        payloads = [[spec_list[i] for i in indices] for indices in index_chunks]
        # Forked workers inherit the trace store's module and this
        # process's source fingerprint: resolved here once, not compiled
        # and hashed again in every worker of every pool.
        from repro.api.trace_store import source_fingerprint

        if self.cache.trace_store.enabled:
            source_fingerprint()
        # Chunk results land here as they are harvested; a broken pool
        # costs only the chunks that had not finished.
        batches: List[Optional[List[RunResult]]] = [None] * len(payloads)
        pending = list(range(len(payloads)))
        rebuilds = 0
        while pending:
            try:
                pool = new_worker_pool(workers)
            except (OSError, ValueError) as error:
                warnings.warn(
                    f"process pool unavailable ({error}); running serially",
                    RuntimeWarning,
                    stacklevel=2,
                )
                break
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
                self._store_finished(
                    spec_list, index_chunks, batches, zip(pending, futures)
                )
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
                _terminate_pool(pool)
                if spec_error is not None:
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
                rebuilds += 1
                if pending and rebuilds > _POOL_REBUILD_LIMIT:
                    warnings.warn(
                        "process pool kept breaking; running serially "
                        f"for the {len(pending)} unfinished chunk(s)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    break
                if pending:
                    warnings.warn(
                        f"process pool broke (worker died); retrying "
                        f"{len(pending)} unfinished chunk(s) on a "
                        f"fresh pool",
                        RuntimeWarning,
                        stacklevel=2,
                    )
            except (OSError, ConfigurationError) as error:
                pool.shutdown(wait=True, cancel_futures=True)
                warnings.warn(
                    f"process pool unavailable ({error}); running "
                    f"serially",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return self._run_serial(spec_list)
        for slot in pending:
            batches[slot] = [
                execute_spec(spec, self.cache) for spec in payloads[slot]
            ]
        results: List[Optional[RunResult]] = [None] * len(spec_list)
        for indices, batch in zip(index_chunks, batches):
            for index, result in zip(indices, batch):
                results[index] = result
        return results

    def _store_finished(self, spec_list, index_chunks, batches,
                        round_futures) -> int:
        """Persist every chunk that finished before an interrupt, once.

        ``round_futures`` pairs each slot of the interrupted round with its
        future.  A future's batch is folded into ``batches`` first, so a
        chunk that finished in this round or an earlier one is stored
        exactly once.  With no store the finished work is simply dropped;
        with one, a re-run after Ctrl-C serves the finished cells warm and
        only recomputes the killed ones.  Returns how many results were
        stored.
        """
        if self.store is None:
            return 0
        for slot, future in round_futures:
            if (
                batches[slot] is None
                and future.done()
                and not future.cancelled()
                and future.exception() is None
            ):
                batches[slot] = future.result()
        stored = 0
        for indices, batch in zip(index_chunks, batches):
            if batch is None:
                continue
            for index, result in zip(indices, batch):
                try:
                    self.store.put(spec_list[index], result)
                    stored += 1
                except OSError:
                    return stored  # Store unwritable mid-interrupt: stop.
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
) -> ResultSet:
    """Convenience entry point: run a grid with ``jobs`` worker processes
    (``jobs <= 1`` means in-process serial execution) and an optional
    persistent :class:`ResultStore`.

    Serial runs without a store go through :func:`default_runner` (honouring
    :func:`set_default_runner` and its warm cache); a store never mutates a
    caller-supplied or shared runner — it applies to this call only.
    """
    if runner is None:
        if jobs > 1:
            runner = ParallelRunner(jobs=jobs, store=store)
        elif store is None:
            runner = default_runner()
        else:
            # Share the default runner's warm cache without mutating it.
            runner = SerialRunner(cache=default_runner().cache, store=store)
    elif store is not None and runner.store is not store:
        runner = copy.copy(runner)  # Same cache; scoped to this call.
        runner.store = store
    return runner.run(specs)
