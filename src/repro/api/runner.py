"""The runner: execute :class:`RunSpec` grids in-process or across processes.

:class:`ParallelRunner` is the one runner.  It owns its trace/schedule
cache (no module-global state) and returns results in spec order, so a
grid run in-process (``jobs=1``) and over a pool produce identical
:class:`~repro.api.results.ResultSet` contents — the whole simulation
derives its randomness deterministically from the spec.

Two layers keep functional work off the grid's critical path:

* **Trace-grouped dispatch** — a pool gets all cells of one trace as one
  chunk, and the worker synthesizes that trace itself; the parent
  generates no traces and ships only specs.
* **Result store** — pass ``store=ResultStore(path)`` (or ``--result-cache``
  on the CLI) and cells whose spec content already has a stored result are
  served from disk; only dirty cells are simulated, and each is stored as
  soon as its chunk is harvested, so a grid that ends early (a failing
  spec, Ctrl-C) keeps every cell it finished.  Store hits are
  bit-identical to recomputation (see :mod:`repro.api.store`).
"""

from __future__ import annotations

import contextlib
import copy
import itertools
import math
import os
import signal
import warnings
from typing import (
    TYPE_CHECKING,
    Generator,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

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
    # Imported where a pool is built, so in-process runs never load them.
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

#: How many times a broken process pool is replaced with a fresh one before
#: the remaining chunks finish in-process.  A single crashed worker (OOM kill,
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

    A spec that raises ends the chunk; the results of the cells before it
    travel back on the exception as ``finished``, so the parent can still
    store them.
    """
    results: List[RunResult] = []
    try:
        for spec in specs:
            results.append(_worker_run(spec))
    except Exception as error:
        error.finished = results
        raise
    return results


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


def _worker_count(jobs: Optional[int]) -> int:
    """``jobs`` checked as a worker count (None means the CPU count)."""
    if jobs is None:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ConfigurationError(
            f"jobs: need at least 1 worker process, got {jobs!r}"
        )
    return jobs


def _warn_in_process(message: str) -> None:
    # Points at the caller of ParallelRunner.run (through _pool_batches
    # and _batches).
    warnings.warn(message, RuntimeWarning, stacklevel=5)


class ParallelRunner:
    """Runs a grid of specs: the one runner, in-process or over a pool.

    ``jobs`` worker processes (default: the CPU count) run the grid's
    trace chunks (see module docstring).  Simulations are CPU-bound pure
    Python, so processes, not threads, are the unit of parallelism.  With
    ``jobs=1``, a grid of fewer pending cells than ``jobs``, or no working
    process pool, the cells run in this process, one at a time in spec
    order, through the same harvest.  Results come back in spec order and
    are bit-identical either way.

    With a ``store``, cells it holds are served up front, and each cell
    the grid computes is stored when its chunk is harvested, whatever
    then ends the grid: a normal finish, a failing spec, Ctrl-C or a pool
    that keeps breaking.  A spec repeated within one grid misses (and is
    computed) at each of its places when the store lacks it.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[RunnerCache] = None,
        store: Optional[ResultStore] = None,
    ) -> None:
        self.jobs = _worker_count(jobs)
        self.cache = cache if cache is not None else RunnerCache()
        self.store = store

    def run_one(self, spec: RunSpec) -> RunResult:
        return execute_spec(spec, self.cache, self.store)

    def run(self, specs: Iterable[RunSpec]) -> ResultSet:
        spec_list = list(specs)
        store = self.store
        results: List[Optional[RunResult]] = [None] * len(spec_list)
        pending = []
        for index, spec in enumerate(spec_list):
            hit = None if store is None else store.get(spec)
            if hit is None:
                pending.append(index)
            else:
                results[index] = hit
        # Closing the batches on any exception here (a store write
        # failing) tears a running pool down.
        with contextlib.closing(self._batches(spec_list, pending)) as batches:
            for indices, batch in batches:
                for index, result in zip(indices, batch):
                    results[index] = result
                    if store is not None:
                        store.put(spec_list[index], result)
        return ResultSet(
            RunRecord(spec, result) for spec, result in zip(spec_list, results)
        )

    # ------------------------------------------------------------- internals

    def _batches(
        self, spec_list: List[RunSpec], pending: List[int]
    ) -> Iterator[Tuple[List[int], List[RunResult]]]:
        """``(spec indices, results)`` for the ``pending`` cells as they
        finish: the chunks process pools finish, in submission order, then
        every cell left for this process, one at a time in spec order.

        Fewer pending cells than ``jobs`` skip the pool: its startup
        (process spawn, imports, cache warm-up per worker) costs more than
        the handful of cells."""
        if 1 < self.jobs <= len(pending):
            chunks = [
                [pending[i] for i in chunk]
                for chunk in _trace_chunks(
                    [spec_list[index] for index in pending], self.jobs
                )
            ]
            pending = yield from self._pool_batches(spec_list, chunks)
        for index in pending:
            yield [index], [execute_spec(spec_list[index], self.cache)]

    def _pool_batches(
        self, spec_list: List[RunSpec], chunks: List[List[int]]
    ) -> Generator[Tuple[List[int], List[RunResult]], None, List[int]]:
        """Run ``chunks`` on process pools, yielding each finished one as
        ``(spec indices, results)``; returns the indices of the cells left
        for this process, in spec order.

        However a pool round ends early, it ends the same way: the pool is
        torn down at once and every chunk that finished is yielded, with
        the finished cells of a chunk whose spec raised.  Then
        a broken pool is rebuilt for the unfinished chunks (at most
        ``_POOL_REBUILD_LIMIT`` times), a pool that cannot run the specs
        leaves them to this process, and anything else (a failing spec,
        Ctrl-C) propagates.
        """
        from concurrent.futures.process import BrokenProcessPool

        # Forked workers inherit the trace store's module and this
        # process's source fingerprint: resolved here once, not compiled
        # and hashed again in every worker of every pool.
        from repro.api.trace_store import source_fingerprint

        if self.cache.trace_store.enabled:
            source_fingerprint()
        payloads = [[spec_list[i] for i in chunk] for chunk in chunks]
        remaining = list(range(len(chunks)))
        rebuilds = 0
        while remaining:
            try:
                pool = new_worker_pool(self.jobs)
            except (OSError, ValueError) as error:
                _warn_in_process(
                    f"process pool unavailable ({error}); running serially"
                )
                break
            futures = {}
            finished = set()
            try:
                # Submit inside the try: a worker that dies while later
                # chunks are still being submitted breaks the pool, and
                # submit() itself then raises BrokenProcessPool.
                for slot in remaining:
                    futures[slot] = pool.submit(
                        _worker_run_chunk, payloads[slot]
                    )
                for slot, future in futures.items():
                    batch = future.result()
                    finished.add(slot)
                    yield chunks[slot], batch
                pool.shutdown()
                return []
            except GeneratorExit:
                _terminate_pool(pool)
                raise
            except BaseException as error:
                # Kill the workers outright: waiting for running chunks
                # defeats Ctrl-C, and a broken pool has nothing to wait for.
                _terminate_pool(pool)
                for slot, future in futures.items():
                    if (
                        slot in finished
                        or not future.done()
                        or future.cancelled()
                    ):
                        continue
                    chunk_error = future.exception()
                    if chunk_error is None:
                        finished.add(slot)
                        yield chunks[slot], future.result()
                    elif getattr(chunk_error, "finished", None):
                        # The cells before the failing spec; the rest of
                        # the chunk stays unfinished.
                        done = len(chunk_error.finished)
                        yield chunks[slot][:done], chunk_error.finished
                        chunks[slot] = chunks[slot][done:]
                        payloads[slot] = payloads[slot][done:]
                remaining = [slot for slot in remaining if slot not in finished]
                if isinstance(error, BrokenProcessPool):
                    # A dead worker (OOM kill, segfault, injected crash)
                    # breaks the whole executor, and the chunks that died
                    # with it are retried.  A chunk whose future carries
                    # its own exception would fail the same way on every
                    # retry, so that exception fails the grid instead.
                    for future in futures.values():
                        if future.done() and not future.cancelled():
                            chunk_error = future.exception()
                            if chunk_error is not None and not isinstance(
                                chunk_error, BrokenProcessPool
                            ):
                                error = chunk_error
                                break
                if isinstance(error, (OSError, ConfigurationError)):
                    # Specs check their names against this process's
                    # registries when constructed, so a ConfigurationError
                    # from a worker means it cannot see this process's
                    # runtime registrations (spawn-based pools).
                    _warn_in_process(
                        f"process pool unavailable ({error}); "
                        f"running serially"
                    )
                    break
                if not isinstance(error, BrokenProcessPool):
                    raise error
                rebuilds += 1
                if remaining and rebuilds > _POOL_REBUILD_LIMIT:
                    _warn_in_process(
                        "process pool kept breaking; running serially "
                        f"for the {len(remaining)} unfinished chunk(s)"
                    )
                    break
                if remaining:
                    _warn_in_process(
                        f"process pool broke (worker died); retrying "
                        f"{len(remaining)} unfinished chunk(s) on a "
                        f"fresh pool"
                    )
        return sorted(index for slot in remaining for index in chunks[slot])


_DEFAULT_RUNNER: Optional[ParallelRunner] = None


def default_runner() -> ParallelRunner:
    """The shared in-process runner used when callers don't pass their own.

    Lazily created so importing :mod:`repro` costs nothing; its bounded
    cache replaces the old module-global trace/schedule caches.
    """
    global _DEFAULT_RUNNER
    if _DEFAULT_RUNNER is None:
        _DEFAULT_RUNNER = ParallelRunner(jobs=1)
    return _DEFAULT_RUNNER


def run_specs(
    specs: Iterable[RunSpec],
    jobs: int = 1,
    runner: Optional[ParallelRunner] = None,
    store: Optional[ResultStore] = None,
) -> ResultSet:
    """Convenience entry point: run a grid with ``jobs`` worker processes
    (1 runs it in-process; fewer is a ``ConfigurationError``) and an
    optional persistent :class:`ResultStore`.

    Without a ``runner`` the grid shares :func:`default_runner`'s warm
    cache; a store never mutates a caller-supplied or shared runner — it
    applies to this call only.
    """
    jobs = _worker_count(jobs)
    if runner is None:
        runner = ParallelRunner(jobs, default_runner().cache, store)
    elif store is not None and runner.store is not store:
        runner = copy.copy(runner)  # Same cache; scoped to this call.
        runner.store = store
    return runner.run(specs)
