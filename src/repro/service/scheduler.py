"""Single-flight spec scheduling over a bounded worker pool.

The scheduler is the server's concurrency core, but it is framework-free:
any asyncio program can embed one.  Its contract, per submitted spec:

* **warm** — the shared :class:`~repro.api.ResultStore` already holds the
  spec's content key: answer from disk, simulate nothing.
* **coalesced** — another client (or another spec in the same batch) is
  *currently* computing the same key: await that computation instead of
  starting a second one (single-flight, keyed by
  :func:`repro.api.store.content_key` — which works store-less too, so
  in-flight dedup never depends on persistence being configured).
* **computed** — genuinely new work: run it on the bounded process pool
  (:func:`repro.api.runner._worker_run`, the exact worker path the
  parallel runner uses), persist it to the store, wake every coalesced
  waiter.

So for any set of concurrent clients, each distinct spec content is
simulated **at most once per server lifetime** — the property the CI
service-smoke job asserts.

Workers keep their traces and schedules in memory only
(``RunnerCache(persist=False)``): they live as long as the server, so
their LRUs already build each trace once, and a computed spec's latency
depends on the requests alone, not on which traces other processes on the
machine happened to leave in the trace store.

Failure handling (the resilience layer):

* **Deadlines** — ``spec_timeout`` bounds each computation attempt with
  :func:`asyncio.wait_for`; a blown deadline raises
  :class:`~repro.common.errors.SpecTimeout` (after retries) and counts in
  ``timeouts``.  A process-pool future past its deadline cannot be
  interrupted mid-simulation, so it is *abandoned* — it finishes (or dies)
  harmlessly in the background while the retry recomputes; results are
  deterministic per spec, so whichever copy lands in the store is
  identical.
* **Retries** — transient failures (pool breakage, deadline misses, store
  races surfacing as OSError) are retried under a bounded
  exponential-backoff policy (:data:`repro.faults.retry.COMPUTE_POLICY`).
* **Degrade → recover** — a broken process pool degrades the scheduler to
  a single worker thread (slower, still correct, same dedup guarantees);
  after ``pool_cooldown`` seconds the next computation tries a *fresh*
  process pool and, on success, the scheduler recovers.  Both transitions
  are logged once and surfaced through :meth:`stats` / the server's
  ``/health``.
* **Fault seam** — ``scheduler.submit`` is a
  :func:`repro.faults.injector.probe` site: an installed chaos plan can
  break the pool or slow a future here, deterministically.

Store reads/writes are small synchronous file operations performed on the
event loop (entries are a few KB; SQLite's WAL keeps them non-blocking in
practice).  Simulation — seconds of CPU-bound pure Python — is what gets
offloaded, to processes so the GIL never serialises two cells.
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import multiprocessing
import os
import sqlite3
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Optional

from repro.api.cache import RunnerCache
from repro.api.runner import _worker_init, _worker_run, execute_spec
from repro.api.spec import RunSpec
from repro.api.store import ResultStore, check_finite, content_key
from repro.common.errors import SpecTimeout
from repro.faults.injector import probe, spec_fault_key, worker_fault
from repro.faults.retry import COMPUTE_POLICY, RetryPolicy
from repro.system.results import RunResult

logger = logging.getLogger("repro.service")


@dataclasses.dataclass(frozen=True)
class SpecOutcome:
    """How one submitted spec was satisfied."""

    status: str  # "warm" | "coalesced" | "computed"
    key: str
    result: RunResult


class SpecScheduler:
    """Deduplicating scheduler: many submitters, one computation per key."""

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        workers: Optional[int] = None,
        use_processes: bool = True,
        spec_timeout: Optional[float] = None,
        retry_policy: RetryPolicy = COMPUTE_POLICY,
        pool_cooldown: float = 30.0,
    ) -> None:
        """``use_processes=False`` forces the thread fallback — mainly for
        tests and platforms without working process pools; results are
        identical either way.  ``spec_timeout`` (seconds) bounds each
        computation attempt; ``pool_cooldown`` (seconds) is how long a
        degraded scheduler waits before trying a fresh process pool."""
        self.store = store
        self.workers = max(1, workers or os.cpu_count() or 1)
        self.use_processes = use_processes
        self.spec_timeout = spec_timeout
        self.retry_policy = retry_policy
        self.pool_cooldown = pool_cooldown
        self._executor: Optional[Executor] = None
        self._uses_threads = False
        self._degraded_at: Optional[float] = None
        self._inflight: Dict[str, asyncio.Task] = {}
        # A small cache for the thread fallback path (execute_spec needs
        # one); process workers build their own via _worker_init.
        self._cache = RunnerCache(persist=False)
        self.specs_received = 0
        self.warm_hits = 0
        self.coalesced = 0
        self.computed = 0
        self.errors = 0
        self.retries = 0
        self.timeouts = 0
        self.faults_injected = 0
        self.degrades = 0
        self.recoveries = 0
        self.store_write_failures = 0

    # ------------------------------------------------------------ executor

    @property
    def degraded(self) -> bool:
        """True while running on the thread fallback *involuntarily* (a
        scheduler built with ``use_processes=False`` chose threads and is
        not degraded)."""
        return self._uses_threads and self.use_processes

    def _new_process_pool(self) -> Optional[ProcessPoolExecutor]:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            context = None
        try:
            return ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_worker_init,
                initargs=(False,),
                mp_context=context,
            )
        except (OSError, PermissionError, ValueError):
            return None

    def _pool(self) -> Executor:
        if self.degraded and self._cooldown_elapsed():
            self._try_recover()
        if self._executor is not None:
            return self._executor
        if self.use_processes:
            pool = self._new_process_pool()
            if pool is not None:
                self._executor = pool
                return pool
        # CPU-bound work on one thread: correct, serialised by the GIL.
        self._executor = ThreadPoolExecutor(max_workers=1)
        self._uses_threads = True
        return self._executor

    def _cooldown_elapsed(self) -> bool:
        return (
            self._degraded_at is not None
            and time.monotonic() - self._degraded_at >= self.pool_cooldown
        )

    def _degrade_to_thread(self) -> None:
        """Swap a broken process pool for the thread fallback (and start
        the recovery cooldown clock)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        self._executor = ThreadPoolExecutor(max_workers=1)
        if not self._uses_threads:
            self.degrades += 1
            logger.warning(
                "scheduler degraded: process pool broke, falling back to a "
                "single worker thread (retrying a fresh pool after %.0fs)",
                self.pool_cooldown,
            )
        self._uses_threads = True
        self._degraded_at = time.monotonic()

    def _try_recover(self) -> None:
        """Attempt the thread → fresh-process-pool recovery."""
        pool = self._new_process_pool()
        if pool is None:
            # Pools still unavailable: restart the cooldown clock.
            self._degraded_at = time.monotonic()
            return
        executor, self._executor = self._executor, pool
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        self._uses_threads = False
        self._degraded_at = None
        self.recoveries += 1
        logger.info(
            "scheduler recovered: fresh process pool after cooldown"
        )

    # ------------------------------------------------------------- running

    async def execute(self, spec: RunSpec) -> SpecOutcome:
        """Satisfy one spec per the warm/coalesced/computed contract."""
        self.specs_received += 1
        key = content_key(spec)
        if self.store is not None:
            hit = self.store.get(spec)
            if hit is not None:
                self.warm_hits += 1
                return SpecOutcome("warm", key, hit)
        task = self._inflight.get(key)
        if task is not None:
            self.coalesced += 1
            # shield(): a disconnecting client cancels its own wait, never
            # the shared computation other clients are riding on.
            result = await asyncio.shield(task)
            return SpecOutcome("coalesced", key, result)
        task = asyncio.get_running_loop().create_task(
            self._compute(key, spec)
        )
        self._inflight[key] = task
        result = await asyncio.shield(task)
        return SpecOutcome("computed", key, result)

    async def _compute(self, key: str, spec: RunSpec) -> RunResult:
        try:
            result = await self._compute_with_retry(spec)
            # A non-finite metric is reported as this spec's error, never
            # stored or served as a result.
            check_finite(result)
        except Exception:
            self.errors += 1
            raise
        finally:
            self._inflight.pop(key, None)
        if self.store is not None:
            try:
                self.store.put(spec, result)
            except (OSError, sqlite3.OperationalError):
                # A store that stays unwritable after the put-level retries
                # must not turn a finished simulation into a client error;
                # serve the result and count the miss.
                self.store_write_failures += 1
        self.computed += 1
        return result

    async def _compute_with_retry(self, spec: RunSpec) -> RunResult:
        policy = self.retry_policy
        last: Optional[BaseException] = None
        for attempt in range(1, policy.attempts + 1):
            try:
                return await self._compute_once(spec)
            except (BrokenProcessPool, SpecTimeout, OSError) as exc:
                last = exc
                if isinstance(exc, SpecTimeout):
                    self.timeouts += 1
                if isinstance(exc, BrokenProcessPool) and not self._uses_threads:
                    # A killed worker (OOM, crash) must not take the server
                    # down; degrade now, recover after the cooldown.  (When
                    # already on the thread fallback — e.g. a sibling spec
                    # degraded first — just retry there: rebuilding the
                    # thread executor would cancel its queued work.)
                    self._degrade_to_thread()
                if attempt < policy.attempts:
                    self.retries += 1
                    await asyncio.sleep(policy.delay(attempt))
        assert last is not None
        raise last

    def _thread_worker(self, spec: RunSpec) -> RunResult:
        # Same fault seam as the process path's _worker_run: keyed
        # worker faults (e.g. a hang) must stay injectable after a
        # degrade, or a chaos plan could strand unfired events.
        worker_fault(spec)
        return execute_spec(spec, self._cache)

    async def _compute_once(self, spec: RunSpec) -> RunResult:
        loop = asyncio.get_running_loop()
        pool = self._pool()
        # Fault seam: an installed chaos plan can break the pool or slow
        # this spec's future, deterministically, right at submission.
        delay = self._submit_fault(spec)
        if self._uses_threads:
            # In-process: use the scheduler's own cache, never the
            # module-global worker cache of the pool runner.
            cfuture = pool.submit(self._thread_worker, spec)
        else:
            cfuture = pool.submit(_worker_run, spec)
        future = asyncio.wrap_future(cfuture, loop=loop)

        async def _await_result() -> RunResult:
            if delay > 0.0:
                await asyncio.sleep(delay)
            return await future

        try:
            if self.spec_timeout is None:
                return await _await_result()
            return await asyncio.wait_for(_await_result(), self.spec_timeout)
        except asyncio.TimeoutError:
            # Cancellation is best-effort: a queued task is cancelled for
            # real, a *running* process task cannot be interrupted and is
            # abandoned instead (see module docstring).
            cfuture.cancel()
            raise SpecTimeout(
                f"spec exceeded its {self.spec_timeout:g}s deadline"
            ) from None
        except asyncio.CancelledError:
            if cfuture.cancelled():
                # The *executor-level* future was cancelled before it ever
                # ran — a sibling spec degraded the pool and its queued
                # work was swept.  That is a retryable pool failure, not a
                # caller cancellation (which leaves the concurrent future
                # running — a started future refuses to cancel).  Deadline
                # cancellations never reach here: wait_for classifies them
                # as TimeoutError above.
                raise BrokenProcessPool(
                    "executor future cancelled by pool teardown"
                ) from None
            raise

    def _submit_fault(self, spec: RunSpec) -> float:
        """Probe the ``scheduler.submit`` injection site.  Returns the
        slow-future delay to apply (0 when nothing fires); raises for
        pool-breakage faults."""
        event = probe("scheduler.submit", spec_fault_key(spec))
        if event is None:
            return 0.0
        self.faults_injected += 1
        if event.kind == "pool_broken":
            raise BrokenProcessPool(
                "injected fault: process pool broke at submit"
            )
        if event.kind == "scheduler_slow":
            return event.param or 1.0
        return 0.0

    # --------------------------------------------------------------- stats

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    def stats(self) -> Dict[str, object]:
        return {
            "specs_received": self.specs_received,
            "warm_hits": self.warm_hits,
            "coalesced": self.coalesced,
            "computed": self.computed,
            "errors": self.errors,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "faults_injected": self.faults_injected,
            "degrades": self.degrades,
            "recoveries": self.recoveries,
            "store_write_failures": self.store_write_failures,
            "executor": "thread" if self._uses_threads else "process",
            "degraded": self.degraded,
            "inflight": self.inflight,
            "workers": self.workers,
        }

    def shutdown(self, wait: bool = False) -> None:
        """Release the pool.  ``wait=False`` (the default) cancels
        in-flight computations and queued futures — the Ctrl-C path;
        ``wait=True`` lets running computations finish first — the
        graceful SIGTERM path (callers drain their own awaiters)."""
        if not wait:
            for task in list(self._inflight.values()):
                task.cancel()
        self._inflight.clear()
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=not wait)
