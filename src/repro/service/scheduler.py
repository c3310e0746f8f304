"""Single-flight spec scheduling over a bounded worker pool.

The scheduler is the server's concurrency core, but it is framework-free:
any asyncio program can embed one.  Its contract, per submitted spec:

* **warm** — the shared :class:`~repro.api.ResultStore` already holds the
  spec's content key: answer with the stored result's JSON text as the
  entry holds it; simulate nothing, encode nothing and build no
  ``RunResult``.  The store validates each distinct payload once
  (:meth:`~repro.api.ResultStore.lookup`), so a warm re-run of an entry
  it has read before decodes nothing either.
* **coalesced** — another client (or another spec in the same batch) is
  *currently* computing the same key: await that computation instead of
  starting a second one (single-flight, keyed by
  :func:`repro.api.store.content_key` — which works store-less too, so
  in-flight dedup never depends on persistence being configured).
* **computed** — genuinely new work: run it on the bounded process pool
  (:func:`repro.api.runner._worker_run`, the exact worker path the
  parallel runner uses), encode the result once
  (:func:`repro.api.store.result_json`), persist that text, and hand the
  same text to every coalesced waiter.

An outcome carries the result as text only (:class:`SpecOutcome`); its
``result`` decodes that text into a new ``RunResult`` on each read, so no
two callers ever share a mutable result.

Each spec is keyed once and reads the store once.  :meth:`SpecScheduler.warm`
does both, synchronously (a caller that already holds the key passes
it, as the server does: it keys each distinct request spec text once,
and :func:`~repro.api.store.content_key` itself keeps no memo); for a
miss, :meth:`SpecScheduler.claim` joins or starts the computation under
that key and reads nothing again.  A
caller runs the two with no ``await`` between them, so a computation that
finishes in between cannot be started a second time.
:meth:`SpecScheduler.execute` is the one-spec form of the pair.

So for any set of concurrent clients, each distinct spec content is
simulated **at most once per server lifetime** — the property the CI
service-smoke job asserts.

Workers keep their traces and schedules in memory only
(``RunnerCache(persist=False)``) and keep no warm states, so a computed
spec's latency depends on the requests alone, not on which traces other
processes on the machine happened to leave in the trace store.  Each
worker has its own LRUs, and most computed specs need a trace that no
earlier spec on that worker built, so a computed spec usually pays for
its own trace synthesis and retirement schedule.

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
* **Pool rebuild** — a broken process pool (a SIGKILLed worker, an
  injected break) is shut down by the first attempt that sees it, and the
  retry runs on a fresh pool from :func:`repro.api.runner.new_worker_pool`
  — the parallel runner's policy too.  Each rebuild is logged and counted
  in ``pool_rebuilds``; when no pool can be built at all, the spec fails
  with that cause once its retries run out.
* **Fault seam** — ``scheduler.submit`` is a
  :func:`repro.faults.injector.probe` site: an installed chaos plan can
  break the pool or slow a future here, deterministically.

Store reads/writes are small synchronous file operations performed on the
event loop (entries are a few KB, so they do not stall it in practice).
Simulation — seconds of CPU-bound pure Python — is what gets
offloaded, to processes so the GIL never serialises two cells.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import logging
import os
from typing import TYPE_CHECKING, Awaitable, Dict, List, Optional, Tuple

from repro.api.store import ResultStore, content_key, result_json
from repro.common.errors import ConfigurationError, SpecTimeout
from repro.faults.injector import probe, spec_fault_key
from repro.faults.retry import COMPUTE_POLICY, RetryPolicy

# The runner, the simulator it runs and the process pool load in
# :meth:`SpecScheduler._pool`, just before the first pool forks, so a
# server answers /health before it loads them and its workers inherit
# them instead of each importing them.
if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing.process import BaseProcess

    from repro.api.spec import RunSpec
    from repro.system.results import RunResult

logger = logging.getLogger("repro.service")

#: How long :meth:`SpecScheduler.close` waits for killed workers to exit.
_EXIT_WAIT_S = 5.0


@dataclasses.dataclass(frozen=True)
class SpecOutcome:
    """How one submitted spec was satisfied."""

    status: str  # "warm" | "coalesced" | "computed"
    key: str
    #: The result as :func:`~repro.api.store.result_json` encodes it: the
    #: stored text for a warm hit, the one encoding of a computed result.
    result_json: str

    @property
    def result(self) -> RunResult:
        """The result decoded from :attr:`result_json`: a new object on
        each read."""
        from repro.system.results import RunResult

        return RunResult.from_dict(json.loads(self.result_json))


class SpecScheduler:
    """Deduplicating scheduler: many submitters, one computation per key."""

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        workers: Optional[int] = None,
        spec_timeout: Optional[float] = None,
        retry_policy: RetryPolicy = COMPUTE_POLICY,
    ) -> None:
        """``workers`` defaults to the CPU count; ``spec_timeout``
        (seconds) bounds each computation attempt."""
        if workers is None:
            workers = os.cpu_count() or 1
        elif workers < 1:
            raise ConfigurationError(
                f"workers: need at least 1 worker process, got {workers!r}"
            )
        self.store = store
        self.workers = workers
        self.spec_timeout = spec_timeout
        self.retry_policy = retry_policy
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self._inflight: Dict[str, asyncio.Task] = {}
        self.specs_received = 0
        self.warm_hits = 0
        self.coalesced = 0
        self.computed = 0
        self.errors = 0
        self.retries = 0
        self.timeouts = 0
        self.faults_injected = 0
        self.pool_rebuilds = 0
        self.store_write_failures = 0

    # ---------------------------------------------------------------- pool

    def _pool(self) -> ProcessPoolExecutor:
        """The current process pool, built on first use and after a break.
        A pool that cannot be built is a retryable pool failure naming the
        cause; after :meth:`shutdown` no pool is built again."""
        if self._closed:
            raise RuntimeError("the scheduler is shut down")
        if self._executor is None:
            from concurrent.futures.process import BrokenProcessPool

            from repro.api import runner

            try:
                self._executor = runner.new_worker_pool(
                    self.workers, persist=False
                )
            except (OSError, ValueError) as error:
                raise BrokenProcessPool(
                    f"cannot build a process pool: {error}"
                ) from error
        return self._executor

    def _retire(self, pool: ProcessPoolExecutor) -> None:
        """Drop a broken ``pool`` so the next attempt builds a fresh one.

        Every attempt in flight on a broken pool sees the break; only the
        first, while ``pool`` is still the current one, shuts it down
        (sweeping its queued futures) and counts the rebuild.  A sibling
        that notices later must not tear down the fresh pool."""
        if self._executor is not pool:
            return
        self._executor = None
        pool.shutdown(wait=False, cancel_futures=True)
        self.pool_rebuilds += 1
        logger.warning(
            "process pool broke; the next computation builds a fresh pool"
        )

    # ------------------------------------------------------------- running

    async def execute(self, spec: RunSpec) -> SpecOutcome:
        """Satisfy one spec per the warm/coalesced/computed contract."""
        key, outcome = self.warm(spec)
        if outcome is not None:
            return outcome
        return await self.claim(key, spec)

    def warm(
        self, spec: RunSpec, key: Optional[str] = None
    ) -> Tuple[str, Optional[SpecOutcome]]:
        """Count ``spec``, key it and read the store: its content key and
        the warm outcome, or None when the store does not hold it.
        ``key`` is ``spec``'s content key when the caller holds it."""
        self.specs_received += 1
        if key is None:
            key = content_key(spec)
        if self.store is not None:
            text = self.store.lookup(key)
            if text is not None:
                self.warm_hits += 1
                return key, SpecOutcome("warm", key, text)
        return key, None

    def claim(self, key: str, spec: RunSpec) -> Awaitable[SpecOutcome]:
        """Join the computation in flight under ``key``, or start it, now;
        the returned awaitable yields the outcome.  For a spec that
        :meth:`warm` just missed."""
        task = self._inflight.get(key)
        if task is not None:
            self.coalesced += 1
            return self._await(task, "coalesced", key)
        task = asyncio.get_running_loop().create_task(
            self._compute(key, spec)
        )
        self._inflight[key] = task
        return self._await(task, "computed", key)

    @staticmethod
    async def _await(task: asyncio.Task, status: str, key: str) -> SpecOutcome:
        # shield(): a disconnecting client cancels its own wait, never the
        # shared computation other clients are riding on.
        return SpecOutcome(status, key, await asyncio.shield(task))

    async def _compute(self, key: str, spec: RunSpec) -> str:
        try:
            result = await self._compute_with_retry(spec)
            # A non-finite metric is reported as this spec's error, never
            # stored or served as a result.
            text = result_json(result)
        except Exception:
            self.errors += 1
            raise
        finally:
            self._inflight.pop(key, None)
        if self.store is not None:
            try:
                self.store.put_text(key, spec, text)
            except OSError:
                # A store that stays unwritable after the put-level retries
                # must not turn a finished simulation into a client error;
                # serve the result and count the miss.
                self.store_write_failures += 1
        self.computed += 1
        return text

    async def _compute_with_retry(self, spec: RunSpec) -> RunResult:
        from concurrent.futures.process import BrokenProcessPool

        policy = self.retry_policy
        last: Optional[BaseException] = None
        for attempt in range(1, policy.attempts + 1):
            try:
                return await self._compute_once(spec)
            except (BrokenProcessPool, SpecTimeout, OSError) as exc:
                last = exc
                if isinstance(exc, SpecTimeout):
                    self.timeouts += 1
                if attempt < policy.attempts:
                    self.retries += 1
                    await asyncio.sleep(policy.delay(attempt))
        assert last is not None
        raise last

    async def _compute_once(self, spec: RunSpec) -> RunResult:
        from concurrent.futures.process import BrokenProcessPool

        from repro.api.runner import _worker_run

        pool = self._pool()
        try:
            # Fault seam: an installed chaos plan can break the pool or slow
            # this spec's future, deterministically, right at submission.
            delay = self._submit_fault(spec)
            cfuture = pool.submit(_worker_run, spec)
            future = asyncio.wrap_future(cfuture)

            async def _await_result() -> RunResult:
                if delay > 0.0:
                    await asyncio.sleep(delay)
                return await future

            try:
                if self.spec_timeout is None:
                    return await _await_result()
                return await asyncio.wait_for(
                    _await_result(), self.spec_timeout
                )
            except asyncio.TimeoutError:
                # Cancellation is best-effort: a queued task is cancelled
                # for real, a *running* process task cannot be interrupted
                # and is abandoned instead (see module docstring).
                cfuture.cancel()
                raise SpecTimeout(
                    f"spec exceeded its {self.spec_timeout:g}s deadline"
                ) from None
            except asyncio.CancelledError:
                if cfuture.cancelled() and not self._closed:
                    # The *executor-level* future was cancelled before it
                    # ever ran — a sibling spec retired the pool and its
                    # queued work was swept.  That is a retryable pool
                    # failure, not a caller cancellation (which leaves the
                    # concurrent future running — a started future refuses
                    # to cancel).  Deadline cancellations never reach here:
                    # wait_for classifies them as TimeoutError above, and
                    # after shutdown() the cancellation stands.
                    raise BrokenProcessPool(
                        "executor future cancelled by pool teardown"
                    ) from None
                raise
        except BrokenProcessPool:
            # A killed worker (OOM, crash) must not take the server down:
            # retire the pool; the retry runs on a fresh one.
            self._retire(pool)
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
            from concurrent.futures.process import BrokenProcessPool

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
            "pool_rebuilds": self.pool_rebuilds,
            "store_write_failures": self.store_write_failures,
            "inflight": self.inflight,
            "workers": self.workers,
        }

    async def close(self, timeout: float) -> None:
        """Graceful release, the SIGTERM path.  Computations in flight get
        up to ``timeout`` seconds to finish and store their results,
        awaited on the event loop without blocking it; then
        :meth:`shutdown` kills the pool, so neither a computation
        abandoned after its deadline nor one still running past the budget
        holds the stop.  Returns once the killed workers have exited."""
        tasks = list(self._inflight.values())
        if tasks:
            await asyncio.wait(tasks, timeout=timeout)
        workers = self.shutdown()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + _EXIT_WAIT_S
        while (
            any(worker.is_alive() for worker in workers)
            and loop.time() < deadline
        ):
            await asyncio.sleep(0.01)

    def shutdown(self) -> List[BaseProcess]:
        """Release the pool now, the Ctrl-C path: cancel in-flight
        computations and queued futures and kill the worker processes
        (a running simulation cannot be interrupted otherwise).  No pool
        is built afterwards.  Returns the killed workers."""
        self._closed = True
        for task in list(self._inflight.values()):
            task.cancel()
        self._inflight.clear()
        executor, self._executor = self._executor, None
        if executor is None:
            return []
        from repro.api.runner import _terminate_pool

        return _terminate_pool(executor)
