"""Bounded, explicitly-owned trace and schedule caches.

Replaces the unbounded module-global ``_TRACE_CACHE``/``_SCHEDULE_CACHE``
the analysis layer used to keep: every
:class:`~repro.api.runner.ParallelRunner` owns one :class:`RunnerCache`, so
long-lived sessions stay memory-bounded and parallel workers never share
mutable state across processes.

Below the two in-memory LRUs sits the per-machine
:class:`~repro.api.trace_store.TraceStore`: a trace or schedule missing
from its LRU is loaded from disk when this machine has built it before,
and written there after it is built.  Warm states live in the store only,
so cells on different cores share one warmup through it.  Kind tables
(the per-item delivery plans) are built per cell: building one is a few
byte-table passes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generic,
    Hashable,
    List,
    Optional,
    TypeVar,
)

from repro.cores.base import CoreType
from repro.cores.retire import RetireModel
from repro.mem.hierarchy import HierarchyConfig
from repro.monitors import create_monitor, is_builtin_monitor
from repro.system.simulator import KindTable, build_plan, fade_config
from repro.verify.coverage import COVERAGE
from repro.workload.generator import generate_trace
from repro.workload.profile import BenchmarkProfile
from repro.workload.profiles import get_profile
from repro.workload.trace import Trace

from repro.api.spec import ExperimentSettings, RunSpec

if TYPE_CHECKING:
    from repro.api.trace_store import TraceStore, WarmState

#: Traces and schedules a cache keeps: they cover the largest paper grid
#: (13 benchmarks x a handful of settings) while keeping a long-lived
#: session's footprint flat.
_MAX_TRACES = 64
_MAX_SCHEDULES = 128

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LruCache(Generic[K, V]):
    """A small thread-safe least-recently-used mapping."""

    def __init__(self, max_entries: int) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get_or_create(self, key: K, factory: Callable[[], V]) -> V:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key]
            self.misses += 1
        # Build outside the lock: factories run simulation-scale work, and a
        # duplicate build under a race is benign (both produce equal values).
        value = factory()
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)
        return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._data


class RunnerCache:
    """Traces and retire schedules shared by the runs of one runner.

    Both caches are LRU-bounded (:data:`_MAX_TRACES`,
    :data:`_MAX_SCHEDULES`) and backed by the trace store at the location
    configured (``$REPRO_TRACE_STORE``, ``off`` to turn it off) when the
    cache first needs it.  Traces of an inline ``profile`` are never
    persisted, and a cache built with ``persist=False`` never reads or
    writes the store.  A store hit still counts as an LRU miss.  Warm
    states exist only in the store (:meth:`warm_state`).
    """

    def __init__(self, persist: bool = True) -> None:
        self.persist = persist
        self._traces: LruCache = LruCache(_MAX_TRACES)
        self._schedules: LruCache = LruCache(_MAX_SCHEDULES)
        self._trace_store: Optional["TraceStore"] = None
        self._trace_store_hits = 0
        self._schedule_store_hits = 0
        self._warm_store_hits = 0

    @property
    def trace_store(self) -> "TraceStore":
        if self._trace_store is None:
            # Resolved (and the module imported) on first use, so neither
            # `import repro` nor a cache that never builds a trace pays
            # to compile the store.
            from repro.api.trace_store import default_trace_store

            self._trace_store = default_trace_store()
        return self._trace_store

    def _store_for(
        self, profile: Optional[BenchmarkProfile]
    ) -> Optional["TraceStore"]:
        """The store backing a lookup: none for an inline ``profile`` or
        a cache that does not persist."""
        if profile is not None or not self.persist:
            return None
        return self.trace_store

    def trace(
        self,
        benchmark: str,
        settings: ExperimentSettings,
        profile: Optional[BenchmarkProfile] = None,
    ) -> Trace:
        """The deterministic synthetic trace for one (benchmark, settings).

        The key includes the resolved (frozen, hashable) profile itself, so
        re-registering a benchmark name with ``replace=True`` never serves a
        trace built from the superseded profile.  ``profile`` overrides the
        registry lookup for self-contained specs carrying an inline profile.
        """
        store = self._store_for(profile)
        if profile is None:
            profile = get_profile(benchmark)
        key = (profile, settings.num_instructions, settings.seed)

        def synthesize() -> Trace:
            return generate_trace(
                profile, settings.num_instructions, seed=settings.seed
            )

        def build() -> Trace:
            if store is None:
                return synthesize()
            trace, loaded = store.trace(
                profile, settings.num_instructions, settings.seed, synthesize
            )
            self._trace_store_hits += loaded
            return trace

        return self._traces.get_or_create(key, build)

    def schedule(
        self,
        benchmark: str,
        settings: ExperimentSettings,
        core: CoreType = CoreType.OOO4,
        hierarchy: Optional[HierarchyConfig] = None,
        profile: Optional[BenchmarkProfile] = None,
    ) -> List[float]:
        """The unobstructed retirement schedule for one (benchmark, core,
        hierarchy) cell — grid cells differing only in monitor or FADE
        configuration share it."""
        inline = profile
        store = self._store_for(inline)
        if profile is None:
            profile = get_profile(benchmark)
        if hierarchy is None:
            hierarchy = HierarchyConfig()
        key = (profile, settings.num_instructions, settings.seed, core, hierarchy)

        def compute() -> List[float]:
            model = RetireModel(
                core_type=core,
                bubble_prob=profile.bubble_prob,
                bubble_mean=profile.bubble_mean,
                hierarchy_config=hierarchy,
            )
            return model.schedule(self.trace(benchmark, settings, inline))

        def build() -> List[float]:
            if store is None:
                return compute()
            schedule, loaded = store.schedule(
                profile, settings.num_instructions, settings.seed, core,
                hierarchy, compute,
            )
            self._schedule_store_hits += loaded
            return schedule

        return self._schedules.get_or_create(key, build)

    def plan(self, trace: Trace, monitor_name: str) -> KindTable:
        """The kind table (one delivery kind per trace item) of
        ``monitor_name`` over ``trace``, built afresh for every cell: a
        build is a few byte-table passes.  A method of the cache only so
        that a cell's plan work has one place to be timed (perfbench's
        tracer wraps it as the ``system.plan`` layer)."""
        return build_plan(trace, create_monitor(monitor_name))

    def warm_state(
        self,
        spec: RunSpec,
        warmup: int,
        warm: Callable[[], "WarmState"],
    ) -> Optional["WarmState"]:
        """The monitor and FADE of ``spec`` after its ``warmup`` items,
        a fresh pair on every call, or None when ``spec`` is out of scope.

        The pair is loaded from the trace store; on a miss there,
        ``warm()`` warms a fresh pair, which is stored.  Only the event
        engine uses warm states (the naive reference always warms itself),
        and only for a registry profile, a built-in monitor, a non-zero
        warmup and coverage counting off (warmup hits coverage states)."""
        key = self._warm_key(spec, warmup)
        if key is None:
            return None
        state, loaded = self.trace_store.warm(key, warm)
        self._warm_store_hits += loaded
        return state

    def _warm_key(self, spec: RunSpec, warmup: int) -> Optional[str]:
        if (
            self._store_for(spec.profile) is None
            or spec.config.engine != "event"
            or warmup <= 0
            or COVERAGE.enabled
            or not is_builtin_monitor(spec.monitor)
        ):
            return None
        return self.trace_store.warm_key(
            get_profile(spec.benchmark), spec.settings.num_instructions,
            spec.settings.seed, spec.monitor, fade_config(spec.config),
            warmup,
        )

    def clear(self) -> None:
        self._traces.clear()
        self._schedules.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "traces": len(self._traces),
            "trace_hits": self._traces.hits,
            "trace_misses": self._traces.misses,
            "schedules": len(self._schedules),
            "schedule_hits": self._schedules.hits,
            "schedule_misses": self._schedules.misses,
            "trace_store_hits": self._trace_store_hits,
            "schedule_store_hits": self._schedule_store_hits,
            "warm_store_hits": self._warm_store_hits,
        }
