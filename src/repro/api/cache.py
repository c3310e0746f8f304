"""Bounded, explicitly-owned trace, schedule and warm-state caches.

Replaces the unbounded module-global ``_TRACE_CACHE``/``_SCHEDULE_CACHE``
the analysis layer used to keep: every :class:`~repro.api.runner.Runner`
owns one :class:`RunnerCache`, so long-lived sessions stay memory-bounded
and parallel workers never share mutable state across processes.

Below the in-memory LRUs sits the per-machine
:class:`~repro.api.trace_store.TraceStore`: a trace, schedule or warm
state missing from the LRU is loaded from disk when this machine has built
it before, and written there after it is built.  Kind tables (the per-item
delivery plans) stay in memory only: building one is a few byte-table
passes.
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
from repro.monitors import MONITOR_REGISTRY, create_monitor, is_builtin_monitor
from repro.system.simulator import KindTable, build_plan, fade_config
from repro.verify.coverage import COVERAGE
from repro.workload.generator import generate_trace
from repro.workload.profile import BenchmarkProfile
from repro.workload.profiles import get_profile
from repro.workload.trace import Trace

from repro.api.spec import ExperimentSettings, RunSpec

if TYPE_CHECKING:
    from repro.api.trace_store import TraceStore, WarmState

#: Warm-state pickles a cache keeps (about 150 KiB at most for a 20k
#: trace): enough for the cells of a grid that share one warmup.
_MAX_WARM_STATES = 32

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

    def keys(self) -> List[K]:
        with self._lock:
            return list(self._data)

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
    """Traces, retire schedules, plans and warm states shared by the runs
    of one Runner.

    Every cache is LRU-bounded; the defaults comfortably cover the largest
    paper grid (13 benchmarks x a handful of settings) while keeping a
    long-lived CLI session's footprint flat.

    The trace, schedule and warm-state LRUs are backed by the trace store
    at the location configured (``$REPRO_TRACE_STORE``, ``off`` to turn it
    off) when the cache first needs it.  Traces of an inline ``profile``
    are never persisted, and a cache built with ``persist=False`` never
    reads or writes the store.  A store hit still counts as an LRU miss.
    Warm states exist only where the store is used (:meth:`warm_state`).
    """

    def __init__(
        self,
        max_traces: int = 64,
        max_schedules: int = 128,
        max_plans: int = 64,
        persist: bool = True,
    ) -> None:
        self.persist = persist
        self._traces: LruCache = LruCache(max_traces)
        self._schedules: LruCache = LruCache(max_schedules)
        self._plans: LruCache = LruCache(max_plans)
        self._warm_states: LruCache = LruCache(_MAX_WARM_STATES)
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

    def plan(
        self,
        benchmark: str,
        settings: ExperimentSettings,
        monitor_name: str,
        profile: Optional[BenchmarkProfile] = None,
    ) -> KindTable:
        """The kind table (one delivery kind per trace item) for one
        (benchmark, monitor) pair.  It does not depend on the system
        configuration, so cells differing only there share one table.

        The key includes the monitor's registered *factory* (not just its
        name), so re-registering a name with ``replace=True`` never serves a
        plan classified by the superseded monitor.
        """
        inline = profile
        if profile is None:
            profile = get_profile(benchmark)
        factory = MONITOR_REGISTRY.get(monitor_name)
        key = (profile, settings.num_instructions, settings.seed, factory)
        return self._plans.get_or_create(
            key,
            lambda: build_plan(
                self.trace(benchmark, settings, inline),
                create_monitor(monitor_name),
            ),
        )

    def warm_state(
        self,
        spec: RunSpec,
        warmup: int,
        warm: Callable[[], "WarmState"],
    ) -> Optional["WarmState"]:
        """The monitor and FADE of ``spec`` after its ``warmup`` items,
        a fresh copy on every call, or None when ``spec`` is out of scope.

        On a miss in the LRU and the store, ``warm()`` warms a fresh pair
        and encodes it.  Only the event engine uses warm states (the naive
        reference always warms itself), and only for a registry profile, a
        built-in monitor, a non-zero warmup and coverage counting off
        (warmup hits coverage states)."""
        key = self._warm_key(spec, warmup)
        if key is None:
            return None
        fresh: List["WarmState"] = []

        def load() -> bytes:
            state, loaded = self.trace_store.warm(key, warm)
            self._warm_store_hits += loaded
            fresh.append(state)
            return state.body

        body = self._warm_states.get_or_create(key, load)
        if fresh:
            return fresh[0]
        from repro.api.trace_store import load_warm_state

        return load_warm_state(body)

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
        self._plans.clear()
        self._warm_states.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "traces": len(self._traces),
            "trace_hits": self._traces.hits,
            "trace_misses": self._traces.misses,
            "schedules": len(self._schedules),
            "schedule_hits": self._schedules.hits,
            "schedule_misses": self._schedules.misses,
            "plans": len(self._plans),
            "plan_hits": self._plans.hits,
            "plan_misses": self._plans.misses,
            "trace_store_hits": self._trace_store_hits,
            "schedule_store_hits": self._schedule_store_hits,
            "warm_states": len(self._warm_states),
            "warm_hits": self._warm_states.hits,
            "warm_misses": self._warm_states.misses,
            "warm_store_hits": self._warm_store_hits,
        }
