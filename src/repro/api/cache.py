"""Bounded, explicitly-owned trace and schedule caches.

Replaces the unbounded module-global ``_TRACE_CACHE``/``_SCHEDULE_CACHE``
the analysis layer used to keep: every :class:`~repro.api.runner.Runner`
owns one :class:`RunnerCache`, so long-lived sessions stay memory-bounded
and parallel workers never share mutable state across processes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Generic, Hashable, List, Optional, TypeVar

from repro.cores.base import CoreType
from repro.cores.retire import RetireModel
from repro.mem.hierarchy import HierarchyConfig
from repro.monitors import MONITOR_REGISTRY, create_monitor
from repro.system.simulator import DeliveryPlan, build_plan
from repro.workload.generator import generate_trace
from repro.workload.profile import BenchmarkProfile
from repro.workload.profiles import get_profile
from repro.workload.trace import Trace

from repro.api.spec import ExperimentSettings

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
    """Traces and retire schedules shared by the runs of one Runner.

    Both caches are LRU-bounded; the defaults comfortably cover the largest
    paper grid (13 benchmarks x a handful of settings) while keeping a
    long-lived CLI session's footprint flat.
    """

    def __init__(
        self,
        max_traces: int = 64,
        max_schedules: int = 128,
        max_plans: int = 64,
    ) -> None:
        self._traces: LruCache = LruCache(max_traces)
        self._schedules: LruCache = LruCache(max_schedules)
        self._plans: LruCache = LruCache(max_plans)

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
        if profile is None:
            profile = get_profile(benchmark)
        key = (profile, settings.num_instructions, settings.seed)
        return self._traces.get_or_create(
            key,
            lambda: generate_trace(
                profile, settings.num_instructions, seed=settings.seed
            ),
        )

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
        if profile is None:
            profile = get_profile(benchmark)
        if hierarchy is None:
            hierarchy = HierarchyConfig()
        key = (profile, settings.num_instructions, settings.seed, core, hierarchy)

        def build() -> List[float]:
            model = RetireModel(
                core_type=core,
                bubble_prob=profile.bubble_prob,
                bubble_mean=profile.bubble_mean,
                hierarchy_config=hierarchy,
            )
            return model.schedule(self.trace(benchmark, settings, profile))

        return self._schedules.get_or_create(key, build)

    def plan(
        self,
        benchmark: str,
        settings: ExperimentSettings,
        monitor_name: str,
        profile: Optional[BenchmarkProfile] = None,
    ) -> DeliveryPlan:
        """The delivery plan (per-trace-item work classification) for one
        (benchmark, monitor) pair.  Plans hold only immutable event payloads,
        so cells differing in system configuration share one plan.

        The key includes the monitor's registered *factory* (not just its
        name), so re-registering a name with ``replace=True`` never serves a
        plan classified by the superseded monitor.
        """
        if profile is None:
            profile = get_profile(benchmark)
        factory = MONITOR_REGISTRY.get(monitor_name)
        key = (profile, settings.num_instructions, settings.seed, factory)
        return self._plans.get_or_create(
            key,
            lambda: build_plan(
                self.trace(benchmark, settings, profile),
                create_monitor(monitor_name),
            ),
        )

    def clear(self) -> None:
        self._traces.clear()
        self._schedules.clear()
        self._plans.clear()

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
        }
