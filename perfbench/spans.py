"""In-memory spans around the program's public calls, for traced runs.

:meth:`Tracer.install` wraps public methods of public classes — the
``RunnerCache`` lookups, ``MonitoringSimulation.run``,
``ParallelRunner.run``, ``ResultStore.get``/``put`` and
``ServiceClient.submit`` — and :meth:`Tracer.uninstall` restores them.
The program itself is not edited.  Fork-started pool workers inherit the
wrappers; a worker ships its spans back on the ``RunResult`` it returns
(an attribute ``to_dict()`` ignores), and ``ParallelRunner.run`` collects
them.  Spans of one spec carry its content key as their group.

A span's self time is its duration minus the union of its children's
intervals, so on one thread the self times of a tree add up to its root.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional

SHIPPED = "bench_spans"


class Tracer:
    """Spans of one traced run, kept in memory until it ends."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self.owner_pid = os.getpid()
        self._ids = itertools.count()
        self._local = threading.local()
        self._originals: List[tuple] = []
        os.register_at_fork(after_in_child=self._forget_parent)

    # ------------------------------------------------------------ recording

    def _forget_parent(self) -> None:
        """In a forked child: drop the parent's spans and open-span stack."""
        self.spans = []
        self._local = threading.local()

    def _stack(self) -> List[Dict[str, object]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_id(self) -> str:
        return f"{os.getpid()}.{next(self._ids)}"

    def current(self) -> Optional[Dict[str, object]]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, group: Optional[str] = None
             ) -> Iterator[Dict[str, object]]:
        """Time the enclosed block as a child of the innermost open span on
        this thread; the yielded dict takes extra attributes."""
        parent = self.current()
        record: Dict[str, object] = {
            "id": self.new_id(),
            "parent": parent["id"] if parent else None,
            "name": name,
            "group": group or (parent["group"] if parent else None),
        }
        stack = self._stack()
        stack.append(record)
        record["t0"] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["t1"] = time.perf_counter_ns()
            stack.pop()
            self.spans.append(record)

    def record(self, name: str, t0: int, t1: int, parent: Optional[str],
               group: Optional[str] = None,
               span_id: Optional[str] = None) -> None:
        """Add a span measured by the caller."""
        self.spans.append({
            "id": span_id or self.new_id(), "parent": parent, "name": name,
            "group": group, "t0": t0, "t1": t1,
        })

    def drain(self) -> List[Dict[str, object]]:
        spans, self.spans = self.spans, []
        return spans

    # ------------------------------------------------------------- wrapping

    def _wrap(self, owner: type, attribute: str,
              make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attribute]
        self._originals.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def install(self) -> None:
        from repro.api import ParallelRunner, ResultStore, RunnerCache
        from repro.api import content_key
        from repro.service import ServiceClient
        from repro.system import MonitoringSimulation
        from repro.system import simulator as simulator_module

        tracer = self

        def cache_call(name: str, count_hits: bool):
            def make(original):
                def traced(cache, *args, **kwargs):
                    before = cache.stats()["trace_hits"] if count_hits else 0
                    with tracer.span(name) as span:
                        value = original(cache, *args, **kwargs)
                    if count_hits:
                        span["hit"] = cache.stats()["trace_hits"] > before
                    return value
                return traced
            return make

        self._wrap(RunnerCache, "trace", cache_call("workload.trace", True))
        self._wrap(RunnerCache, "schedule",
                   cache_call("cores.schedule", False))
        self._wrap(RunnerCache, "plan", cache_call("system.plan", False))

        def sim_run(original):
            def traced(sim):
                # Diagnostic counters are read only when present, so a
                # program without fusion or a memo level still runs.
                fusion = getattr(simulator_module, "fusion_stats", None)
                fused_before = getattr(fusion, "runs", None)
                with tracer.span("system.sim") as span:
                    result = original(sim)
                span["fade"] = bool(sim.config.fade_enabled)
                span["cycles"] = result.cycles
                pipeline = getattr(getattr(sim, "fade", None), "pipeline",
                                   None)
                for attr, key in (("memo_value_hits", "memo_value_hits"),
                                  ("memo_hits", "memo_gen_hits"),
                                  ("memo_misses", "memo_misses")):
                    value = getattr(pipeline, attr, None)
                    if isinstance(value, int):
                        span[key] = value
                if isinstance(fused_before, int):
                    span["fused_runs"] = fusion.runs - fused_before
                if os.getpid() != tracer.owner_pid:
                    setattr(result, SHIPPED, tracer.drain())
                return result
            return traced

        self._wrap(MonitoringSimulation, "run", sim_run)

        def grid_run(original):
            def traced(runner, specs):
                specs = list(specs)
                with tracer.span("api.grid") as span:
                    results = original(runner, specs)
                span["jobs"] = runner.jobs
                for spec, record in zip(specs, results):
                    shipped = record.result.__dict__.pop(SHIPPED, None)
                    if not shipped:
                        continue
                    key = content_key(spec)
                    for worker_span in shipped:
                        worker_span["group"] = key
                        worker_span["worker"] = True
                    tracer.spans.extend(shipped)
                return results
            return traced

        self._wrap(ParallelRunner, "run", grid_run)

        def store_get(original):
            def traced(store, spec):
                with tracer.span("api.store.get", content_key(spec)):
                    return original(store, spec)
            return traced

        def store_put(original):
            def traced(store, spec, result):
                with tracer.span("api.store.put", content_key(spec)):
                    return original(store, spec, result)
            return traced

        self._wrap(ResultStore, "get", store_get)
        self._wrap(ResultStore, "put", store_put)

        def submit(original):
            def traced(client, specs, results=True):
                # The stream is cut into consecutive segments, each ending
                # at one event and named after it, so a request's segments
                # partition its time.
                specs = list(specs)
                keys = [content_key(spec) for spec in specs]
                parent = tracer.current()
                request_id = tracer.new_id()
                start = last = time.perf_counter_ns()
                try:
                    for event in original(client, specs, results):
                        now = time.perf_counter_ns()
                        kind = event.get("event")
                        if kind == "accepted":
                            tracer.record("service.accept", last, now,
                                          request_id)
                            last = now
                        elif kind == "spec":
                            tracer.record(
                                f"service.{event.get('status')}", last, now,
                                request_id, keys[int(event["index"])],
                            )
                            last = now
                        yield event
                finally:
                    tracer.record(
                        "service.request", start, time.perf_counter_ns(),
                        parent["id"] if parent else None, span_id=request_id,
                    )
            return traced

        self._wrap(ServiceClient, "submit", submit)

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)


# --------------------------------------------------------------- analysis

def _covered(intervals: Iterable[tuple]) -> int:
    total = 0
    end = None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def self_times(spans: List[Dict[str, object]]) -> Dict[str, float]:
    """Seconds of self time per span name."""
    children: Dict[object, List[tuple]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["t0"], span["t1"]))
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        t0, t1 = span["t0"], span["t1"]
        clipped = [
            (max(a, t0), min(b, t1))
            for a, b in children.get(span["id"], ())
            if min(b, t1) > max(a, t0)
        ]
        totals[span["name"]] += (t1 - t0 - _covered(clipped)) / 1e9
    return dict(totals)
