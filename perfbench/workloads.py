"""The three workloads, each timed untraced or traced.

Only public entry points are called: ``repro.api`` (``execute_spec``,
``RunnerCache``, ``ParallelRunner``, ``ResultStore``), the
``ServiceClient`` and the ``repro serve`` command (or, traced, an
in-process ``CampaignServer`` so its store can be wrapped).  Every run uses
the default event engine; the naive stepper only computes references.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.api import ParallelRunner, RunnerCache, content_key, execute_spec
from repro.service import ServiceClient

import checks
import specs as specgen
from spans import Tracer, self_times

#: Worker processes, pool jobs and client connections: at most two.
JOBS = max(1, min(2, os.cpu_count() or 1))

#: Operations every run completes however short ``--seconds`` is; the
#: traced run's exact counts are taken over this prefix, so they repeat.
COUNT_PREFIX = {"cold_cell": 10, "fig9_grid": 1, "service_mix": 40}

SETUP_IMPORTS = 9
SETUP_LAUNCHES = 9

#: Service clients pause this long between campaign rounds, standing for
#: the user's gap between sittings; within a round, requests follow each
#: other as a script's ``campaign run`` calls do.  The figure is chosen, not
#: observed: it keeps the two cores below saturation, where a closed loop
#: turns small losses of CPU into large swings in throughput.  The pause is
#: left out of ``cells_per_s``.
THINK_S = 0.3

#: The benchmark process's GIL switch interval while service clients run:
#: short, so one client thread decoding a response does not add up to a
#: default interval (5 ms) to the other client's measured request.
CLIENT_SWITCH_S = 0.0005

#: How often the process tree's memory is sampled.
RSS_INTERVAL_S = 0.2


def subprocess_env() -> Dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH="src" + (os.pathsep + path if path else ""))


def median_and_tail(samples: List[float]) -> Tuple[float, float, float, int]:
    """(median, tail, tail percentile, samples beyond the tail).  The tail
    is the highest percentile with at least ten samples beyond it; with
    fewer than 21 samples that percentile would not lie above the median,
    so the maximum stands in."""
    ordered = sorted(samples)
    count = len(ordered)
    if count > 20:
        return (statistics.median(ordered), ordered[count - 11],
                100.0 * (count - 10) / count, 10)
    return statistics.median(ordered), ordered[-1], 100.0, 0


def _tree_rss_kb(root: int) -> int:
    """Summed peak resident set (``VmHWM``) of ``root`` and its live
    descendants, in KiB.  Each process's own peak is exact however brief;
    pages a forked child shares with its parent count in both."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rpartition(")")[2].split()
        except OSError:
            continue
        parents[int(entry)] = int(fields[1])
    tree, frontier = {root}, [root]
    while frontier:
        parent = frontier.pop()
        for pid, ppid in parents.items():
            if ppid == parent and pid not in tree:
                tree.add(pid)
                frontier.append(pid)
    total = 0
    for pid in tree:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            continue
    return total


class PeakRss:
    """Memory of this process and its children from ``start()`` to
    ``stop()``, in MB: the largest sum, over the processes alive at one
    sample, of each one's peak RSS so far.  Sampled on a thread."""

    def __init__(self) -> None:
        self.peak_kb = 0
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while True:
            self.peak_kb = max(self.peak_kb, _tree_rss_kb(os.getpid()))
            if self._done.wait(RSS_INTERVAL_S):
                return

    def start(self) -> "PeakRss":
        self._thread.start()
        return self

    def stop(self) -> float:
        self._done.set()
        self._thread.join()
        return self.peak_kb / 1024.0


def import_setup_s() -> float:
    """Median wall time of a fresh interpreter importing ``repro``."""
    samples = []
    for _ in range(SETUP_IMPORTS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro"],
                       env=subprocess_env(), check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.checked: List[Tuple[object, Optional[dict]]] = []
        self.extra_failures = 0
        self.notes: List[str] = []
        self.latencies: List[float] = []
        self.wall = 0.0
        #: Specs per second of client request time in each service
        #: campaign round, summed over clients; ``cells_per_s`` is their
        #: median, which a few stalled rounds do not move.
        self.rates: List[float] = []
        #: Shares of the served specs by how the server answered them.
        self.mix: Dict[str, float] = {}
        self.setup = 0.0
        self.peak_rss_mb = 0.0
        self.layers: Dict[str, float] = {}

    def end_to_end(self) -> Dict[str, float]:
        p50, tail, _, _ = median_and_tail(self.latencies)
        return {
            "setup_s": self.setup,
            "op_s_p50": p50,
            "op_s_tail": tail,
            "cells_per_s": (statistics.median(self.rates) if self.rates
                            else len(self.checked) / self.wall),
            "peak_rss_mb": self.peak_rss_mb,
        }


def _span(tracer: Optional[Tracer], name: str, group: Optional[str] = None):
    return tracer.span(name, group) if tracer else contextlib.nullcontext()


def _result_dict(result) -> Optional[dict]:
    return None if result is None else result.to_dict()


# ------------------------------------------------------------- cold_cell

def run_cold_cell(seed: int, seconds: float,
                  tracer: Optional[Tracer]) -> Outcome:
    """Sequential cold cells, each a fresh ``execute_spec`` with its own
    ``RunnerCache`` and no store: what one new ``repro run`` pays."""
    out = Outcome()
    rss = PeakRss().start()
    if tracer is None:
        out.setup = import_setup_s()
    spec_list = specgen.cold_cell_specs(seed)
    prefix = COUNT_PREFIX["cold_cell"]
    results = []
    mark = 0
    with _span(tracer, "bench.cold_cell"):
        start = time.perf_counter()
        for index, spec in enumerate(spec_list):
            if index >= prefix and time.perf_counter() - start >= seconds:
                break
            group = content_key(spec) if tracer else None
            began = time.perf_counter()
            try:
                with _span(tracer, "api.execute_spec", group):
                    result = execute_spec(spec, RunnerCache())
            except Exception as error:  # Counted, reported, never fatal.
                out.notes.append(f"{spec.describe()}: {error!r}")
                result = None
            out.latencies.append(time.perf_counter() - began)
            results.append((spec, result))
            if tracer and index + 1 == prefix:
                mark = len(tracer.spans)
        out.wall = time.perf_counter() - start
    out.peak_rss_mb = rss.stop()
    out.checked = [(spec, _result_dict(result)) for spec, result in results]
    if tracer:
        out.layers = layer_metrics(
            tracer, out, [r for _, r in results[:prefix]], mark
        )
    return out


# ------------------------------------------------------------- fig9_grid

def run_fig9_grid(seed: int, seconds: float,
                  tracer: Optional[Tracer]) -> Outcome:
    """The Figure 9 grid, repeatedly, each time through a fresh
    ``ParallelRunner`` (cold parent cache, new pool) with no store."""
    out = Outcome()
    rss = PeakRss().start()
    if tracer is None:
        out.setup = import_setup_s()
    spec_list = specgen.fig9_specs(seed)
    prefix = COUNT_PREFIX["fig9_grid"]
    first: List = []
    done: List = []
    mark = 0
    grids = 0
    with _span(tracer, "bench.fig9_grid"):
        start = time.perf_counter()
        while grids < prefix or time.perf_counter() - start < seconds:
            began = time.perf_counter()
            try:
                records = ParallelRunner(jobs=JOBS).run(spec_list)
                results = [record.result for record in records]
            except Exception as error:
                out.notes.append(f"grid {grids}: {error!r}")
                results = [None] * len(spec_list)
            out.latencies.append(time.perf_counter() - began)
            done.extend(zip(spec_list, results))
            grids += 1
            if tracer and grids == prefix:
                mark = len(tracer.spans)
                first = results
        out.wall = time.perf_counter() - start
    out.peak_rss_mb = rss.stop()
    out.checked = [(spec, _result_dict(result)) for spec, result in done]
    if tracer:
        out.layers = layer_metrics(tracer, out, first, mark)
    return out


# ----------------------------------------------------------- service_mix

class _Server:
    """A ``repro serve`` subprocess on a Unix socket and a fresh sqlite
    store, or (traced) an in-process ``CampaignServer``."""

    def __init__(self, workdir: pathlib.Path, traced: bool) -> None:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        self.workdir = workdir
        self.socket = workdir / "serve.sock"
        self.address = f"unix://{self.socket}"
        self.process: Optional[subprocess.Popen] = None
        self.server = None
        store_path = workdir / "store.db"
        if traced:
            from repro.api import ResultStore
            from repro.service import CampaignServer

            self.server = CampaignServer(
                store=ResultStore(store_path), workers=JOBS,
                socket_path=str(self.socket),
            )
            self.server.start_background()
            self.client = ServiceClient(self.address)
            return
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket",
             str(self.socket), "--workers", str(JOBS),
             "--result-cache", str(store_path)],
            env=subprocess_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self.client = ServiceClient(self.address, timeout=60.0)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                self.client.health()
                break
            except (OSError, RuntimeError):
                if self.process.poll() is not None:
                    raise RuntimeError("repro serve exited during start-up")
                if time.monotonic() > deadline:
                    self.close()
                    raise RuntimeError("repro serve did not answer /health")
                time.sleep(0.002)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop_background()
        if self.process is not None:
            try:
                self.client.shutdown_server()
            except (OSError, RuntimeError):
                pass
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        shutil.rmtree(self.workdir, ignore_errors=True)


def _launch_measured(workdir: pathlib.Path) -> Tuple[_Server, float]:
    """Launch ``repro serve`` several times, each until ``/health``
    answers; keep the last server and return the median launch time."""
    samples = []
    server = None
    for _ in range(SETUP_LAUNCHES):
        if server is not None:
            server.close()
        start = time.perf_counter()
        server = _Server(workdir, traced=False)
        samples.append(time.perf_counter() - start)
    return server, statistics.median(samples)


def run_service_mix(seed: int, seconds: float,
                    tracer: Optional[Tracer]) -> Outcome:
    """``JOBS`` closed-loop clients running seeded campaigns: each is
    submitted cold (computed, or coalesced when every client submits it at
    once) and re-run warm (store reads)."""
    out = Outcome()
    plans = specgen.service_plan(seed, clients=JOBS)
    rss = PeakRss().start()
    workdir = checks.CACHE_DIR / f"service-{os.getpid()}"
    if tracer is None:
        server, out.setup = _launch_measured(workdir)
    else:
        server = _Server(workdir, traced=True)
    prefix = COUNT_PREFIX["service_mix"]
    stop = threading.Event()
    start = time.perf_counter()

    def decide() -> None:
        if time.perf_counter() - start >= seconds:
            stop.set()

    barrier = threading.Barrier(JOBS, action=decide)
    one_warm = threading.Lock()
    per_client: List[List[Tuple[object, float, List[dict]]]] = [
        [] for _ in range(JOBS)
    ]
    client = server.client
    distinct_results: Dict[str, dict] = {}

    def drive(index: int) -> None:
        done = per_client[index]
        with _span(tracer, "bench.client"):
            try:
                for position, batch in enumerate(plans[index]):
                    warm = batch.kind == "warm"
                    if not warm and position:
                        with _span(tracer, "bench.think"):
                            time.sleep(THINK_S)
                    # Clients line up at the start of each round, so
                    # shared campaigns are submitted at once, and again
                    # when every cold campaign of the round is done; then
                    # warm re-runs go one at a time.  A warm re-run thus
                    # never shares the server with a computation or with
                    # another request, which would make its latency swing
                    # with the overlap.  The run stops between rounds.
                    if not warm or plans[index][position - 1].kind != "warm":
                        try:
                            with _span(tracer, "bench.line_up"):
                                barrier.wait()
                        except threading.BrokenBarrierError:
                            break
                        if not warm and stop.is_set() and position >= prefix:
                            break
                    if warm:
                        with _span(tracer, "bench.line_up"):
                            one_warm.acquire()
                    began = time.perf_counter()
                    finished = None
                    events: List[dict] = []
                    try:
                        for event in client.submit(batch.specs):
                            events.append(event)
                            if event.get("event") == "done":
                                finished = time.perf_counter()
                    except Exception as error:  # Missing events fail.
                        out.notes.append(f"batch {position}: {error!r}")
                    finally:
                        if warm:
                            one_warm.release()
                    done.append((batch, (finished or time.perf_counter())
                                 - began, events))
                    # Hold one copy of each distinct result, so the
                    # benchmark's memory does not grow with throughput.
                    for event in events:
                        result = event.get("result")
                        if result is not None:
                            kept = distinct_results.setdefault(
                                event["key"], result)
                            if kept == result:
                                event["result"] = kept
            finally:
                # A client that stops releases the others from the
                # next round.
                barrier.abort()

    threads = [threading.Thread(target=drive, args=(i,)) for i in range(JOBS)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(CLIENT_SWITCH_S)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        out.wall = time.perf_counter() - start
        stats = client.stats()
    finally:
        sys.setswitchinterval(switch)
        server.close()
    out.peak_rss_mb = rss.stop()
    distinct = set()
    for done in per_client:
        for batch, latency, events in done:
            out.latencies.append(latency)
            by_index = {
                int(event["index"]): event for event in events
                if event.get("event") == "spec"
            }
            for index, spec in enumerate(batch.specs):
                distinct.add(content_key(spec))
                event = by_index.get(index)
                if event is not None and event.get("status") == "error":
                    out.notes.append(f"server error: {event.get('error')}")
                out.checked.append(
                    (spec, event.get("result") if event else None)
                )
    # Rounds start together on every client, so the k-th round of each
    # client ran at the same time.
    rounds = []
    for done in per_client:
        mine: List[List[float]] = []
        for batch, latency, _ in done:
            if batch.kind != "warm":
                mine.append([0, 0.0])
            mine[-1][0] += len(batch.specs)
            mine[-1][1] += latency
        rounds.append(mine)
    out.rates = [sum(specs / busy for specs, busy in clients)
                 for clients in zip(*rounds)]
    computed = stats["server"]["computed"]
    # Timing-dependent: a shared spec is coalesced or warm depending on
    # which client's request reaches the server first.
    out.mix = {
        kind: stats["server"].get(key, 0) / max(1, len(out.checked))
        for kind, key in (("warm", "warm_hits"), ("computed", "computed"),
                          ("coalesced", "coalesced"))
    }
    if computed != len(distinct):
        out.extra_failures += abs(computed - len(distinct))
        out.notes.append(
            f"server computed {computed} specs for {len(distinct)} distinct"
        )
    if tracer:
        first = {}
        for done in per_client:
            for batch, _, events in done[:prefix]:
                for event in events:
                    if event.get("event") == "spec" and "result" in event:
                        first[event["key"]] = event["result"]
        out.layers = layer_metrics(tracer, out, list(first.values()), 0,
                                   service_stats=stats)
    return out


WORKLOADS = {
    "cold_cell": run_cold_cell,
    "fig9_grid": run_fig9_grid,
    "service_mix": run_service_mix,
}


# -------------------------------------------------------- layer metrics

def layer_metrics(tracer: Tracer, out: Outcome, prefix_results: List,
                  mark: int, service_stats: Optional[dict] = None
                  ) -> Dict[str, float]:
    """Per-layer numbers of a traced run: self times over the whole run,
    exact counts over the first ``COUNT_PREFIX`` operations."""
    spans = tracer.spans
    own = self_times(spans)
    names = {span["id"]: span["name"] for span in spans}
    roots = [s for s in spans if s["parent"] is None
             and str(s["name"]).startswith("bench.")]
    workers = [s for s in spans if s.get("worker") and s["parent"] is None]
    sims = [s for s in spans if s["name"] == "system.sim"]
    traces = [s for s in spans if s["name"] == "workload.trace"]

    def total(name: str) -> float:
        return own.get(name, 0.0)

    def split(fade: bool) -> float:
        return sum((s["t1"] - s["t0"]) / 1e9 for s in sims
                   if s.get("fade") == fade)

    sim_seconds = sum((s["t1"] - s["t0"]) / 1e9 for s in sims)
    sim_cycles = sum(s.get("cycles", 0.0) for s in sims)
    pool = total("api.grid")
    grid_jobs = max((s.get("jobs", 0) for s in spans
                     if s["name"] == "api.grid"), default=0)
    worker_time = sum((s["t1"] - s["t0"]) / 1e9 for s in workers)

    counted = [s for s in spans[:mark] if s["name"] == "system.sim"]

    def count(key: str) -> int:
        return sum(int(s.get(key, 0)) for s in counted)

    dicts = [r if isinstance(r, dict) else r.to_dict()
             for r in prefix_results if r is not None]
    events = sum((d.get("fade_stats") or {}).get("instruction_events", 0)
                 for d in dicts)
    filtered = sum((d.get("fade_stats") or {}).get("filtered", 0)
                   for d in dicts)
    server = (service_stats or {}).get("server") or {}
    store = (service_stats or {}).get("store") or {}
    wall = sum((s["t1"] - s["t0"]) / 1e9 for s in roots)
    p50 = median_and_tail(out.latencies)[0]
    return {
        "workload.trace_s": total("workload.trace"),
        "cores.schedule_s": total("cores.schedule"),
        "system.plan_s": total("system.plan"),
        "system.sim_s": total("system.sim"),
        "system.sim_s.fade": split(True),
        "system.sim_s.unaccel": split(False),
        "system.host_ns_per_cycle": (
            1e9 * sim_seconds / sim_cycles if sim_cycles else 0.0
        ),
        "api.execute_spec_s": total("api.execute_spec"),
        "api.grid.parent_trace_s": sum(
            (s["t1"] - s["t0"]) / 1e9 for s in traces
            if names.get(s["parent"]) == "api.grid"
        ),
        "api.grid.pool_s": pool,
        "api.grid.pool_efficiency": (
            worker_time / (grid_jobs * pool) if pool and grid_jobs else 0.0
        ),
        "service.accept_s": total("service.accept"),
        "service.warm_s": total("service.warm"),
        "service.coalesced_s": total("service.coalesced"),
        "service.computed_s": total("service.computed"),
        "service.request_s": total("service.request"),
        "bench.think_s": total("bench.think"),
        "bench.line_up_s": total("bench.line_up"),
        "api.store.get_s": total("api.store.get"),
        "api.store.put_s": total("api.store.put"),
        "bench.wall_s": wall,
        "bench.unattributed_s": sum(total(name) for name in
                                    {s["name"] for s in roots}),
        "bench.worker_s": worker_time,
        "bench.op_s_p50": p50,
        "system.cycles": sum(d.get("cycles", 0.0) for d in dicts),
        "system.instructions": sum(d.get("instructions", 0) for d in dicts),
        "fade.filtering_ratio": filtered / events if events else 0.0,
        "fade.memo_value_hits": count("memo_value_hits"),
        "fade.memo_gen_hits": count("memo_gen_hits"),
        "fade.memo_misses": count("memo_misses"),
        "system.fused_runs": count("fused_runs"),
        "api.runner_cache.trace_hit_ratio": (
            sum(1 for s in traces if s.get("hit")) / len(traces)
            if traces else 0.0
        ),
        "api.store.hits": store.get("hits", 0),
        "api.store.misses": store.get("misses", 0),
        "service.warm": server.get("warm_hits", 0),
        "service.coalesced": server.get("coalesced", 0),
        "service.computed": server.get("computed", 0),
        "bench.spans": len(spans),
    }

