"""Perf-core regression bench: event-driven engine versus the naive stepper.

Runs the Figure 9 grid (every monitor over its suite, unaccelerated and
FADE-accelerated) once per engine on a shared pre-warmed runner cache,
checks that the two engines produce bit-identical results, and writes
``BENCH_perf.json`` (wall seconds, cells/sec, simulated cycles/sec, and the
event-vs-naive speedup) so the simulator core's performance trajectory is
recorded per commit.

The ``parallel_grid`` section runs the same 66-cell fig9 grid through
``ParallelRunner(jobs=2)`` — cold pool, trace-grouped chunks, workers
synthesizing their own traces — and records the median of the rounds; it
is checked bit-identical to the serial event-engine results.

The ``trace_synthesis`` section records trace-generation throughput
(trace items per second over the fig9 benchmarks, best of the rounds), the
front-end number the regression check gates next to the engine's
cycles/sec.  The ``warmup`` section records the functional warmup
(``MonitoringSimulation._run_warmup``) summed over the fig9 cells, best of
the rounds: every cell starts by registering its static segment, so a range
metadata operation that regresses to per-word cost shows up here first.

Every section above runs with the trace store off
(``REPRO_TRACE_STORE=off``), so they keep measuring trace synthesis.  The
``front_end_store`` section measures the store itself: two fresh
``repro run --benchmark gcc --monitor memcheck -n 100000`` processes
against an empty store, the first synthesizing and writing the trace and
schedule (``miss_seconds``), the second loading them (``hit_seconds``);
their outputs must be identical.  ``hit_runs_per_sec`` is the number the
regression check gates.

Alongside the engine comparison the payload records the functional-work
profile of a *cold* grid (packed-trace generation versus retire-schedule +
kind-table building versus simulation, measured on a fresh runner) and
the cold-versus-warm wall-clock of the same grid through a fresh
content-addressed :class:`~repro.api.ResultStore` (the warm run serves
every cell from disk and is checked bit-identical to the cold run).

Runnable both as a script (the CI perf smoke job does
``PYTHONPATH=src python benchmarks/bench_perf_core.py``; exits non-zero if
the engines disagree or the event engine is slower than naive) and under
pytest (``pytest benchmarks/bench_perf_core.py``).

Environment knobs:

* ``REPRO_BENCH_PERF_INSTRUCTIONS`` — trace length per cell (default: the
  shared bench scale; CI's smoke job uses a tiny grid).
* ``REPRO_BENCH_PERF_ROUNDS`` — timing rounds per engine; the best round
  counts (default 2, damping scheduler noise).
* ``REPRO_BENCH_PERF_MIN_SPEEDUP`` — fail below this event/naive wall-clock
  ratio (default 1.0: the event engine must never be slower).
* ``REPRO_BENCH_PERF_MIN_FADE_SPEEDUP`` — fail below this event/naive
  engine-loop ratio on the FADE-active split (default 1.0).
* ``REPRO_BENCH_PROFILE`` — cProfile the timed region (top-20 cumulative).

The ``fade_active`` payload section isolates the engine loop on the
FADE-accelerated half of the grid (warmup untimed), where the filter memo
concentrates, and records the memo hit rate alongside the cycles/sec
comparison.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import contextlib
import os
import pathlib
import subprocess
import sys
import tempfile
import time

_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:  # Script mode: make `benchmarks.common` importable.
    sys.path.insert(0, str(_ROOT))

from benchmarks.common import BENCH_SETTINGS, maybe_profile, record
from repro.analysis import ExperimentSettings
from repro.analysis.experiments import benchmarks_for
from repro.api import ParallelRunner, ResultStore, RunSpec, SerialRunner
from repro.api.runner import build_simulation
from repro.cores.base import CoreType
from repro.monitors import MONITOR_NAMES, create_monitor
from repro.system import SystemConfig
from repro.system.simulator import MonitoringSimulation
from repro.workload import generate_trace, get_profile

BENCH_JSON = _ROOT / "BENCH_perf.json"


def _fig9_specs(engine: str, settings: ExperimentSettings) -> list:
    configs = (
        SystemConfig(fade_enabled=False, engine=engine),
        SystemConfig(fade_enabled=True, non_blocking=True, engine=engine),
    )
    return [
        RunSpec(benchmark, monitor, config, settings)
        for monitor in MONITOR_NAMES
        for benchmark in benchmarks_for(monitor)
        for config in configs
    ]


def _inorder_specs(engine: str, settings: ExperimentSettings) -> list:
    """Monitor-bound companion grid: unaccelerated in-order cells, where
    handler grinding dominates and cycle-skipping pays the most."""
    config = SystemConfig(
        core_type=CoreType.INORDER, fade_enabled=False, engine=engine
    )
    return [
        RunSpec(benchmark, monitor, config, settings)
        for monitor in MONITOR_NAMES
        for benchmark in benchmarks_for(monitor)
    ]


def _measure_fade_active(settings: ExperimentSettings, rounds: int) -> dict:
    """Event-vs-naive engine timing on the FADE-accelerated half of the
    fig9 grid — the cells the filter memo accelerates.

    Traces, schedules and kind tables come from a shared cache and the
    functional warmup runs untimed, so ``cycles_per_sec`` measures the
    simulation engine loop itself.  Handler events are memoized on the
    shared traces, so only the first leg's first round builds them inside
    its timed loop, which best-of-rounds leaves out (with two or more
    rounds).  Alongside the timings the payload records the
    filter-memo hit rates of the event engine (diagnostic: results are
    bit-identical either way, which is re-checked here).
    """
    runner = SerialRunner()
    cells = [
        (monitor, benchmark)
        for monitor in MONITOR_NAMES
        for benchmark in benchmarks_for(monitor)
    ]
    core = SystemConfig().core_type
    for monitor, benchmark in cells:
        runner.cache.trace(benchmark, settings)
        runner.cache.schedule(benchmark, settings, core)
        runner.cache.plan(benchmark, settings, monitor)

    engine_legs = ("naive", "event")
    best = {engine: float("inf") for engine in engine_legs}
    outputs = {}
    cycles = {}
    memo = {"value_hits": 0, "misses": 0}
    # Rounds interleave the engines A/B so machine drift hits both alike.
    for round_index in range(max(1, rounds)):
        for engine in engine_legs:
            sims = []
            for monitor_name, benchmark in cells:
                trace = runner.cache.trace(benchmark, settings)
                sim = MonitoringSimulation(
                    trace,
                    create_monitor(monitor_name),
                    SystemConfig(
                        fade_enabled=True, non_blocking=True, engine=engine
                    ),
                    get_profile(benchmark),
                    warmup_items=int(len(trace.items) * 0.5),
                    schedule=runner.cache.schedule(benchmark, settings, core),
                    plan=runner.cache.plan(benchmark, settings, monitor_name),
                )
                sim._run_warmup()
                sims.append(sim)
            gc.collect()
            start = time.perf_counter()
            if engine == "naive":
                for sim in sims:
                    sim._run_naive()
            else:
                for sim in sims:
                    sim._run_event()
            best[engine] = min(best[engine], time.perf_counter() - start)
            results = [sim._finalize() for sim in sims]
            cycles[engine] = sum(result.cycles for result in results)
            outputs[engine] = [result.to_dict() for result in results]
            if engine == "event" and round_index == 0:
                for sim in sims:
                    pipeline = sim.fade.pipeline
                    memo["value_hits"] += pipeline.memo_value_hits
                    memo["misses"] += pipeline.memo_misses
    engines = {
        engine: {
            "seconds": best[engine],
            "cells": len(cells),
            "cells_per_sec": len(cells) / best[engine],
            "cycles_simulated": cycles[engine],
            "cycles_per_sec": cycles[engine] / best[engine],
        }
        for engine in engine_legs
    }
    lookups = memo["value_hits"] + memo["misses"]
    return {
        "cells": len(cells),
        "engines": engines,
        "speedup_event_vs_naive": (
            engines["naive"]["seconds"] / engines["event"]["seconds"]
        ),
        "bit_identical": outputs["event"] == outputs["naive"],
        "filter_memo": {
            **memo,
            "hit_rate": (
                memo["value_hits"] / lookups
                if lookups
                else 0.0
            ),
        },
    }


def _measure_parallel_grid(
    settings: ExperimentSettings, rounds: int, reference: list
) -> dict:
    """The fig9 grid through ``ParallelRunner(jobs=2)``, median of rounds.

    Every round uses a fresh runner (cold parent cache, new pool), so the
    time covers pool start-up, chunk dispatch and each worker synthesizing
    the traces of its chunks — the path ``perfbench``'s ``fig9_grid``
    workload measures.  ``reference`` is the serial event engine's
    serialized results for the same grid; the parallel results must match
    it."""
    specs = _fig9_specs("event", settings)
    jobs = 2
    seconds = []
    outputs = None
    for _ in range(max(3, rounds)):
        gc.collect()
        start = time.perf_counter()
        results = ParallelRunner(jobs=jobs).run(specs)
        seconds.append(time.perf_counter() - start)
        outputs = [result.to_dict() for result in results.results]
    median = sorted(seconds)[len(seconds) // 2]
    return {
        "cells": len(specs),
        "jobs": jobs,
        "rounds_seconds": seconds,
        "seconds": median,
        "cells_per_sec": len(specs) / median,
        "bit_identical": outputs == reference,
    }


def _measure_functional_split(settings: ExperimentSettings) -> dict:
    """Cold fig9-grid profile on a fresh runner: packed-trace generation,
    schedule + kind-table building, then simulation."""
    specs = _fig9_specs("event", settings)
    runner = SerialRunner()
    start = time.perf_counter()
    for spec in specs:
        runner.cache.trace(spec.benchmark, settings)
    trace_gen = time.perf_counter() - start
    start = time.perf_counter()
    for spec in specs:
        runner.cache.schedule(spec.benchmark, settings, spec.config.core_type)
        runner.cache.plan(spec.benchmark, settings, spec.monitor)
    schedule_plan = time.perf_counter() - start
    start = time.perf_counter()
    runner.run(specs)
    simulation = time.perf_counter() - start
    total = trace_gen + schedule_plan + simulation
    return {
        "cells": len(specs),
        "trace_gen_seconds": trace_gen,
        "schedule_plan_seconds": schedule_plan,
        "simulation_seconds": simulation,
        "cold_total_seconds": total,
        "functional_fraction": (trace_gen + schedule_plan) / total,
    }


def _measure_trace_synthesis(settings: ExperimentSettings, rounds: int) -> dict:
    """Trace-generation throughput over the fig9 grid's benchmarks.

    Every distinct fig9 benchmark's trace is synthesized from scratch each
    round (no cache); the best round counts.  ``items_per_sec`` counts
    every trace item (instructions and high-level events) and is the
    number ``check_perf_regression.py`` gates, so the front end rides the
    same regression check as the engine loop."""
    benchmarks = sorted({spec.benchmark for spec in _fig9_specs("event", settings)})
    best = float("inf")
    items = 0
    for _ in range(max(1, rounds)):
        start = time.perf_counter()
        items = sum(
            len(generate_trace(get_profile(name), settings.num_instructions,
                               seed=settings.seed))
            for name in benchmarks
        )
        best = min(best, time.perf_counter() - start)
    return {
        "benchmarks": len(benchmarks),
        "items": items,
        "seconds": best,
        "items_per_sec": items / best,
    }


def _measure_warmup(settings: ExperimentSettings, rounds: int) -> dict:
    """Functional-warmup seconds over the fig9 grid, best of the rounds.

    Each simulation is built untimed from a shared cache (traces, schedules
    and plans are computed once), so ``seconds`` is the sum of the cells'
    ``_run_warmup`` calls alone; ``cells_per_sec`` is the rate
    ``check_perf_regression.py`` gates."""
    specs = _fig9_specs("event", settings)
    cache = SerialRunner().cache
    best = float("inf")
    for _ in range(max(1, rounds)):
        seconds = 0.0
        for spec in specs:
            sim = build_simulation(spec, cache)
            start = time.perf_counter()
            sim._run_warmup()
            seconds += time.perf_counter() - start
        best = min(best, seconds)
    return {
        "cells": len(specs),
        "seconds": best,
        "cells_per_sec": len(specs) / best,
    }


def _measure_store(settings: ExperimentSettings) -> dict:
    """Cold versus warm fig9 grid through a fresh ResultStore.

    Cold pays generation + simulation + store writes; warm serves every
    cell from disk.  The two ResultSets must be identical (store hits are
    bit-identical to recomputation)."""
    specs = _fig9_specs("event", settings)
    with tempfile.TemporaryDirectory(prefix="repro-store-bench-") as tmp:
        cold_store = ResultStore(tmp)
        start = time.perf_counter()
        cold = SerialRunner(store=cold_store).run(specs)
        cold_seconds = time.perf_counter() - start
        warm_store = ResultStore(tmp)
        start = time.perf_counter()
        warm = SerialRunner(store=warm_store).run(specs)
        warm_seconds = time.perf_counter() - start
        return {
            "cells": len(specs),
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "warm_speedup": cold_seconds / warm_seconds,
            "warm_hits": warm_store.hits,
            "bit_identical": cold == warm,
        }


#: The ``front_end_store`` section's command: one large cold cell.
_FRONT_END_RUN = ("run", "--benchmark", "gcc", "--monitor", "memcheck",
                  "-n", "100000")


@contextlib.contextmanager
def _trace_store(value: str):
    """Set ``REPRO_TRACE_STORE`` for this process and the pool workers and
    subprocesses it starts, restoring the previous value afterwards."""
    previous = os.environ.get("REPRO_TRACE_STORE")
    os.environ["REPRO_TRACE_STORE"] = value
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_TRACE_STORE"]
        else:
            os.environ["REPRO_TRACE_STORE"] = previous


def _measure_front_end_store(rounds: int) -> dict:
    """A fresh ``repro run`` process that misses the trace store, then one
    that hits it, each round against a new empty store; best of rounds.

    The miss synthesizes the trace and schedule and writes them; the hit
    loads them.  Both processes must print identical output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(_ROOT / "src"), os.environ.get("PYTHONPATH")])
    ))
    command = [sys.executable, "-m", "repro", *_FRONT_END_RUN]
    miss = hit = float("inf")
    identical = True
    blobs = size = 0
    for _ in range(max(1, rounds)):
        with tempfile.TemporaryDirectory(prefix="repro-trace-bench-") as tmp:
            env["REPRO_TRACE_STORE"] = tmp
            outputs = []
            for leg in ("miss", "hit"):
                start = time.perf_counter()
                completed = subprocess.run(
                    command, env=env, check=True, capture_output=True,
                    text=True,
                )
                seconds = time.perf_counter() - start
                outputs.append(completed.stdout)
                if leg == "miss":
                    miss = min(miss, seconds)
                else:
                    hit = min(hit, seconds)
            identical = identical and outputs[0] == outputs[1]
            files = list(pathlib.Path(tmp).glob("*/??/*.blob"))
            blobs = len(files)
            size = sum(path.stat().st_size for path in files)
    return {
        "command": " ".join(("repro",) + _FRONT_END_RUN),
        "miss_seconds": miss,
        "hit_seconds": hit,
        "hit_speedup": miss / hit,
        "hit_runs_per_sec": 1.0 / hit,
        "store_blobs": blobs,
        "store_bytes": size,
        "bit_identical": identical,
    }


def run_perf_core(num_instructions: int = 0, rounds: int = 0) -> dict:
    """Time the fig9 grid under both engines; returns (and persists) the
    ``BENCH_perf.json`` payload."""
    if num_instructions <= 0:
        raw = os.environ.get("REPRO_BENCH_PERF_INSTRUCTIONS", "")
        num_instructions = int(raw) if raw else 0
        if num_instructions <= 0:
            num_instructions = BENCH_SETTINGS.num_instructions
    if rounds <= 0:
        rounds = int(os.environ.get("REPRO_BENCH_PERF_ROUNDS", "2"))
    settings = dataclasses.replace(BENCH_SETTINGS, num_instructions=num_instructions)
    front_end_store = _measure_front_end_store(rounds)
    with _trace_store("off"):
        payload = _run_store_off_sections(settings, rounds)
    payload["front_end_store"] = front_end_store
    payload["bit_identical"] = (
        payload["bit_identical"] and front_end_store["bit_identical"]
    )
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _run_store_off_sections(settings: ExperimentSettings, rounds: int) -> dict:
    """Every section that measures synthesis, engines and stores."""
    functional = _measure_functional_split(settings)
    trace_synthesis = _measure_trace_synthesis(settings, rounds)
    warmup = _measure_warmup(settings, rounds)
    store = _measure_store(settings)
    runner = SerialRunner()
    # Pre-warm traces, schedules and plans so both engines time simulation,
    # not workload synthesis.
    for spec in _fig9_specs("event", settings) + _inorder_specs("event", settings):
        runner.cache.trace(spec.benchmark, settings)
        runner.cache.schedule(spec.benchmark, settings, spec.config.core_type)
        runner.cache.plan(spec.benchmark, settings, spec.monitor)

    def measure(make_specs, label):
        engines = {}
        outputs = {}
        for engine in ("naive", "event"):
            specs = make_specs(engine, settings)
            best = float("inf")
            results = None
            with maybe_profile(f"perf_core[{label}/{engine}]"):
                for _ in range(max(1, rounds)):
                    start = time.perf_counter()
                    results = runner.run(specs)
                    best = min(best, time.perf_counter() - start)
            cycles = sum(result.cycles for result in results.results)
            engines[engine] = {
                "seconds": best,
                "cells": len(specs),
                "cells_per_sec": len(specs) / best,
                "cycles_simulated": cycles,
                "cycles_per_sec": cycles / best,
            }
            outputs[engine] = [result.to_dict() for result in results.results]
        return {
            "engines": engines,
            "speedup_event_vs_naive": (
                engines["naive"]["seconds"] / engines["event"]["seconds"]
            ),
            "bit_identical": outputs["naive"] == outputs["event"],
        }, outputs["event"]

    fig9, fig9_event_outputs = measure(_fig9_specs, "fig9")
    inorder, _ = measure(_inorder_specs, "inorder-unaccel")
    parallel_grid = _measure_parallel_grid(settings, rounds, fig9_event_outputs)
    fade_active = _measure_fade_active(settings, rounds)
    payload = {
        "bench": "perf_core",
        "grid": "fig9",
        "num_instructions": settings.num_instructions,
        "rounds": rounds,
        "engines": fig9["engines"],
        "speedup_event_vs_naive": fig9["speedup_event_vs_naive"],
        "bit_identical": (
            fig9["bit_identical"]
            and inorder["bit_identical"]
            and store["bit_identical"]
            and fade_active["bit_identical"]
            and parallel_grid["bit_identical"]
        ),
        "inorder_unaccelerated": inorder,
        "fade_active": fade_active,
        "parallel_grid": parallel_grid,
        "functional": functional,
        "trace_synthesis": trace_synthesis,
        "warmup": warmup,
        "result_store": store,
    }
    return payload


def test_perf_core_event_engine():
    """Pytest entry: engines agree bit-for-bit and event is not slower."""
    raw = os.environ.get("REPRO_BENCH_PERF_INSTRUCTIONS", "")
    payload = run_perf_core(num_instructions=int(raw) if raw else 3000)
    assert payload["bit_identical"], "engines disagree on the fig9 grid"
    minimum = float(os.environ.get("REPRO_BENCH_PERF_MIN_SPEEDUP", "1.0"))
    assert payload["speedup_event_vs_naive"] >= minimum
    fade_minimum = float(
        os.environ.get("REPRO_BENCH_PERF_MIN_FADE_SPEEDUP", "1.0")
    )
    assert payload["fade_active"]["speedup_event_vs_naive"] >= fade_minimum


def main() -> int:
    payload = run_perf_core()
    text = json.dumps(payload, indent=2)
    record("bench_perf_core", text)
    if not payload["bit_identical"]:
        print("FAIL: event and naive engines disagree", file=sys.stderr)
        return 1
    minimum = float(os.environ.get("REPRO_BENCH_PERF_MIN_SPEEDUP", "1.0"))
    speedup = payload["speedup_event_vs_naive"]
    if speedup < minimum:
        print(
            f"FAIL: event engine speedup {speedup:.2f}x below minimum {minimum:.2f}x",
            file=sys.stderr,
        )
        return 1
    fade = payload["fade_active"]
    fade_minimum = float(
        os.environ.get("REPRO_BENCH_PERF_MIN_FADE_SPEEDUP", "1.0")
    )
    if fade["speedup_event_vs_naive"] < fade_minimum:
        print(
            f"FAIL: fade-active engine speedup "
            f"{fade['speedup_event_vs_naive']:.2f}x below minimum "
            f"{fade_minimum:.2f}x",
            file=sys.stderr,
        )
        return 1
    functional = payload["functional"]
    store = payload["result_store"]
    parallel_grid = payload["parallel_grid"]
    front_end = payload["front_end_store"]
    print(
        f"[BENCH_perf.json written: event engine {speedup:.2f}x vs naive "
        f"(fade-active {fade['speedup_event_vs_naive']:.2f}x, "
        f"memo hit rate {100 * fade['filter_memo']['hit_rate']:.0f}%); "
        f"parallel fig9 grid {parallel_grid['cells_per_sec']:.1f} cells/s "
        f"(jobs={parallel_grid['jobs']}, median); "
        f"trace synthesis "
        f"{payload['trace_synthesis']['items_per_sec']:,.0f} items/s; "
        f"warmup {payload['warmup']['seconds']:.2f}s over "
        f"{payload['warmup']['cells']} cells; "
        f"trace store miss/hit {front_end['miss_seconds']:.2f}/"
        f"{front_end['hit_seconds']:.2f}s per `repro run`; "
        f"cold grid {functional['cold_total_seconds']:.2f}s "
        f"({100 * functional['functional_fraction']:.0f}% functional); "
        f"warm result-store rerun {store['warm_speedup']:.0f}x]"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
