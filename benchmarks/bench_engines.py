"""Event engine against the naive reference stepper on the Figure 9 grid.

    PYTHONPATH=src:. python -m pytest benchmarks/bench_engines.py -q

Runs every Figure 9 cell (each monitor over its suite) at n=3000 under
both engines on one in-process ``ParallelRunner(jobs=1)`` whose traces
and schedules are built before any timing, with the trace store off, so
no cell starts from a stored warm state and both engines time plan,
warmup and engine loop.  The engines take turns over ``ROUNDS`` rounds,
so drift in the machine's speed hits both alike.  Separately on the unaccelerated half and on the
FADE half, the results must be bit-identical and the event engine's best
round no slower than the naive one's.
"""

import time

import pytest

from repro.analysis import ExperimentSettings
from repro.analysis.experiments import benchmarks_for
from repro.api import ParallelRunner, RunnerCache, RunSpec
from repro.monitors import MONITOR_NAMES
from repro.system import SystemConfig

SETTINGS = ExperimentSettings(num_instructions=3000, seed=7)
ROUNDS = 3
#: The event engine must never be slower than the reference it replaces.
MIN_SPEEDUP = 1.0
HALVES = {
    "unaccelerated": dict(fade_enabled=False),
    "fade": dict(fade_enabled=True, non_blocking=True),
}


def grid(engine: str, half: str) -> list:
    config = SystemConfig(engine=engine, **HALVES[half])
    return [RunSpec(benchmark, monitor, config, SETTINGS)
            for monitor in MONITOR_NAMES
            for benchmark in benchmarks_for(monitor)]


@pytest.fixture(scope="module")
def runner() -> ParallelRunner:
    runner = ParallelRunner(1, RunnerCache(persist=False))
    for spec in grid("event", "fade"):
        runner.cache.trace(spec.benchmark, SETTINGS)
        runner.cache.schedule(spec.benchmark, SETTINGS, spec.config.core_type)
    return runner


@pytest.mark.parametrize("half", HALVES)
def test_event_engine_identical_and_not_slower(runner, half):
    best = {"naive": float("inf"), "event": float("inf")}
    outputs = {}
    for round_index in range(ROUNDS):
        order = ("naive", "event") if round_index % 2 else ("event", "naive")
        for engine in order:
            start = time.perf_counter()
            results = runner.run(grid(engine, half))
            best[engine] = min(best[engine], time.perf_counter() - start)
            outputs[engine] = [result.to_dict() for result in results.results]
    assert outputs["event"] == outputs["naive"], f"engines disagree ({half})"
    speedup = best["naive"] / best["event"]
    print(f"{half}: event {best['event']:.3f} s, naive {best['naive']:.3f} s, "
          f"{speedup:.2f}x")
    assert speedup >= MIN_SPEEDUP
