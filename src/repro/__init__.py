"""FADE: a programmable filtering accelerator for instruction-grain
monitoring — a full-system reproduction of Fytraki et al., HPCA 2014.

Quick start::

    from repro import quick_run

    result = quick_run(benchmark="astar", monitor="memleak", fade=True)
    print(result.summary())

Grids run through :mod:`repro.api`::

    from repro.api import ParallelRunner, spec_grid

    results = ParallelRunner(jobs=4).run(spec_grid(["astar"], ["memleak"]))
    results.save("results.json")

Layers (see DESIGN.md for the full map):

* :mod:`repro.workload` — synthetic SPEC/SPLASH/PARSEC-like traces;
* :mod:`repro.cores` / :mod:`repro.mem` — application-core timing substrate;
* :mod:`repro.monitors` — the five functional bug-finding tools;
* :mod:`repro.fade` — the programmable accelerator (event table, filter
  logic, SUU, Non-Blocking extensions);
* :mod:`repro.system` — the assembled monitoring systems;
* :mod:`repro.api` — declarative RunSpecs, registries, serial/parallel
  runners and serializable ResultSets (the execution layer);
* :mod:`repro.analysis` — one harness per paper table/figure;
* :mod:`repro.power` — 40 nm area/power models.
"""

import time as _time

#: Wall-clock time this package started loading, before any of its
#: modules.  A source file modified later may differ from the code this
#: process runs, so the trace store will not key on its contents.
LOADED_AT = _time.time()

from repro.analysis.experiments import benchmarks_for, run_one
from repro.api import (
    ExperimentSettings,
    ParallelRunner,
    ResultSet,
    ResultStore,
    Runner,
    RunSpec,
    SerialRunner,
    default_runner,
    register_monitor,
    register_profile,
    spec_grid,
)
from repro.cores.base import CoreType
from repro.fade import Fade, FadeConfig, FadeProgram, ProgramBuilder
from repro.monitors import (
    MONITOR_NAMES,
    AddrCheck,
    AtomCheck,
    BugKind,
    BugReport,
    MemCheck,
    MemLeak,
    Monitor,
    TaintCheck,
    create_monitor,
    monitor_names,
)
from repro.system import MonitoringSimulation, RunResult, SystemConfig, Topology, simulate
from repro.system.simulator import simulate_warmed
from repro.workload import (
    BenchmarkProfile,
    Trace,
    TraceGenerator,
    benchmark_names,
    generate_trace,
    get_profile,
)

__version__ = "1.1.0"

__all__ = [
    "AddrCheck",
    "AtomCheck",
    "BenchmarkProfile",
    "BugKind",
    "BugReport",
    "CoreType",
    "ExperimentSettings",
    "Fade",
    "FadeConfig",
    "FadeProgram",
    "MONITOR_NAMES",
    "MemCheck",
    "MemLeak",
    "Monitor",
    "MonitoringSimulation",
    "ParallelRunner",
    "ProgramBuilder",
    "ResultSet",
    "ResultStore",
    "RunResult",
    "RunSpec",
    "Runner",
    "SerialRunner",
    "SystemConfig",
    "TaintCheck",
    "Topology",
    "Trace",
    "TraceGenerator",
    "benchmark_names",
    "benchmarks_for",
    "create_monitor",
    "default_runner",
    "generate_trace",
    "get_profile",
    "monitor_names",
    "quick_run",
    "register_monitor",
    "register_profile",
    "run_one",
    "simulate",
    "simulate_warmed",
    "spec_grid",
]


def quick_run(
    benchmark: str = "astar",
    monitor: str = "memleak",
    fade: bool = True,
    non_blocking: bool = True,
    core: CoreType = CoreType.OOO4,
    topology: Topology = Topology.SINGLE_CORE_SMT,
    num_instructions: int = 20_000,
    seed: int = 7,
    runner: "Runner | None" = None,
) -> RunResult:
    """Generate a trace and simulate one monitoring system end to end.

    A thin veneer over :mod:`repro.api`: the call builds a
    :class:`RunSpec` and executes it on the shared default runner (or the
    one you pass), so traces are cached across repeated calls.  Returns a
    :class:`RunResult` with the slowdown against the unmonitored baseline,
    FADE's filtering statistics, queue occupancies and any bug reports the
    monitor raised.
    """
    spec = RunSpec(
        benchmark=benchmark,
        monitor=monitor,
        config=SystemConfig(
            core_type=core,
            topology=topology,
            fade_enabled=fade,
            non_blocking=non_blocking,
        ),
        settings=ExperimentSettings(num_instructions=num_instructions, seed=seed),
    )
    return (runner if runner is not None else default_runner()).run_one(spec)
