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

import importlib as _importlib

__version__ = "1.1.0"

#: Each public name and the module that defines it.  ``import repro``
#: loads none of them; a name is imported on first access, so a process
#: pays only for the layers it uses (DESIGN.md section 1).
_EXPORTS = {
    "AddrCheck": "repro.monitors",
    "AtomCheck": "repro.monitors",
    "BenchmarkProfile": "repro.workload",
    "BugKind": "repro.monitors",
    "BugReport": "repro.monitors",
    "CoreType": "repro.cores.base",
    "ExperimentSettings": "repro.api",
    "Fade": "repro.fade",
    "FadeConfig": "repro.fade",
    "FadeProgram": "repro.fade",
    "MONITOR_NAMES": "repro.monitors",
    "MemCheck": "repro.monitors",
    "MemLeak": "repro.monitors",
    "Monitor": "repro.monitors",
    "MonitoringSimulation": "repro.system",
    "ParallelRunner": "repro.api",
    "ProgramBuilder": "repro.fade",
    "ResultSet": "repro.api",
    "ResultStore": "repro.api",
    "RunResult": "repro.system",
    "RunSpec": "repro.api",
    "SystemConfig": "repro.system",
    "TaintCheck": "repro.monitors",
    "Topology": "repro.system",
    "Trace": "repro.workload",
    "TraceGenerator": "repro.workload",
    "benchmark_names": "repro.workload",
    "benchmarks_for": "repro.analysis.experiments",
    "create_monitor": "repro.monitors",
    "default_runner": "repro.api",
    "generate_trace": "repro.workload",
    "get_profile": "repro.workload",
    "monitor_names": "repro.monitors",
    "quick_run": "repro.analysis.experiments",
    "register_monitor": "repro.api",
    "register_profile": "repro.api",
    "run_one": "repro.analysis.experiments",
    "simulate": "repro.system",
    "simulate_warmed": "repro.system.simulator",
    "spec_grid": "repro.api",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(_importlib.import_module(module), name)
    globals()[name] = value  # Later reads skip this hook.
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
