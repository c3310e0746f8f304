"""The unified execution layer: declarative specs, pluggable registries,
one runner (in-process or over a process pool), serializable result sets.

Everything above the simulator — ``quick_run``, the CLI, the per-figure
experiment harnesses and the benchmark suite — executes through this layer.

Typical use::

    from repro.api import ParallelRunner, RunSpec, spec_grid
    from repro.system import SystemConfig

    specs = spec_grid(
        benchmarks=["astar", "mcf"],
        monitors=["memleak"],
        configs=[SystemConfig(fade_enabled=False), SystemConfig()],
    )
    results = ParallelRunner(jobs=4).run(specs)
    results.save("results.json")          # ResultSet.load() restores it
    print(results.filter(fade_enabled=True).geomean("slowdown"))

Extensions plug in without editing core modules::

    from repro.api import register_monitor, register_profile

    register_monitor("ownercheck", OwnerCheck)   # now runnable by name
    register_profile(my_benchmark_profile)       # everywhere, incl. the CLI
"""

import importlib as _importlib

#: Each public name and the module that defines it.  A name is imported on
#: first access, so a process that opens only a result store (the
#: campaign server before its first computation) loads neither the
#: runner nor the simulator.
_EXPORTS = {
    "CORE_ALIASES": "repro.system.config",
    "DEFAULT_SETTINGS": "repro.api.spec",
    "ExperimentSettings": "repro.api.spec",
    "LruCache": "repro.api.cache",
    "ParallelRunner": "repro.api.runner",
    "ResultSet": "repro.api.results",
    "ResultStore": "repro.api.store",
    "RunRecord": "repro.api.results",
    "RunSpec": "repro.api.spec",
    "RunnerCache": "repro.api.cache",
    "STORE_SCHEMA_VERSION": "repro.api.store",
    "TOPOLOGY_ALIASES": "repro.system.config",
    "benchmark_names": "repro.workload.profiles",
    "content_key": "repro.api.store",
    "create_monitor": "repro.monitors",
    "default_runner": "repro.api.runner",
    "execute_spec": "repro.api.runner",
    "get_profile": "repro.workload.profiles",
    "monitor_names": "repro.monitors",
    "register_monitor": "repro.monitors",
    "register_profile": "repro.workload.profiles",
    "run_specs": "repro.api.runner",
    "spec_grid": "repro.api.spec",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    value = getattr(_importlib.import_module(module), name)
    globals()[name] = value  # Later reads skip this hook.
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
