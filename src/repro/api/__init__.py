"""The unified execution layer: declarative specs, pluggable registries,
serial/parallel runners, serializable result sets.

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

from repro.monitors import create_monitor, monitor_names, register_monitor
from repro.workload.profiles import benchmark_names, get_profile, register_profile

from repro.api.cache import LruCache, RunnerCache
from repro.api.results import ResultSet, RunRecord
from repro.api.store import STORE_SCHEMA_VERSION, ResultStore, content_key
from repro.api.runner import (
    ParallelRunner,
    Runner,
    SerialRunner,
    default_runner,
    execute_spec,
    run_specs,
    set_default_runner,
)
from repro.api.spec import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    RunSpec,
    config_from_fields,
    spec_grid,
)
from repro.system.config import CORE_ALIASES, TOPOLOGY_ALIASES

__all__ = [
    "CORE_ALIASES",
    "DEFAULT_SETTINGS",
    "ExperimentSettings",
    "LruCache",
    "ParallelRunner",
    "ResultSet",
    "ResultStore",
    "RunRecord",
    "RunSpec",
    "Runner",
    "RunnerCache",
    "SerialRunner",
    "STORE_SCHEMA_VERSION",
    "TOPOLOGY_ALIASES",
    "benchmark_names",
    "config_from_fields",
    "content_key",
    "create_monitor",
    "default_runner",
    "execute_spec",
    "get_profile",
    "monitor_names",
    "register_monitor",
    "register_profile",
    "run_specs",
    "set_default_runner",
    "spec_grid",
]
