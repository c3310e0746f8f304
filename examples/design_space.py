#!/usr/bin/env python
"""Design-space exploration: core types, topologies, queue and cache sizing.

Sweeps the main design axes of the paper's evaluation for one monitor and
prints a compact comparison table — the kind of study a deployment would run
before committing to a configuration.

The whole study is a declarative :class:`repro.api.RunSpec` grid executed
through one runner: pass a worker count to fan it out over processes, and
the raw results are saved as JSON so later invocations (or other tools) can
re-aggregate without resimulating.

Run:  python examples/design_space.py [jobs]
"""

from __future__ import annotations

import sys

from repro import CoreType, SystemConfig, Topology
from repro.analysis import format_table
from repro.api import ExperimentSettings, ParallelRunner, ResultSet, RunSpec
from repro.fade.md_cache import MetadataCacheConfig

BENCHMARK = "omnetpp"
MONITOR = "memleak"
SETTINGS = ExperimentSettings(num_instructions=16_000, seed=3)
RESULTS_PATH = "design_space_results.json"


def build_grid() -> list:
    """Every cell of the study as one flat, declarative spec list."""
    specs = []
    for core in (CoreType.INORDER, CoreType.OOO2, CoreType.OOO4):
        for fade_on in (False, True):
            specs.append(SystemConfig(core_type=core, fade_enabled=fade_on))
    for topology in (Topology.SINGLE_CORE_SMT, Topology.TWO_CORE):
        for non_blocking in (False, True):
            specs.append(
                SystemConfig(
                    topology=topology, fade_enabled=True, non_blocking=non_blocking
                )
            )
    for event_capacity in (8, 32, 128):
        specs.append(
            SystemConfig(fade_enabled=True, event_queue_capacity=event_capacity)
        )
    for size_kb in (1, 4, 16):
        specs.append(
            SystemConfig(
                fade_enabled=True,
                md_cache=MetadataCacheConfig(size_bytes=size_kb * 1024),
            )
        )
    return [RunSpec(BENCHMARK, MONITOR, config, SETTINGS) for config in specs]


def main() -> None:
    jobs = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    runner = ParallelRunner(jobs=jobs)
    print(f"== Design space for {MONITOR} on {BENCHMARK} "
          f"({'in-process' if jobs == 1 else f'{jobs} workers'}) ==\n")

    results = runner.run(build_grid())

    def cell(**config_kwargs):
        return results.find(
            RunSpec(BENCHMARK, MONITOR, SystemConfig(**config_kwargs), SETTINGS)
        )

    rows = []
    for core in (CoreType.INORDER, CoreType.OOO2, CoreType.OOO4):
        for fade_on in (False, True):
            result = cell(core_type=core, fade_enabled=fade_on)
            rows.append(
                [core.value, "FADE" if fade_on else "unaccel", result.slowdown]
            )
    print(format_table(["core", "system", "slowdown"], rows,
                       "Core microarchitecture (Figure 10 axis)"))

    rows = []
    for topology in (Topology.SINGLE_CORE_SMT, Topology.TWO_CORE):
        for non_blocking in (False, True):
            result = cell(
                topology=topology, fade_enabled=True, non_blocking=non_blocking
            )
            rows.append(
                [topology.value,
                 "non-blocking" if non_blocking else "blocking",
                 result.slowdown]
            )
    print()
    print(format_table(["topology", "filtering", "slowdown"], rows,
                       "Topology x Non-Blocking (Figure 11 axes)"))

    rows = []
    for event_capacity in (8, 32, 128):
        result = cell(fade_enabled=True, event_queue_capacity=event_capacity)
        occupancy = result.event_queue_stats.max_occupancy
        rows.append([event_capacity, occupancy, result.slowdown])
    print()
    print(format_table(["event queue", "peak occupancy", "slowdown"], rows,
                       "Event-queue sizing (Figure 3 axis)"))

    rows = []
    for size_kb in (1, 4, 16):
        result = cell(
            fade_enabled=True,
            md_cache=MetadataCacheConfig(size_bytes=size_kb * 1024),
        )
        stats = result.fade_stats
        rows.append([f"{size_kb} KB", stats.tlb_misses, result.slowdown])
    print()
    print(format_table(["MD cache", "M-TLB misses", "slowdown"], rows,
                       "MD cache sizing (Section 6 sensitivity)"))

    saved = results.save(RESULTS_PATH)
    reloaded = ResultSet.load(saved)
    assert reloaded == results
    print(f"\n[{len(results)} results saved to {saved}; "
          f"ResultSet.load() restores an equal set]")


if __name__ == "__main__":
    main()
