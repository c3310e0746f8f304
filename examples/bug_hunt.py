#!/usr/bin/env python
"""Bug hunt: every monitor catches its bug class, with FADE filtering on.

Builds the five crafted buggy traces from ``repro.workload.bugs`` — a
use-after-free, an uninitialised read, a tainted jump, a memory leak and an
atomicity violation — embeds each after a stretch of clean background
activity, and shows that the responsible monitor reports it even though FADE
is filtering the clean events around it.

Run:  python examples/bug_hunt.py
"""

from repro import SystemConfig, Trace, create_monitor, generate_trace, get_profile, simulate
from repro.workload.bugs import (
    atomicity_violation_trace,
    memory_leak_trace,
    taint_exploit_trace,
    uninitialized_read_trace,
    use_after_free_trace,
)

HUNTS = [
    ("addrcheck", "astar", use_after_free_trace, "use-after-free"),
    ("memcheck", "gcc", uninitialized_read_trace, "uninitialised read"),
    ("taintcheck", "omnetpp", taint_exploit_trace, "tainted jump target"),
    ("memleak", "astar", memory_leak_trace, "memory leak"),
    ("atomcheck", "water", atomicity_violation_trace, "atomicity violation"),
]


def main() -> None:
    print("== Bug hunt: five monitors, five bug classes, FADE enabled ==\n")
    config = SystemConfig(fade_enabled=True, non_blocking=True)

    for monitor_name, background, bug_factory, label in HUNTS:
        # Clean background activity, then the buggy sequence.  Traces are
        # immutable, so splice their items into a new one: drop the early
        # PROGRAM_EXIT (the bug trace carries its own).
        profile = get_profile(background)
        clean = generate_trace(profile, 3_000, seed=21)
        trace = Trace(
            [*clean.items[:-1], *bug_factory()], name=clean.name, seed=clean.seed
        )

        monitor = create_monitor(monitor_name)
        result = simulate(trace, monitor, config, profile)

        caught = [r for r in result.reports]
        print(f"{monitor_name:10s} hunting a {label}:")
        print(f"  filtering stayed at {100 * result.filtering_ratio:.1f}% "
              f"({result.fade_stats.filtered} events elided)")
        if caught:
            for report in caught:
                print(f"  CAUGHT  {report}")
        else:
            print("  MISSED (this should never happen)")
        print()


if __name__ == "__main__":
    main()
