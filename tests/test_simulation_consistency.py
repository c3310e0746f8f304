"""Cross-checks between the timed simulator and pure functional replay.

The timed simulation must be a *scheduling* of the same functional work: the
monitor's final state, reports and per-event handler outcomes cannot depend
on queue sizes, core types or FADE being present (for clean traces where
filtering is sound).
"""

import pytest

from repro.cores import CoreType
from repro.isa.events import MonitoredEvent
from repro.monitors import create_monitor
from repro.system import SystemConfig, simulate
from repro.workload import generate_trace, get_profile
from repro.workload.trace import HighLevelEvent


def functional_replay(monitor_name, trace):
    """The ground-truth software-only execution of a trace."""
    monitor = create_monitor(monitor_name)
    handlers = 0
    for index, item in enumerate(trace):
        if isinstance(item, HighLevelEvent):
            monitor.handle_high_level(item)
            handlers += 1
            continue
        if not monitor.wants(item):
            continue
        event = MonitoredEvent.from_instruction(item, index)
        if event.is_stack_update:
            monitor.handle_stack_update(event.stack_update)
        else:
            monitor.handle_event(event)
        handlers += 1
    return monitor, handlers


@pytest.mark.parametrize("monitor_name,bench", [
    ("addrcheck", "astar"),
    ("memcheck", "gcc"),
    ("taintcheck", "omnetpp"),
    ("memleak", "gobmk"),
    ("atomcheck", "water"),
])
def test_unaccelerated_simulation_matches_functional_replay(monitor_name, bench):
    """Queueing and SMT timing must not change what the monitor computes."""
    profile = get_profile(bench)
    trace = generate_trace(profile, 2500, seed=23)
    reference, reference_handlers = functional_replay(monitor_name, trace)

    monitor = create_monitor(monitor_name)
    result = simulate(trace, monitor, SystemConfig(fade_enabled=False), profile)

    assert monitor.critical_mem.snapshot() == reference.critical_mem.snapshot()
    assert monitor.critical_regs.snapshot() == reference.critical_regs.snapshot()
    assert [str(r) for r in result.reports] == [str(r) for r in reference.reports]
    assert result.handlers_executed == reference_handlers


@pytest.mark.parametrize("monitor_name,bench", [
    ("memcheck", "astar"),
    ("memleak", "astar"),
    ("taintcheck", "bzip"),
])
def test_fade_reaches_the_same_final_state(monitor_name, bench):
    """Filtering (being sound) must not change the final critical metadata
    or the reported bugs relative to software-only execution."""
    profile = get_profile(bench)
    trace = generate_trace(profile, 2500, seed=29)
    reference, _ = functional_replay(monitor_name, trace)

    monitor = create_monitor(monitor_name)
    result = simulate(trace, monitor, SystemConfig(fade_enabled=True), profile)

    assert monitor.critical_mem.snapshot() == reference.critical_mem.snapshot()
    assert [str(r) for r in result.reports] == [str(r) for r in reference.reports]


@pytest.mark.parametrize("core", [CoreType.INORDER, CoreType.OOO2, CoreType.OOO4])
def test_core_type_does_not_change_functional_outcome(core):
    profile = get_profile("astar")
    trace = generate_trace(profile, 2000, seed=31)
    monitor = create_monitor("memleak")
    simulate(trace, monitor, SystemConfig(core_type=core, fade_enabled=True), profile)
    reference, _ = functional_replay("memleak", trace)
    assert monitor.critical_mem.snapshot() == reference.critical_mem.snapshot()


def test_queue_capacity_does_not_change_functional_outcome():
    profile = get_profile("omnetpp")
    trace = generate_trace(profile, 2000, seed=37)
    snapshots = []
    for capacity in (4, 32, None):
        monitor = create_monitor("taintcheck")
        simulate(
            trace, monitor,
            SystemConfig(fade_enabled=True, event_queue_capacity=capacity),
            profile,
        )
        snapshots.append(monitor.critical_mem.snapshot())
    assert snapshots[0] == snapshots[1] == snapshots[2]
