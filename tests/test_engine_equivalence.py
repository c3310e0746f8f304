"""Bit-identity of the event engine against the naive stepper.

The event engine (``SystemConfig.engine="event"``, the default) must
reproduce the reference one-cycle-per-iteration stepper *exactly* — the
whole serialized :class:`RunResult`, including queue occupancy histograms,
rejection counts, the cycle breakdown, FADE wait/drain counters and bug
reports — because it only jumps across provably quiet intervals and runs
every active cycle as an inlined copy of the reference cycle.
"""

import dataclasses
import functools

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.cores import CoreType
from repro.isa.events import MonitoredEvent
from repro.isa.instruction import Instruction
from repro.monitors import MONITOR_NAMES, create_monitor
from repro.system import SystemConfig, Topology, simulate
from repro.system.simulator import (
    INSTRUCTION_EVENT,
    MonitoringSimulation,
    simulate_warmed,
)
from repro.workload import generate_trace, get_profile
from repro.workload.packed import event_fields


@functools.lru_cache(maxsize=None)
def cached_trace(benchmark, n=1500, seed=11):
    return generate_trace(get_profile(benchmark), n, seed=seed)


def bench_for(monitor_name):
    return "water" if monitor_name == "atomcheck" else "astar"


ENGINES = ("naive", "event")


def run_engines(
    monitor_name, benchmark, n=1500, seed=11, warmup=0.0,
    engines=ENGINES, **config_kwargs
):
    profile = get_profile(benchmark)
    trace = cached_trace(benchmark, n, seed)
    results = {}
    for engine in engines:
        config = SystemConfig(engine=engine, **config_kwargs)
        monitor = create_monitor(monitor_name)
        if warmup:
            result = simulate_warmed(
                trace, monitor, config, profile, warmup_fraction=warmup
            )
        else:
            result = simulate(trace, monitor, config, profile)
        results[engine] = result
    return results


def assert_engines_identical(results):
    reference = results["naive"].to_dict()
    for engine, result in results.items():
        assert result.to_dict() == reference, f"engine {engine!r} diverges"


def run_both(monitor_name, benchmark, **kwargs):
    results = run_engines(monitor_name, benchmark, **kwargs)
    return results["naive"], results["event"]


MODES = [
    pytest.param({"fade_enabled": False}, id="unaccelerated"),
    pytest.param({"fade_enabled": True, "non_blocking": False}, id="blocking-fade"),
    pytest.param({"fade_enabled": True, "non_blocking": True}, id="non-blocking-fade"),
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "topology", [Topology.SINGLE_CORE_SMT, Topology.TWO_CORE],
    ids=["smt", "two-core"],
)
@pytest.mark.parametrize("monitor_name", MONITOR_NAMES)
def test_engines_bit_identical(monitor_name, topology, mode):
    """Monitors x topologies x blocking modes: full RunResult equality.

    The event engine runs with the filter memo enabled, the naive
    reference with it disabled, so this matrix proves the memoized event
    loop bit-identical to truly inline walks.
    """
    naive, event = run_both(
        monitor_name, bench_for(monitor_name), topology=topology, **mode
    )
    assert naive.to_dict() == event.to_dict()


# ------------------------------------------------ backpressure x memo


@pytest.mark.parametrize(
    "config_kwargs",
    [
        pytest.param(
            {"fade_enabled": True, "event_queue_capacity": 2},
            id="saturated-event-queue",
        ),
        pytest.param(
            {
                "fade_enabled": True,
                "topology": Topology.TWO_CORE,
                "event_queue_capacity": 4,
                "unfiltered_queue_capacity": 2,
            },
            id="two-core-tight-queues",
        ),
        pytest.param(
            {
                "fade_enabled": True,
                "non_blocking": False,
                "event_queue_capacity": 4,
            },
            id="blocking-backpressure",
        ),
        pytest.param(
            {"fade_enabled": True, "burst_gap_threshold": 1},
            id="tiny-burst-gap",
        ),
    ],
)
@pytest.mark.parametrize("monitor_name", ["memcheck", "atomcheck", "memleak"])
def test_burst_drain_memo_corners(monitor_name, config_kwargs):
    """Backpressure, blocking and burst-tracking corners of the event
    loop: blocked-application jumps, freeze/retry cycles, unfiltered
    continuation after filtered runs, gap accounting."""
    naive, event = run_both(
        monitor_name, bench_for(monitor_name), **config_kwargs
    )
    assert naive.to_dict() == event.to_dict()


@pytest.mark.parametrize(
    "config_kwargs",
    [
        pytest.param(
            {"fade_enabled": True, "non_blocking": False,
             "unfiltered_queue_capacity": 1},
            id="blocking-wait-single-slot",
        ),
        pytest.param(
            {"fade_enabled": True, "event_queue_capacity": 3,
             "unfiltered_queue_capacity": 2},
            id="drain-under-backpressure",
        ),
        pytest.param(
            {"fade_enabled": True, "topology": Topology.TWO_CORE,
             "fsq_capacity": 1},
            id="two-core-fsq-of-one",
        ),
    ],
)
@pytest.mark.parametrize("monitor_name", ["memleak", "addrcheck", "memcheck"])
def test_stack_update_drain_corners(monitor_name, config_kwargs):
    """Call-heavy gcc: SUU drains before every stack update, blocking
    waits on each unfiltered handler, and backpressured retirements
    interleave with the event loop's jumps."""
    naive, event = run_both(monitor_name, "gcc", warmup=0.25, **config_kwargs)
    assert naive.to_dict() == event.to_dict()
    assert naive.fade_drain_cycles + naive.fade_wait_cycles > 0


def test_force_inline_event_engine_matches(monkeypatch):
    """REPRO_FORCE_INLINE_FADE=1 disables the filter memo; the event engine
    must still match both the naive reference and its own memoized results
    (the CI fallback-rot check)."""
    memo_naive, memo_event = run_both("memcheck", "astar", fade_enabled=True)
    monkeypatch.setenv("REPRO_FORCE_INLINE_FADE", "1")
    inline_naive, inline_event = run_both(
        "memcheck", "astar", fade_enabled=True
    )
    assert inline_event.to_dict() == inline_naive.to_dict()
    assert inline_event.to_dict() == memo_event.to_dict()
    assert memo_naive.to_dict() == memo_event.to_dict()


@pytest.mark.parametrize(
    "config_kwargs",
    [
        pytest.param(
            {"core_type": CoreType.INORDER, "fade_enabled": False},
            id="inorder-unaccelerated",
        ),
        pytest.param(
            {"core_type": CoreType.OOO2, "fade_enabled": True}, id="ooo2-fade"
        ),
        pytest.param(
            {
                "fade_enabled": True,
                "event_queue_capacity": 4,
                "unfiltered_queue_capacity": 2,
            },
            id="tight-queues",
        ),
        pytest.param(
            {"fade_enabled": True, "event_queue_capacity": None},
            id="infinite-queue",
        ),
        pytest.param(
            {"fade_enabled": True, "stack_update_drain": False}, id="no-drain"
        ),
        pytest.param(
            {"fade_enabled": True, "sample_queue_occupancy": False},
            id="no-sampling",
        ),
        pytest.param(
            {"fade_enabled": True, "non_blocking": False, "fsq_capacity": 4},
            id="blocking-small-fsq",
        ),
    ],
)
def test_engines_bit_identical_config_corners(config_kwargs):
    """Backpressure-heavy and ablation configurations (gcc is call-heavy,
    exercising the SUU drain and blocked-application paths)."""
    naive, event = run_both("memleak", "gcc", **config_kwargs)
    assert naive.to_dict() == event.to_dict()


def test_engines_agree_on_cycle_limit():
    """Every engine raises the cycle-limit error for the same configuration."""
    for engine in ENGINES:
        config = SystemConfig(fade_enabled=False, max_cycles=50, engine=engine)
        with pytest.raises(SimulationError):
            simulate(
                cached_trace("astar"),
                create_monitor("memcheck"),
                config,
                get_profile("astar"),
            )


def _states_at_cycle_limit(**config_kwargs):
    """Each engine's :func:`_loop_state` after a run stopped at cycle 700."""
    states = {}
    for engine in ENGINES:
        sim = MonitoringSimulation(
            cached_trace("gcc"),
            create_monitor("memleak"),
            SystemConfig(max_cycles=700, engine=engine, **config_kwargs),
            get_profile("gcc"),
        )
        with pytest.raises(SimulationError):
            sim.run()
        assert sim._now == 700
        states[engine] = _loop_state(sim)
    return states


@pytest.mark.parametrize("fade_enabled", [False, True])
def test_cycle_limit_flushes_identical_state(fade_enabled):
    """The event loop writes its locals back before raising the cycle-limit
    error: the aborted simulation's state equals the naive stepper's."""
    states = _states_at_cycle_limit(fade_enabled=fade_enabled)
    assert states["event"] == states["naive"]


def test_blocking_cycle_limit_flushes_identical_state():
    """Blocking FADE under backpressure: the wait and drain cycles the
    event loop adds while skipping ahead match the stepper's at the limit."""
    states = _states_at_cycle_limit(
        fade_enabled=True, non_blocking=False, event_queue_capacity=4
    )
    assert states["naive"]["result"]["fade_wait_cycles"] > 0
    assert states["event"] == states["naive"]


def _loop_state(sim):
    """Everything the run has built up by the time it stops: the loop's
    flushed locals, queue entries and statistics, the result's counters,
    the monitor's functional state and FADE's architectural state."""
    result = sim.result
    return {
        "now": sim._now,
        "app": (sim._app_index, sim._app_blocked),
        "progress": (sim._progress_base, sim._progress_halves),
        "monitor_loop": (sim._monitor_item, sim._monitor_remaining),
        "fade_loop": (sim._fade_ready_at, sim._fade_wait_seq, sim._fade_draining),
        "bursts": (sim._filterable_gap, sim._current_burst, sim._saw_unfiltered),
        "queues": (list(sim._eq_entries), list(sim._wq_entries)),
        "queue_stats": (
            dataclasses.asdict(sim.event_queue.stats),
            dataclasses.asdict(sim.work_queue.stats),
        ),
        "result": {
            "instructions": result.instructions,
            "monitored_events": result.monitored_events,
            "stack_update_events": result.stack_update_events,
            "high_level_events": result.high_level_events,
            "baseline_cycles": result.baseline_cycles,
            "handler_instructions": dict(result.handler_instructions),
            "handlers_executed": result.handlers_executed,
            "unfiltered_distances": dict(result.unfiltered_distances),
            "unfiltered_burst_sizes": list(result.unfiltered_burst_sizes),
            "cycle_breakdown": result.cycle_breakdown.to_dict(),
            "app_blocked_cycles": result.app_blocked_cycles,
            "monitor_busy_cycles": result.monitor_busy_cycles,
            "fade_drain_cycles": result.fade_drain_cycles,
            "fade_wait_cycles": result.fade_wait_cycles,
        },
        "monitor": _monitor_state(sim.monitor),
        "fade": _fade_state(sim.fade) if sim.fade is not None else None,
    }


def _monitor_state(monitor):
    """Critical metadata, reports, thread and the subclass's own tables."""
    own = {
        name: value
        for name, value in vars(monitor).items()
        if name not in ("costs", "critical_regs", "critical_mem",
                        "reports", "current_thread")
    }
    return {
        "critical_regs": monitor.critical_regs.snapshot(),
        "critical_mem": monitor.critical_mem.snapshot(),
        "reports": list(monitor.reports),
        "current_thread": monitor.current_thread,
        "own": own,
    }


def _fade_state(fade):
    """Statistics, INV RF, event table, MD cache and M-TLB, FSQ and SUU."""
    md_cache = fade.md_cache._cache
    tlb = fade.md_cache._tlb
    fsq = fade.fsq
    return {
        "stats": fade.stats.to_dict(),
        "inv_rf": (fade.inv_rf.snapshot(), fade.inv_rf.writes),
        "event_table": (
            {i: e.encode() for i, e in fade.event_table._entries.items()},
            fade.event_table.generation,
        ),
        "md_cache": (
            [list(ways) for ways in md_cache._sets],
            dataclasses.asdict(md_cache.stats),
        ),
        "tlb": (list(tlb._pages), dataclasses.asdict(tlb.stats)),
        "fsq": None if fsq is None else (
            {
                word: [(e.value, e.owner_sequence) for e in stack]
                for word, stack in fsq._by_word.items()
            },
            fsq._size, fsq.inserts, fsq.hits, fsq.max_occupancy,
        ),
        "suu": None if fade.suu is None else dataclasses.asdict(fade.suu.stats),
        "comparisons": fade.pipeline.filter_logic.comparisons,
    }


def test_unknown_engine_rejected():
    with pytest.raises(ConfigurationError):
        SystemConfig(engine="warp-drive")


# ------------------------------------------------------- simulate_warmed


@pytest.mark.parametrize("monitor_name", MONITOR_NAMES)
def test_simulate_warmed_engines_bit_identical(monitor_name):
    """The timed region after functional warmup matches bit-for-bit on
    every registered monitor."""
    naive, event = run_both(
        monitor_name, bench_for(monitor_name), warmup=0.5, fade_enabled=True
    )
    assert naive.to_dict() == event.to_dict()


@pytest.mark.parametrize("fade_enabled", [False, True])
def test_simulate_warmed_excludes_warmup_region_counts(fade_enabled):
    """Reported event/instruction counts cover only the timed region."""
    benchmark = "astar"
    profile = get_profile(benchmark)
    trace = cached_trace(benchmark)
    warmup_items = int(len(trace.items) * 0.5)
    monitor = create_monitor("memleak")
    result = simulate_warmed(
        trace,
        monitor,
        SystemConfig(fade_enabled=fade_enabled),
        profile,
        warmup_fraction=0.5,
    )

    # Recompute the timed region's composition directly from the trace.
    classifier = create_monitor("memleak")
    instructions = monitored = stack = high = 0
    for index in range(warmup_items, len(trace.items)):
        item = trace.items[index]
        if isinstance(item, Instruction):
            instructions += 1
            if classifier.wants(item):
                event = MonitoredEvent.from_instruction(item, sequence=index)
                if event.is_stack_update:
                    stack += 1
                else:
                    monitored += 1
        else:
            high += 1

    assert result.instructions == instructions
    assert result.monitored_events == monitored
    assert result.stack_update_events == stack
    assert result.high_level_events == high
    assert result.baseline_cycles > 0
    assert result.baseline_cycles < trace.num_instructions * 10


# ------------------------------------------------- warmed configurations


WARMED_CONFIGS = [
    pytest.param({"fade_enabled": False}, id="unaccelerated"),
    pytest.param({"fade_enabled": True}, id="non-blocking-fade"),
    pytest.param(
        {"fade_enabled": True, "non_blocking": False, "event_queue_capacity": 4},
        id="blocking-backpressure",
    ),
    pytest.param(
        {"fade_enabled": True, "topology": Topology.TWO_CORE,
         "unfiltered_queue_capacity": 2},
        id="two-core-tight-queue",
    ),
]


def _fresh_sim(engine, monitor_name="memleak", benchmark="gcc", **config_kwargs):
    return MonitoringSimulation(
        cached_trace(benchmark),
        create_monitor(monitor_name),
        SystemConfig(engine=engine, **config_kwargs),
        get_profile(benchmark),
        warmup_items=len(cached_trace(benchmark).items) // 4,
    )


@pytest.mark.parametrize("config_kwargs", WARMED_CONFIGS)
def test_warmed_run_bit_identical(config_kwargs):
    """After a quarter-trace warmup, both engines finish bit-identical
    under backpressure, blocking FADE and a tight two-core queue."""
    finals = {
        engine: _fresh_sim(engine, **config_kwargs).run().to_dict()
        for engine in ENGINES
    }
    assert finals["event"] == finals["naive"]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("monitor_name", ["memleak", "atomcheck"])
def test_fade_reads_the_fields_event_fields_decodes(engine, monitor_name):
    """Warmup and the event loop inline ``event_fields``: every event FADE
    filters carries exactly the fields the helper decodes, and every
    monitored item is filtered once."""
    sim = _fresh_sim(engine, monitor_name, bench_for(monitor_name))
    calls = []
    process = sim.fade.process

    def recording(*fields):
        calls.append(fields)
        return process(*fields)

    sim.fade.process = recording
    sim.run()
    lists = sim.trace.column_lists()
    assert [fields[5] for fields in calls] == [
        index for index, kind in enumerate(sim._kinds) if kind == INSTRUCTION_EVENT
    ]
    for fields in calls:
        assert fields[:5] == event_fields(lists, fields[5])
