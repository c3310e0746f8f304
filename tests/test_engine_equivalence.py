"""Bit-identity of the event engine against the naive stepper.

The event engine (``SystemConfig.engine="event"``, the default) must
reproduce the reference one-cycle-per-iteration stepper *exactly* — the
whole serialized :class:`RunResult`, including queue occupancy histograms,
rejection counts, the cycle breakdown, FADE wait/drain counters and bug
reports — because it only jumps across provably quiet intervals and runs
every active cycle as an inlined copy of the reference cycle.
"""

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


@pytest.mark.parametrize("fade_enabled", [False, True])
def test_cycle_limit_flushes_identical_state(fade_enabled):
    """The event loop writes its locals back before raising the cycle-limit
    error: the aborted simulation's state equals the naive stepper's."""
    states = {}
    for engine in ENGINES:
        sim = MonitoringSimulation(
            cached_trace("gcc"),
            create_monitor("memleak"),
            SystemConfig(
                fade_enabled=fade_enabled, max_cycles=700, engine=engine
            ),
            get_profile("gcc"),
        )
        with pytest.raises(SimulationError):
            sim.run()
        assert sim._now == 700
        state = sim.snapshot()
        del state["engine"]
        states[engine] = state
    assert states["event"] == states["naive"]


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


# ------------------------------------------------- event-loop sync points


SYNC_CONFIGS = [
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


@pytest.mark.parametrize("config_kwargs", SYNC_CONFIGS)
def test_checkpoints_mid_run_restore_and_finish(config_kwargs):
    """Checkpoint every 100 instructions: every snapshot the event loop
    hands to the callback equals the naive stepper's at the same point, and
    restoring any of them into a fresh simulation finishes bit-identical
    to the uninterrupted run."""
    snapshots = {}
    finals = {}
    for engine in ENGINES:
        taken = []
        sim = _fresh_sim(engine, **config_kwargs)
        sim.configure_checkpoints(100, lambda running: taken.append(running.snapshot()))
        finals[engine] = sim.run().to_dict()
        snapshots[engine] = taken
    assert finals["event"] == finals["naive"]
    assert len(snapshots["event"]) > 3
    for event_state, naive_state in zip(snapshots["event"], snapshots["naive"]):
        assert {**event_state, "engine": None} == {**naive_state, "engine": None}
    for state in snapshots["event"]:
        resumed = _fresh_sim("event", **config_kwargs)
        resumed.restore(state)
        assert resumed.run().to_dict() == finals["naive"]


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
