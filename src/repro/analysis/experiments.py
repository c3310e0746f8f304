"""One harness function per table/figure of the paper's evaluation.

All experiments share a methodology mirroring Section 6: synthetic traces
stand in for SPEC/SPLASH/PARSEC reference runs, and the leading half of each
trace is functional warmup (the analogue of SMARTS checkpoints with warmed
caches and metadata).  Results are returned as dictionaries/rows ready for
:func:`repro.analysis.formatting.format_table`.

Every harness builds a grid of :class:`~repro.api.RunSpec` cells and
executes it through a :class:`~repro.api.ParallelRunner`: the shared
in-process :func:`~repro.api.default_runner` unless you pass
``runner=ParallelRunner(jobs=N)`` to fan a grid out over worker processes.
The ``*_results`` variants return the raw :class:`~repro.api.ResultSet`
(saveable as JSON) and the ``*_aggregate`` functions reduce one to the
figure's data, so persisted results can be re-aggregated without resimulating.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import (
    geometric_mean,
    occupancy_time_distribution,
    percentile_from_cdf,
    weighted_cdf,
)
from repro.api import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    ParallelRunner,
    ResultSet,
    RunSpec,
    default_runner,
)
from repro.cores.base import CoreType
from repro.monitors import MONITOR_NAMES
from repro.system.config import SystemConfig, Topology
from repro.system.results import RunResult
from repro.system.simulator import INSTRUCTION_EVENT, STACK_UPDATE
from repro.workload.profiles import (
    PARALLEL_BENCHMARKS,
    SPEC_BENCHMARKS,
    TAINT_BENCHMARKS,
)
from repro.workload.trace import Trace


def _runner(runner: Optional[ParallelRunner]) -> ParallelRunner:
    return runner if runner is not None else default_runner()


def benchmarks_for(monitor: str) -> List[str]:
    """The benchmark suite each monitor is evaluated on (Section 6)."""
    monitor = monitor.lower()
    if monitor == "atomcheck":
        return list(PARALLEL_BENCHMARKS)
    if monitor == "taintcheck":
        return list(TAINT_BENCHMARKS)
    return list(SPEC_BENCHMARKS)


def get_trace(
    benchmark: str,
    settings: ExperimentSettings,
    runner: Optional[ParallelRunner] = None,
) -> Trace:
    """The (cached) synthetic trace for one benchmark/settings cell."""
    return _runner(runner).cache.trace(benchmark, settings)


def get_schedule(
    benchmark: str,
    settings: ExperimentSettings,
    core: CoreType = CoreType.OOO4,
    runner: Optional[ParallelRunner] = None,
) -> List[float]:
    """The (cached) unobstructed retirement schedule for one cell."""
    return _runner(runner).cache.schedule(benchmark, settings, core)


def run_one(
    benchmark: str,
    monitor_name: str,
    config: SystemConfig,
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    runner: Optional[ParallelRunner] = None,
) -> RunResult:
    """Simulate one (benchmark, monitor, system) cell with standard warmup."""
    return _runner(runner).run_one(RunSpec(benchmark, monitor_name, config, settings))


def quick_run(
    benchmark: str = "astar",
    monitor: str = "memleak",
    fade: bool = True,
    non_blocking: bool = True,
    core: CoreType = CoreType.OOO4,
    topology: Topology = Topology.SINGLE_CORE_SMT,
    num_instructions: int = 20_000,
    seed: int = 7,
    runner: Optional[ParallelRunner] = None,
) -> RunResult:
    """Generate a trace and simulate one monitoring system end to end.

    A thin veneer over :mod:`repro.api`: the call builds a
    :class:`RunSpec` and executes it on the shared default runner (or the
    one you pass), so traces are cached across repeated calls.  Returns a
    :class:`RunResult` with the slowdown against the unmonitored baseline,
    FADE's filtering statistics, queue occupancies and any bug reports the
    monitor raised.
    """
    config = SystemConfig(
        core_type=core,
        topology=topology,
        fade_enabled=fade,
        non_blocking=non_blocking,
    )
    settings = ExperimentSettings(num_instructions=num_instructions, seed=seed)
    return run_one(benchmark, monitor, config, settings, runner)


# ---------------------------------------------------------------------------
# Figure 2: monitored versus unmonitored application IPC.
# ---------------------------------------------------------------------------


def _tail_ipc(
    benchmark: str,
    monitor_name: str,
    settings: ExperimentSettings,
    runner: ParallelRunner,
) -> Tuple[float, float]:
    """(app IPC, monitored IPC) on the steady-state (post-warmup) region."""
    trace = get_trace(benchmark, settings, runner)
    schedule = get_schedule(benchmark, settings, runner=runner)
    start = int(len(trace) * settings.warmup_fraction)
    span = schedule[-1] - schedule[start - 1] if start else schedule[-1]
    kinds = runner.cache.plan(trace, monitor_name).kinds[start:]
    if span <= 0:
        return 0.0, 0.0
    monitored = kinds.count(INSTRUCTION_EVENT) + kinds.count(STACK_UPDATE)
    return trace.count_instructions(start) / span, monitored / span


def fig2_monitored_ipc(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    runner: Optional[ParallelRunner] = None,
) -> Dict[str, object]:
    """Figure 2: per-monitor average IPC split, and per-benchmark splits for
    AddrCheck (b) and MemLeak (c)."""
    runner = _runner(runner)
    per_monitor = {}
    for monitor_name in MONITOR_NAMES:
        rows = [
            _tail_ipc(benchmark, monitor_name, settings, runner)
            for benchmark in benchmarks_for(monitor_name)
        ]
        app = sum(row[0] for row in rows) / len(rows)
        monitored = sum(row[1] for row in rows) / len(rows)
        per_monitor[monitor_name] = {"app_ipc": app, "monitored_ipc": monitored}
    per_benchmark = {}
    for monitor_name in ("addrcheck", "memleak"):
        per_benchmark[monitor_name] = {
            benchmark: dict(
                zip(
                    ("app_ipc", "monitored_ipc"),
                    _tail_ipc(benchmark, monitor_name, settings, runner),
                )
            )
            for benchmark in benchmarks_for(monitor_name)
        }
    return {"per_monitor": per_monitor, "per_benchmark": per_benchmark}


# ---------------------------------------------------------------------------
# Figure 3: event-queue occupancy and sizing.
# ---------------------------------------------------------------------------


def _monitored_arrivals(
    benchmark: str,
    monitor_name: str,
    settings: ExperimentSettings,
    runner: ParallelRunner,
) -> List[float]:
    """Retirement times of monitored events in the steady-state region."""
    trace = get_trace(benchmark, settings, runner)
    schedule = get_schedule(benchmark, settings, runner=runner)
    start = int(len(trace) * settings.warmup_fraction)
    kinds = runner.cache.plan(trace, monitor_name).kinds
    return [
        schedule[index]
        for index in range(start, len(trace))
        if kinds[index] in (INSTRUCTION_EVENT, STACK_UPDATE)
    ]


def fig3_queue_occupancy(
    monitor_name: str = "memleak",
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    benchmarks: Optional[Sequence[str]] = None,
    runner: Optional[ParallelRunner] = None,
) -> Dict[str, Dict[str, float]]:
    """Figure 3(a, b): occupancy of an infinite event queue drained by an
    ideal one-event-per-cycle filtering accelerator."""
    runner = _runner(runner)
    out = {}
    for benchmark in benchmarks or benchmarks_for(monitor_name)[:8]:
        arrivals = _monitored_arrivals(benchmark, monitor_name, settings, runner)
        departures: List[float] = []
        previous = 0.0
        for arrival in arrivals:
            previous = max(arrival, previous) + 1.0
            departures.append(previous)
        distribution = occupancy_time_distribution(arrivals, departures)
        cdf = weighted_cdf(distribution)
        out[benchmark] = {
            "p50": percentile_from_cdf(cdf, 50.0),
            "p90": percentile_from_cdf(cdf, 90.0),
            "p99": percentile_from_cdf(cdf, 99.0),
            "max": max(distribution) if distribution else 0,
        }
    return out


def fig3_queue_size_slowdown(
    monitor_name: str = "memleak",
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    capacities: Sequence[int] = (32, 32_768),
    runner: Optional[ParallelRunner] = None,
) -> Dict[str, Dict[int, float]]:
    """Figure 3(c): slowdown of finite event queues against the unmonitored
    baseline, with an ideal one-event-per-cycle consumer.

    Uses the blocking-queue recurrence: an arrival finding the queue full
    stalls the application, uniformly delaying the rest of the schedule.
    """
    runner = _runner(runner)
    out: Dict[str, Dict[int, float]] = {}
    for benchmark in benchmarks_for(monitor_name):
        trace = get_trace(benchmark, settings, runner)
        schedule = get_schedule(benchmark, settings, runner=runner)
        start = int(len(trace) * settings.warmup_fraction)
        base_start = schedule[start - 1] if start else 0.0
        baseline = schedule[-1] - base_start
        arrivals = _monitored_arrivals(benchmark, monitor_name, settings, runner)
        out[benchmark] = {}
        for capacity in capacities:
            delay = 0.0
            departures: List[float] = []
            for index, scheduled in enumerate(arrivals):
                arrival = scheduled + delay
                if index >= capacity and departures[index - capacity] > arrival:
                    wait = departures[index - capacity] - arrival
                    delay += wait
                    arrival += wait
                previous = departures[-1] if departures else 0.0
                departures.append(max(arrival, previous) + 1.0)
            finish = max(schedule[-1] + delay, departures[-1] if departures else 0.0)
            out[benchmark][capacity] = (finish - base_start) / baseline
    return out


# ---------------------------------------------------------------------------
# Figure 4: handler-time breakdown, unfiltered distances and bursts.
# ---------------------------------------------------------------------------


def fig4_breakdowns(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    runner: Optional[ParallelRunner] = None,
) -> Dict[str, object]:
    """Figure 4(a): software execution-time breakdown per monitor;
    (b): distance CDF between unfiltered events for MemLeak;
    (c): average unfiltered burst size per monitor/benchmark."""
    unaccelerated = SystemConfig(fade_enabled=False)
    specs = [
        RunSpec(benchmark, monitor_name, unaccelerated, settings)
        for monitor_name in MONITOR_NAMES
        for benchmark in benchmarks_for(monitor_name)
    ]
    results = _runner(runner).run(specs)
    time_breakdown = {}
    burst_sizes: Dict[str, Dict[str, float]] = {}
    distance_cdf: Dict[str, List[Tuple[int, float]]] = {}
    for monitor_name, group in results.group_by("monitor").items():
        shares_acc: Dict[str, float] = {}
        bursts: Dict[str, float] = {}
        for record in group:
            result = record.result
            for cls, cost in result.handler_instructions.items():
                shares_acc[cls.value] = shares_acc.get(cls.value, 0.0) + cost
            bursts[record.spec.benchmark] = result.average_burst_size
            if monitor_name == "memleak":
                distance_cdf[record.spec.benchmark] = weighted_cdf(
                    dict(result.unfiltered_distances)
                )
        total = sum(shares_acc.values()) or 1.0
        time_breakdown[monitor_name] = {
            cls: 100.0 * cost / total for cls, cost in sorted(shares_acc.items())
        }
        burst_sizes[monitor_name] = bursts
    return {
        "time_breakdown": time_breakdown,
        "distance_cdf": distance_cdf,
        "burst_sizes": burst_sizes,
    }


# ---------------------------------------------------------------------------
# Table 2: filtering efficiency.
# ---------------------------------------------------------------------------


def table2_results(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    runner: Optional[ParallelRunner] = None,
) -> ResultSet:
    """The raw Table 2 grid: every monitor over its suite, FADE enabled."""
    config = SystemConfig(fade_enabled=True, non_blocking=True)
    specs = [
        RunSpec(benchmark, monitor_name, config, settings)
        for monitor_name in MONITOR_NAMES
        for benchmark in benchmarks_for(monitor_name)
    ]
    return _runner(runner).run(specs)


def table2_aggregate(results: ResultSet) -> Dict[str, float]:
    """Reduce a Table 2 :class:`ResultSet` to per-monitor filtering %."""
    return {
        monitor_name: 100.0 * group.mean("filtering_ratio")
        for monitor_name, group in results.group_by("monitor").items()
    }


def table2_filtering(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    runner: Optional[ParallelRunner] = None,
) -> Dict[str, float]:
    """Table 2: fraction of instruction event handlers filtered by FADE."""
    return table2_aggregate(table2_results(settings, runner))


# ---------------------------------------------------------------------------
# Figure 9: FADE versus the unaccelerated system.
# ---------------------------------------------------------------------------


def fig9_results(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    monitors: Sequence[str] = tuple(MONITOR_NAMES),
    runner: Optional[ParallelRunner] = None,
) -> ResultSet:
    """The raw Figure 9 grid: unaccelerated and (non-blocking) FADE cells
    for every monitor/benchmark pair."""
    unaccelerated = SystemConfig(fade_enabled=False)
    accelerated = SystemConfig(fade_enabled=True, non_blocking=True)
    specs = [
        RunSpec(benchmark, monitor_name, config, settings)
        for monitor_name in monitors
        for benchmark in benchmarks_for(monitor_name)
        for config in (unaccelerated, accelerated)
    ]
    return _runner(runner).run(specs)


def fig9_aggregate(results: ResultSet) -> Dict[str, object]:
    """Reduce a Figure 9 :class:`ResultSet` to per-benchmark slowdown rows
    plus a gmean row per monitor."""
    per_monitor: Dict[str, Dict[str, Dict[str, float]]] = {}
    for monitor_name, group in results.group_by("monitor").items():
        rows = {}
        for benchmark, cell in group.group_by("benchmark").items():
            base = cell.filter(fade_enabled=False).results[0]
            fade = cell.filter(fade_enabled=True).results[0]
            rows[benchmark] = {
                "unaccelerated": base.slowdown,
                "fade": fade.slowdown,
                "filtering": fade.filtering_ratio,
            }
        rows["gmean"] = {
            "unaccelerated": geometric_mean(
                row["unaccelerated"] for row in rows.values()
            ),
            "fade": geometric_mean(row["fade"] for row in rows.values()),
            "filtering": sum(row["filtering"] for row in rows.values())
            / max(1, len(rows)),
        }
        per_monitor[monitor_name] = rows
    return per_monitor


def fig9_slowdown(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    monitors: Sequence[str] = tuple(MONITOR_NAMES),
    runner: Optional[ParallelRunner] = None,
) -> Dict[str, object]:
    """Figure 9: per-benchmark slowdowns for the single-core dual-threaded
    4-way OoO system, unaccelerated versus (non-blocking) FADE."""
    return fig9_aggregate(fig9_results(settings, monitors, runner))


# ---------------------------------------------------------------------------
# Figure 10: sensitivity to the core microarchitecture.
# ---------------------------------------------------------------------------


def fig10_core_types(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    monitors: Sequence[str] = tuple(MONITOR_NAMES),
    runner: Optional[ParallelRunner] = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Figure 10: gmean slowdown per monitor for in-order / 2-way / 4-way
    cores, unaccelerated versus FADE (single-core system)."""
    cores = (CoreType.INORDER, CoreType.OOO2, CoreType.OOO4)
    specs = [
        RunSpec(
            benchmark,
            monitor_name,
            SystemConfig(core_type=core, fade_enabled=fade_on),
            settings,
        )
        for monitor_name in monitors
        for core in cores
        for benchmark in benchmarks_for(monitor_name)
        for fade_on in (False, True)
    ]
    results = _runner(runner).run(specs)
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for monitor_name, group in results.group_by("monitor").items():
        out[monitor_name] = {}
        for core, core_group in group.group_by("core_type").items():
            out[monitor_name][core.value] = {
                "unaccelerated": core_group.filter(fade_enabled=False).geomean(),
                "fade": core_group.filter(fade_enabled=True).geomean(),
            }
    return out


# ---------------------------------------------------------------------------
# Figure 11: system organisation and Non-Blocking Filtering.
# ---------------------------------------------------------------------------


def fig11a_single_vs_two_core(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    runner: Optional[ParallelRunner] = None,
) -> Dict[str, Dict[str, float]]:
    """Figure 11(a): FADE-enabled single-core versus two-core slowdowns."""
    labelled = (
        ("single-core", Topology.SINGLE_CORE_SMT),
        ("two-core", Topology.TWO_CORE),
    )
    specs = [
        RunSpec(
            benchmark,
            monitor_name,
            SystemConfig(topology=topology, fade_enabled=True),
            settings,
        )
        for monitor_name in MONITOR_NAMES
        for _, topology in labelled
        for benchmark in benchmarks_for(monitor_name)
    ]
    results = _runner(runner).run(specs)
    out = {}
    for monitor_name, group in results.group_by("monitor").items():
        out[monitor_name] = {
            label: group.filter(topology=topology).geomean()
            for label, topology in labelled
        }
    return out


def fig11b_core_utilization(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    runner: Optional[ParallelRunner] = None,
) -> Dict[str, Dict[str, float]]:
    """Figure 11(b): two-core execution-time breakdown: app core idle
    (event queue full), monitor core idle (everything filtered), both busy."""
    config = SystemConfig(topology=Topology.TWO_CORE, fade_enabled=True)
    specs = [
        RunSpec(benchmark, monitor_name, config, settings)
        for monitor_name in MONITOR_NAMES
        for benchmark in benchmarks_for(monitor_name)
    ]
    results = _runner(runner).run(specs)
    out = {}
    for monitor_name, group in results.group_by("monitor").items():
        totals = {"app_idle": 0.0, "monitor_idle": 0.0, "both_busy": 0.0}
        for result in group.results:
            for key, value in result.cycle_breakdown.percentages().items():
                totals[key] += value
        count = len(group)
        out[monitor_name] = {key: value / count for key, value in totals.items()}
    return out


def fig11c_blocking_vs_nonblocking(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    runner: Optional[ParallelRunner] = None,
) -> Dict[str, Dict[str, float]]:
    """Figure 11(c): baseline (blocking) FADE versus Non-Blocking FADE."""
    labelled = (("blocking", False), ("non-blocking", True))
    specs = [
        RunSpec(
            benchmark,
            monitor_name,
            SystemConfig(fade_enabled=True, non_blocking=non_blocking),
            settings,
        )
        for monitor_name in MONITOR_NAMES
        for _, non_blocking in labelled
        for benchmark in benchmarks_for(monitor_name)
    ]
    results = _runner(runner).run(specs)
    out = {}
    for monitor_name, group in results.group_by("monitor").items():
        row = {
            label: group.filter(non_blocking=non_blocking).geomean()
            for label, non_blocking in labelled
        }
        row["speedup"] = row["blocking"] / row["non-blocking"]
        out[monitor_name] = row
    return out


# ---------------------------------------------------------------------------
# Section 7.6: area and power.
# ---------------------------------------------------------------------------


def area_power() -> Dict[str, Dict[str, float]]:
    """Section 7.6: FADE logic + MD cache area/power at 40 nm, 2 GHz."""
    from repro.power.area_model import fade_area_power_report

    return fade_area_power_report()
