"""Run results: every statistic the paper's figures draw on."""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Dict, List, Optional

from repro.fade.pipeline import FadeStats
from repro.monitors.base import HandlerClass
from repro.monitors.reports import BugReport
from repro.queues.bounded import QueueStats


@dataclasses.dataclass
class CycleBreakdown:
    """Per-cycle utilisation classification (Figure 11(b)).

    ``app_idle``: the application core is blocked because the event queue is
    full.  ``monitor_idle``: the monitor core has no handler work (FADE is
    filtering everything).  ``both_busy``: both cores are doing useful work.
    """

    app_idle: int = 0
    monitor_idle: int = 0
    both_busy: int = 0

    @property
    def total(self) -> int:
        return self.app_idle + self.monitor_idle + self.both_busy

    def percentages(self) -> Dict[str, float]:
        total = max(1, self.total)
        return {
            "app_idle": 100.0 * self.app_idle / total,
            "monitor_idle": 100.0 * self.monitor_idle / total,
            "both_busy": 100.0 * self.both_busy / total,
        }

    def to_dict(self) -> Dict[str, int]:
        """Plain-JSON representation; the inverse of :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "CycleBreakdown":
        return cls(**data)


@dataclasses.dataclass
class RunResult:
    """Outcome of simulating one (benchmark, monitor, system) triple."""

    benchmark: str
    monitor: str
    system: str

    cycles: float = 0.0
    baseline_cycles: float = 0.0
    instructions: int = 0

    monitored_events: int = 0  # Instruction events (excludes stack updates).
    stack_update_events: int = 0
    high_level_events: int = 0

    #: Software handler instructions by handler class (Figure 4(a)).
    handler_instructions: Dict[HandlerClass, float] = dataclasses.field(
        default_factory=dict
    )
    handlers_executed: int = 0

    fade_stats: Optional[FadeStats] = None
    event_queue_stats: Optional[QueueStats] = None
    work_queue_stats: Optional[QueueStats] = None

    #: Histogram: distance (in filterable events) between consecutive
    #: unfiltered events (Figure 4(b)).
    unfiltered_distances: Counter = dataclasses.field(default_factory=Counter)
    #: Sizes of unfiltered bursts under the 16-event gap rule (Figure 4(c)).
    unfiltered_burst_sizes: List[int] = dataclasses.field(default_factory=list)

    cycle_breakdown: CycleBreakdown = dataclasses.field(default_factory=CycleBreakdown)
    app_blocked_cycles: int = 0
    monitor_busy_cycles: int = 0
    fade_drain_cycles: int = 0
    fade_wait_cycles: int = 0

    reports: List[BugReport] = dataclasses.field(default_factory=list)

    # ------------------------------------------------------------ derived

    @property
    def slowdown(self) -> float:
        """Run time normalised to the unmonitored application (Figure 9)."""
        if self.baseline_cycles <= 0:
            return float("nan")
        return self.cycles / self.baseline_cycles

    @property
    def app_ipc(self) -> float:
        """Unmonitored application IPC (Figure 2 upper stack)."""
        if self.baseline_cycles <= 0:
            return 0.0
        return self.instructions / self.baseline_cycles

    @property
    def monitored_ipc(self) -> float:
        """Monitored events per unmonitored-application cycle (Figure 2)."""
        if self.baseline_cycles <= 0:
            return 0.0
        return (self.monitored_events + self.stack_update_events) / self.baseline_cycles

    @property
    def filtering_ratio(self) -> float:
        """Fraction of instruction-event handlers elided (Table 2)."""
        if self.fade_stats is None:
            return 0.0
        return self.fade_stats.filtering_ratio

    @property
    def average_burst_size(self) -> float:
        if not self.unfiltered_burst_sizes:
            return 0.0
        return sum(self.unfiltered_burst_sizes) / len(self.unfiltered_burst_sizes)

    def handler_time_percentages(self) -> Dict[str, float]:
        """Execution-time shares of the software handler classes (Fig. 4(a))."""
        total = sum(self.handler_instructions.values())
        if total <= 0:
            return {}
        return {
            handler_class.value: 100.0 * cost / total
            for handler_class, cost in sorted(
                self.handler_instructions.items(), key=lambda kv: kv[0].value
            )
        }

    def summary(self) -> str:
        parts = [
            f"{self.benchmark}/{self.monitor} on {self.system}:",
            f"slowdown {self.slowdown:.2f}x",
            f"({self.cycles:.0f} vs {self.baseline_cycles:.0f} cycles)",
        ]
        if self.fade_stats is not None:
            parts.append(f"filtering {100 * self.filtering_ratio:.1f}%")
        if self.reports:
            parts.append(f"{len(self.reports)} bug report(s)")
        return " ".join(parts)

    # ------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation of every field, including the nested
        FADE/queue statistics; the exact inverse of :meth:`from_dict`."""
        return {
            "benchmark": self.benchmark,
            "monitor": self.monitor,
            "system": self.system,
            "cycles": self.cycles,
            "baseline_cycles": self.baseline_cycles,
            "instructions": self.instructions,
            "monitored_events": self.monitored_events,
            "stack_update_events": self.stack_update_events,
            "high_level_events": self.high_level_events,
            "handler_instructions": {
                handler_class.value: cost
                for handler_class, cost in sorted(
                    self.handler_instructions.items(), key=lambda kv: kv[0].value
                )
            },
            "handlers_executed": self.handlers_executed,
            "fade_stats": (
                self.fade_stats.to_dict() if self.fade_stats is not None else None
            ),
            "event_queue_stats": (
                self.event_queue_stats.to_dict()
                if self.event_queue_stats is not None
                else None
            ),
            "work_queue_stats": (
                self.work_queue_stats.to_dict()
                if self.work_queue_stats is not None
                else None
            ),
            "unfiltered_distances": {
                str(distance): count
                for distance, count in sorted(self.unfiltered_distances.items())
            },
            "unfiltered_burst_sizes": list(self.unfiltered_burst_sizes),
            "cycle_breakdown": self.cycle_breakdown.to_dict(),
            "app_blocked_cycles": self.app_blocked_cycles,
            "monitor_busy_cycles": self.monitor_busy_cycles,
            "fade_drain_cycles": self.fade_drain_cycles,
            "fade_wait_cycles": self.fade_wait_cycles,
            "reports": [report.to_dict() for report in self.reports],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunResult":
        fade_stats = data.get("fade_stats")
        event_queue_stats = data.get("event_queue_stats")
        work_queue_stats = data.get("work_queue_stats")
        return cls(
            benchmark=data["benchmark"],
            monitor=data["monitor"],
            system=data["system"],
            cycles=data.get("cycles", 0.0),
            baseline_cycles=data.get("baseline_cycles", 0.0),
            instructions=data.get("instructions", 0),
            monitored_events=data.get("monitored_events", 0),
            stack_update_events=data.get("stack_update_events", 0),
            high_level_events=data.get("high_level_events", 0),
            handler_instructions={
                HandlerClass(value): cost
                for value, cost in data.get("handler_instructions", {}).items()
            },
            handlers_executed=data.get("handlers_executed", 0),
            fade_stats=(
                FadeStats.from_dict(fade_stats) if fade_stats is not None else None
            ),
            event_queue_stats=(
                QueueStats.from_dict(event_queue_stats)
                if event_queue_stats is not None
                else None
            ),
            work_queue_stats=(
                QueueStats.from_dict(work_queue_stats)
                if work_queue_stats is not None
                else None
            ),
            unfiltered_distances=Counter(
                {int(distance): count
                 for distance, count in data.get("unfiltered_distances", {}).items()}
            ),
            unfiltered_burst_sizes=list(data.get("unfiltered_burst_sizes", [])),
            cycle_breakdown=CycleBreakdown.from_dict(
                data.get("cycle_breakdown", {})
            ),
            app_blocked_cycles=data.get("app_blocked_cycles", 0),
            monitor_busy_cycles=data.get("monitor_busy_cycles", 0),
            fade_drain_cycles=data.get("fade_drain_cycles", 0),
            fade_wait_cycles=data.get("fade_wait_cycles", 0),
            reports=[
                BugReport.from_dict(report) for report in data.get("reports", [])
            ],
        )
