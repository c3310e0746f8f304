"""Tests for RunResult derived metrics, FadeStats accounting, and the
JSON round-trip of a full result."""

import json
from collections import Counter

import pytest

from repro.fade.accelerator import Fade, FadeConfig, FadeStats
from repro.monitors import create_monitor
from repro.monitors.base import HandlerClass
from repro.monitors.reports import BugKind, BugReport
from repro.queues.bounded import QueueStats
from repro.system.results import CycleBreakdown, RunResult


class TestFadeStats:
    def test_filtering_ratio(self):
        stats = FadeStats(instruction_events=200, filtered=150)
        assert stats.filtering_ratio == pytest.approx(0.75)

    def test_zero_events(self):
        assert FadeStats().filtering_ratio == 0.0

    def test_unfiltered_combines_partial_and_full(self):
        stats = FadeStats(partial_short=3, unfiltered_full=7)
        assert stats.unfiltered == 10


class TestCycleBreakdown:
    def test_percentages_sum_to_100(self):
        breakdown = CycleBreakdown(app_idle=25, monitor_idle=50, both_busy=25)
        shares = breakdown.percentages()
        assert sum(shares.values()) == pytest.approx(100.0)
        assert shares["monitor_idle"] == pytest.approx(50.0)

    def test_empty_breakdown_is_safe(self):
        assert sum(CycleBreakdown().percentages().values()) == 0.0


class TestRunResult:
    def make_result(self, **kwargs):
        defaults = dict(
            benchmark="astar", monitor="MemLeak", system="test",
            cycles=2000.0, baseline_cycles=1000.0, instructions=1500,
            monitored_events=600,
        )
        defaults.update(kwargs)
        return RunResult(**defaults)

    def test_slowdown(self):
        assert self.make_result().slowdown == pytest.approx(2.0)

    def test_slowdown_without_baseline_is_nan(self):
        import math

        assert math.isnan(self.make_result(baseline_cycles=0.0).slowdown)

    def test_ipcs(self):
        result = self.make_result()
        assert result.app_ipc == pytest.approx(1.5)
        assert result.monitored_ipc == pytest.approx(0.6)

    def test_handler_time_percentages(self):
        result = self.make_result()
        result.handler_instructions = {
            HandlerClass.CLEAN_CHECK: 75.0,
            HandlerClass.COMPLEX: 25.0,
        }
        shares = result.handler_time_percentages()
        assert shares["cc"] == pytest.approx(75.0)
        assert shares["complex"] == pytest.approx(25.0)

    def test_average_burst_size(self):
        result = self.make_result()
        result.unfiltered_burst_sizes = [2, 4, 6]
        assert result.average_burst_size == pytest.approx(4.0)
        assert self.make_result().average_burst_size == 0.0

    def test_summary_mentions_key_numbers(self):
        text = self.make_result().summary()
        assert "2.00x" in text and "astar" in text


class TestRunResultSerialization:
    def make_full_result(self) -> RunResult:
        """A result exercising every serialized field, including the nested
        FADE statistics, both queue stats, distances and bug reports."""
        return RunResult(
            benchmark="omnetpp",
            monitor="MemLeak",
            system="single-core/4-way OoO/non-blocking FADE",
            cycles=4321.5,
            baseline_cycles=2000.25,
            instructions=1800,
            monitored_events=700,
            stack_update_events=40,
            high_level_events=12,
            handler_instructions={
                HandlerClass.CLEAN_CHECK: 120.0,
                HandlerClass.REDUNDANT_UPDATE: 60.5,
                HandlerClass.COMPLEX: 30.0,
            },
            handlers_executed=95,
            fade_stats=FadeStats(
                instruction_events=700, filtered=600, partial_short=20,
                unfiltered_full=80, stack_updates=40, tlb_misses=3,
                md_updates_committed=77, busy_cycles=800, suu_cycles=90,
            ),
            event_queue_stats=QueueStats(
                enqueued=740, dequeued=740, rejected=5, max_occupancy=17,
                occupancy_histogram=Counter({0: 900, 3: 50, 17: 2}),
            ),
            work_queue_stats=QueueStats(enqueued=100, dequeued=100),
            unfiltered_distances=Counter({1: 30, 16: 7, 250: 1}),
            unfiltered_burst_sizes=[1, 4, 9],
            cycle_breakdown=CycleBreakdown(app_idle=10, monitor_idle=70, both_busy=20),
            app_blocked_cycles=11,
            monitor_busy_cycles=222,
            fade_drain_cycles=33,
            fade_wait_cycles=4,
            reports=[
                BugReport(
                    monitor="MemLeak", kind=BugKind.MEMORY_LEAK, pc=0x400,
                    address=0x8000_0000, thread=1, message="unreachable allocation",
                )
            ],
        )

    def test_round_trip_equality(self):
        original = self.make_full_result()
        restored = RunResult.from_dict(original.to_dict())
        assert restored == original
        # Derived metrics survive too.
        assert restored.slowdown == original.slowdown
        assert restored.filtering_ratio == original.filtering_ratio

    def test_round_trip_through_json_text(self):
        original = self.make_full_result()
        text = json.dumps(original.to_dict(), sort_keys=True)
        restored = RunResult.from_dict(json.loads(text))
        assert restored == original
        # Counter keys and enum keys come back with their native types.
        assert all(isinstance(k, int) for k in restored.unfiltered_distances)
        assert all(
            isinstance(k, HandlerClass) for k in restored.handler_instructions
        )
        assert restored.reports[0].kind is BugKind.MEMORY_LEAK

    def test_round_trip_of_minimal_result(self):
        original = RunResult(benchmark="astar", monitor="AddrCheck", system="t")
        restored = RunResult.from_dict(
            json.loads(json.dumps(original.to_dict()))
        )
        assert restored == original
        assert restored.fade_stats is None
        assert restored.event_queue_stats is None

    def test_round_trip_of_simulated_result(self):
        from repro import quick_run

        original = quick_run(
            benchmark="astar", monitor="memleak", num_instructions=2000
        )
        restored = RunResult.from_dict(json.loads(json.dumps(original.to_dict())))
        assert restored == original


class TestFadeAccelerator:
    def test_stats_accumulate(self):
        monitor = create_monitor("memleak")
        fade = Fade(
            monitor.fade_program(), monitor.critical_regs, monitor.critical_mem
        )
        from repro.isa.events import MonitoredEvent
        from repro.isa.opcodes import OpClass, event_id_for

        clean = MonitoredEvent(
            event_id=event_id_for(OpClass.MOVE, 1), app_pc=0,
            src1_reg=10, dest_reg=11,
        )
        outcome = fade.process_event(clean)
        assert outcome.filtered
        assert fade.stats.instruction_events == 1
        assert fade.stats.filtered == 1

    def test_suu_unavailable_without_program_support(self):
        from repro.common.errors import ConfigurationError
        from repro.isa.events import StackOp, StackUpdate

        monitor = create_monitor("atomcheck")  # No SUU in its program.
        fade = Fade(
            monitor.fade_program(), monitor.critical_regs, monitor.critical_mem
        )
        with pytest.raises(ConfigurationError):
            fade.process_stack_update(StackUpdate(StackOp.CALL, 0x7000_0000, 64))

    def test_blocking_config_has_no_fsq(self):
        monitor = create_monitor("memleak")
        fade = Fade(
            monitor.fade_program(), monitor.critical_regs, monitor.critical_mem,
            FadeConfig(non_blocking=False),
        )
        assert fade.fsq is None
        assert not fade.fsq_full
        fade.handler_completed(0)  # No-op, must not raise.

    def test_write_invariant_reaches_pipeline(self):
        monitor = create_monitor("atomcheck")
        fade = Fade(
            monitor.fade_program(), monitor.critical_regs, monitor.critical_mem
        )
        fade.write_invariant(monitor.READ_TAG_INV, 0x83)
        assert fade.inv_rf.read(monitor.READ_TAG_INV) == 0x83
