"""Tests for the analysis layer: statistics, formatting, and (scaled-down)
experiment harnesses."""

import pytest

from repro.analysis import (
    ExperimentSettings,
    benchmarks_for,
    fig2_monitored_ipc,
    fig3_queue_occupancy,
    fig3_queue_size_slowdown,
    format_table,
    geometric_mean,
    table2_filtering,
    weighted_cdf,
)
from repro.analysis import experiments
from repro.analysis.stats import occupancy_time_distribution, percentile_from_cdf
from repro.api import ParallelRunner
from repro.isa.instruction import Instruction
from repro.monitors import create_monitor

TINY = ExperimentSettings(num_instructions=2500, seed=7)


class TestStats:
    def test_geometric_mean_basics(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([5.0]) == pytest.approx(5.0)
        assert geometric_mean([]) == 0.0

    def test_geometric_mean_ignores_nonpositive(self):
        assert geometric_mean([4.0, 0.0, -1.0]) == pytest.approx(4.0)

    def test_weighted_cdf(self):
        cdf = weighted_cdf({0: 1.0, 2: 3.0})
        assert cdf == [(0, pytest.approx(25.0)), (2, pytest.approx(100.0))]

    def test_percentile_from_cdf(self):
        cdf = [(0, 25.0), (1, 50.0), (4, 100.0)]
        assert percentile_from_cdf(cdf, 50.0) == 1
        assert percentile_from_cdf(cdf, 99.0) == 4

    def test_occupancy_time_distribution(self):
        # One entry resident from t=0 to t=2, two from t=2 to t=3.
        distribution = occupancy_time_distribution(
            arrivals=[0.0, 2.0], departures=[3.0, 4.0]
        )
        assert distribution[1] == pytest.approx(3.0)  # [0,2) and [3,4).
        assert distribution[2] == pytest.approx(1.0)


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bb", 10.25]], "T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.50" in text and "10.25" in text
        assert len(lines) == 5  # Title, header, rule, two rows.

    def test_benchmarks_for(self):
        assert benchmarks_for("atomcheck")[0] == "water"
        assert benchmarks_for("taintcheck") == ["astar", "bzip", "mcf", "omnetpp"]
        assert len(benchmarks_for("memleak")) == 8


class TestExperimentHarnesses:
    def test_fig2_structure(self):
        data = fig2_monitored_ipc(TINY)
        assert set(data["per_monitor"]) == {
            "addrcheck", "atomcheck", "memcheck", "memleak", "taintcheck"
        }
        for row in data["per_monitor"].values():
            assert 0 < row["monitored_ipc"] < row["app_ipc"]
        assert set(data["per_benchmark"]) == {"addrcheck", "memleak"}

    def test_fig2_memory_trackers_have_lower_load(self):
        """Section 3.1: memory-tracking monitors see fewer events than
        propagation trackers."""
        data = fig2_monitored_ipc(TINY)["per_monitor"]
        assert data["addrcheck"]["monitored_ipc"] < data["memleak"]["monitored_ipc"]

    def test_fig3_occupancy_is_ordered(self):
        occupancy = fig3_queue_occupancy("memleak", TINY, benchmarks=["mcf", "omnetpp"])
        for row in occupancy.values():
            assert row["p50"] <= row["p90"] <= row["p99"] <= row["max"]

    def test_fig3_queue_size_larger_is_no_worse(self):
        slowdowns = fig3_queue_size_slowdown("memleak", TINY, capacities=(8, 4096))
        for per_capacity in slowdowns.values():
            assert per_capacity[4096] <= per_capacity[8] + 1e-9
            assert per_capacity[8] >= 1.0 - 1e-9

    def test_table2_ranges(self):
        filtering = table2_filtering(TINY)
        assert set(filtering) == set(
            ["addrcheck", "atomcheck", "memcheck", "memleak", "taintcheck"]
        )
        assert filtering["addrcheck"] > 95.0
        for value in filtering.values():
            assert 0.0 <= value <= 100.0


class TestPlanClassification:
    """Figures 2 and 3 classify events from the delivery plan; it must
    agree with asking ``monitor.wants`` about every post-warmup item."""

    PAIRS = [
        ("water", "atomcheck"),  # wants_memory_below
        ("gcc", "memleak"),  # stack updates
        ("bzip", "taintcheck"),
        ("astar", "addrcheck"),
    ]

    @staticmethod
    def _item_walk(benchmark, monitor_name, runner):
        trace = experiments.get_trace(benchmark, TINY, runner)
        schedule = experiments.get_schedule(benchmark, TINY, runner=runner)
        start = int(len(trace) * TINY.warmup_fraction)
        monitor = create_monitor(monitor_name)
        items = trace.items
        instructions = [
            index
            for index in range(start, len(trace))
            if isinstance(items[index], Instruction)
        ]
        return schedule, start, instructions, [
            schedule[index]
            for index in instructions
            if monitor.wants(items[index])
        ]

    # Not named ``benchmark``: pytest-benchmark owns that fixture name.
    @pytest.mark.parametrize("bench, monitor_name", PAIRS)
    def test_arrivals_and_tail_ipc_match_the_item_walk(
        self, bench, monitor_name
    ):
        runner = ParallelRunner(jobs=1)
        schedule, start, instructions, arrivals = self._item_walk(
            bench, monitor_name, runner
        )
        assert arrivals  # Each pair has monitored events to compare.
        assert experiments._monitored_arrivals(
            bench, monitor_name, TINY, runner
        ) == arrivals
        span = schedule[-1] - schedule[start - 1]
        assert experiments._tail_ipc(bench, monitor_name, TINY, runner) == (
            len(instructions) / span, len(arrivals) / span
        )


class TestAreaPower:
    def test_totals_match_paper_section_7_6(self):
        from repro.analysis import area_power

        report = area_power()
        # Paper: FADE 0.09 mm2 / 122 mW; MD cache 0.03 mm2 / 151 mW @ 0.3ns.
        assert report["fade_logic"]["area_mm2"] == pytest.approx(0.09, abs=0.01)
        assert report["fade_logic"]["peak_power_mw"] == pytest.approx(122, abs=15)
        assert report["md_cache"]["area_mm2"] == pytest.approx(0.03, abs=0.005)
        assert report["md_cache"]["peak_power_mw"] == pytest.approx(151, abs=20)
        assert report["md_cache"]["access_latency_ns"] == pytest.approx(0.3, abs=0.05)

    def test_component_budgets_are_positive(self):
        from repro.power import fade_component_inventory

        for component in fade_component_inventory():
            assert component.area_um2 > 0
            assert component.power_mw > 0

    def test_event_table_dominates_storage(self):
        """128 x 96-bit entries are by far the largest flop array."""
        from repro.power import fade_component_inventory

        inventory = {c.name: c for c in fade_component_inventory()}
        table = inventory["event table"]
        assert all(
            table.bits >= c.bits for c in inventory.values()
        )

    def test_cacti_lite_scales_with_size(self):
        from repro.power import estimate_sram_cache

        small = estimate_sram_cache(4 * 1024, 2, 64)
        large = estimate_sram_cache(64 * 1024, 4, 64)
        assert large.area_mm2 > small.area_mm2
        assert large.access_latency_ns > small.access_latency_ns
