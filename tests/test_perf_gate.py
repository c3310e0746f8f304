"""The perf regression gate's trace-synthesis, warmup, parallel-grid and
trace-store sections (``benchmarks/check_perf_regression.py``)."""

import importlib.util
import pathlib

import pytest

_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "check_perf_regression.py"
)


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_perf_regression", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def payload(items_per_sec=None, warmup_cells_per_sec=None,
            grid_cells_per_sec=None, warm_runs_per_sec=None):
    data = {
        "num_instructions": 3000,
        "engines": {"event": {"cycles_per_sec": 1000.0}},
    }
    if items_per_sec is not None:
        data["trace_synthesis"] = {"items_per_sec": items_per_sec}
    if warmup_cells_per_sec is not None:
        data["warmup"] = {"cells_per_sec": warmup_cells_per_sec}
    if grid_cells_per_sec is not None:
        data["parallel_grid"] = {"cells_per_sec": grid_cells_per_sec}
    if warm_runs_per_sec is not None:
        data["front_end_store"] = {"hit_runs_per_sec": warm_runs_per_sec}
    return data


def test_trace_synthesis_within_bound_passes(gate, capsys):
    assert gate.compare(payload(100.0), payload(95.0), 0.10) == 0
    assert "trace_synthesis: items/sec" in capsys.readouterr().out


def test_trace_synthesis_regression_fails(gate, capsys):
    assert gate.compare(payload(100.0), payload(80.0), 0.10) == 1
    assert "trace_synthesis" in capsys.readouterr().err


def test_baseline_without_the_section_skips_the_diff(gate, capsys):
    assert gate.compare(payload(), payload(10.0), 0.10) == 0
    assert "baseline lacks the section" in capsys.readouterr().out


def test_warmup_within_bound_passes(gate, capsys):
    assert gate.compare(payload(100.0, 50.0), payload(100.0, 46.0), 0.10) == 0
    assert "warmup: cells/sec" in capsys.readouterr().out


def test_warmup_regression_fails(gate, capsys):
    # A per-word range loop coming back: warmup throughput collapses.
    assert gate.compare(payload(100.0, 50.0), payload(100.0, 10.0), 0.10) == 1
    assert "warmup" in capsys.readouterr().err


def test_baseline_without_warmup_skips_only_that_diff(gate, capsys):
    assert gate.compare(payload(100.0), payload(100.0, 10.0), 0.10) == 0
    out = capsys.readouterr().out
    assert "warmup: baseline lacks the section" in out
    assert "trace_synthesis: items/sec" in out


def test_parallel_grid_within_bound_passes(gate, capsys):
    base = payload(100.0, 50.0, 170.0)
    assert gate.compare(base, payload(100.0, 50.0, 160.0), 0.10) == 0
    assert "parallel_grid: cells/sec" in capsys.readouterr().out


def test_parallel_grid_regression_fails(gate, capsys):
    base = payload(100.0, 50.0, 170.0)
    assert gate.compare(base, payload(100.0, 50.0, 120.0), 0.10) == 1
    assert "parallel_grid" in capsys.readouterr().err


def test_baseline_without_parallel_grid_skips_only_that_diff(gate, capsys):
    assert gate.compare(payload(100.0, 50.0), payload(100.0, 50.0, 5.0), 0.10) == 0
    out = capsys.readouterr().out
    assert "parallel_grid: baseline lacks the section" in out
    assert "warmup: cells/sec" in out


def test_front_end_store_within_bound_passes(gate, capsys):
    base = payload(100.0, 50.0, 170.0, 2.0)
    assert gate.compare(base, payload(100.0, 50.0, 170.0, 1.85), 0.10) == 0
    assert "front_end_store: warm runs/sec" in capsys.readouterr().out


def test_front_end_store_regression_fails(gate, capsys):
    # The store stops serving hits: warm runs fall back to synthesis.
    base = payload(100.0, 50.0, 170.0, 2.0)
    assert gate.compare(base, payload(100.0, 50.0, 170.0, 1.0), 0.10) == 1
    assert "front_end_store" in capsys.readouterr().err


def test_baseline_without_front_end_store_skips_only_that_diff(gate, capsys):
    base = payload(100.0, 50.0, 170.0)
    assert gate.compare(base, payload(100.0, 50.0, 170.0, 0.1), 0.10) == 0
    out = capsys.readouterr().out
    assert "front_end_store: baseline lacks the section" in out
    assert "parallel_grid: cells/sec" in out


def test_baseline_checkpointing_section_is_ignored(gate, capsys):
    """A baseline measured before mid-cell checkpoints were removed still
    carries a ``checkpointing`` section; the fresh payload has none, and
    the stale section must neither fail nor be diffed."""
    base = payload(100.0)
    base["checkpointing"] = {
        "engines": {"event": {"cycles_per_sec": 1e12}},
        "armed_overhead": 0.0,
    }
    assert gate.compare(base, payload(100.0), 0.10) == 0
    out = capsys.readouterr().out
    assert "checkpointing" not in out
    assert "perf check passed" in out
