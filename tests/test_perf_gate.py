"""The perf regression gate's trace-synthesis and warmup sections
(``benchmarks/check_perf_regression.py``)."""

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


def payload(items_per_sec=None, warmup_cells_per_sec=None):
    data = {
        "num_instructions": 3000,
        "engines": {"event": {"cycles_per_sec": 1000.0}},
    }
    if items_per_sec is not None:
        data["trace_synthesis"] = {"items_per_sec": items_per_sec}
    if warmup_cells_per_sec is not None:
        data["warmup"] = {"cells_per_sec": warmup_cells_per_sec}
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
