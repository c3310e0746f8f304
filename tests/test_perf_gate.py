"""The perf regression gate's trace-synthesis section
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


def payload(items_per_sec=None):
    data = {
        "num_instructions": 3000,
        "engines": {"event": {"cycles_per_sec": 1000.0}},
    }
    if items_per_sec is not None:
        data["trace_synthesis"] = {"items_per_sec": items_per_sec}
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
