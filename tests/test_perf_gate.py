"""The paired perfbench gate's verdicts (``benchmarks/perf_gate.py``), on
synthetic result lines."""

import importlib.util
import json
import pathlib
import sys

import pytest

_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "perf_gate.py"
)

SETUP = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "cells_per_s", "unit": "1/s", "better": "higher",
        "bound": 0.25}


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("perf_gate", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def line(value, name="setup_s", correct=True, failed=0, attempted=10):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": "s"}}}


def runs(*values, **fields):
    return [line(value, **fields) for value in values]


def verdicts(gate, metric, base, change):
    """(correctness passed, metric passed, metric verdict text)."""
    (correct, _), (passed, text) = gate.workload_verdicts(
        [metric], base, change)
    return correct, passed, text


TIGHT = (1.0, 0.99, 1.01, 1.0, 0.98)


def test_regression_past_the_bound_fails(gate):
    _, passed, text = verdicts(gate, SETUP, runs(*TIGHT),
                               runs(1.3, 1.31, 1.29, 1.3, 1.32))
    assert not passed
    assert text.startswith("setup_s ") and text.endswith("FAIL")


def test_move_within_the_bound_passes(gate):
    _, passed, text = verdicts(gate, SETUP, runs(*TIGHT),
                               runs(1.2, 1.19, 1.21, 1.2, 1.18))
    assert passed
    assert text.endswith("ok")


def test_higher_is_better_reads_a_drop_as_worse(gate):
    base = runs(*TIGHT, name="cells_per_s")
    slower = runs(0.7, 0.71, 0.69, 0.7, 0.72, name="cells_per_s")
    faster = runs(1.5, 1.51, 1.49, 1.5, 1.52, name="cells_per_s")
    assert not verdicts(gate, RATE, base, slower)[1]
    assert verdicts(gate, RATE, base, faster)[1]
    # Read as "lower is better", the same faster runs would fail.
    assert not verdicts(gate, dict(RATE, better="lower"), base, faster)[1]


def test_unresolved_metric_fails_only_when_every_change_run_is_worse(gate):
    noisy = runs(1.0, 0.6, 1.4, 0.7, 1.3)
    # Median 1.5 times the base's, but the runs overlap: not resolved.
    overlapping = runs(1.5, 1.2, 1.6, 1.35, 1.7)
    correct, passed, text = verdicts(gate, SETUP, noisy, overlapping)
    assert passed and "unresolved" in text
    every_worse = runs(1.5, 1.45, 1.6, 1.55, 1.7)
    _, passed, text = verdicts(gate, SETUP, noisy, every_worse)
    assert not passed and "unresolved" in text


def test_incorrect_run_fails(gate):
    change = runs(*TIGHT)
    change[2] = line(1.0, correct=False, failed=1)
    correct, passed, _ = verdicts(gate, SETUP, runs(*TIGHT), change)
    assert not correct and passed


def test_more_failures_on_the_change_side_fail(gate):
    correct, _, _ = verdicts(gate, SETUP, runs(*TIGHT, failed=1),
                             runs(*TIGHT, failed=2))
    assert not correct
    correct, _, _ = verdicts(gate, SETUP, runs(*TIGHT, failed=2),
                             runs(*TIGHT, failed=1))
    assert correct


def test_base_without_perfbench_is_skipped(gate, tmp_path, capsys):
    assert gate.main([str(tmp_path)]) == 0
    assert "perf gate skipped" in capsys.readouterr().out


def test_regression_exactly_at_the_bound_passes(gate):
    _, passed, text = verdicts(gate, SETUP, runs(*TIGHT),
                               runs(1.25, 1.24, 1.26, 1.25, 1.23))
    assert passed and "worse by +25.0%" in text


def test_zero_base_median_passes_only_an_equal_change(gate):
    zeros = runs(0.0, 0.0, 0.0, 0.0, 0.0)
    assert verdicts(gate, SETUP, zeros, runs(0.0, 0.0, 0.0, 0.0, 0.0))[1]
    assert not verdicts(gate, SETUP, zeros, runs(0.1, 0.1, 0.1, 0.1, 0.1))[1]


def test_verdicts_are_correctness_then_metrics_in_order(gate):
    def two(value):
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"setup_s": {"value": value},
                            "cells_per_s": {"value": value}}}

    base = [two(value) for value in TIGHT]
    # A uniform 30% rise is worse for setup_s and better for cells_per_s.
    change = [two(value * 1.3) for value in TIGHT]
    (correct, first), (setup_ok, setup), (rate_ok, rate) = (
        gate.workload_verdicts([SETUP, RATE], base, change))
    assert first.startswith("correct: ") and correct
    assert setup.startswith("setup_s ") and not setup_ok
    assert rate.startswith("cells_per_s ") and rate_ok


def test_wrong_argument_count_prints_usage(gate, capsys):
    assert gate.main([]) == 2
    assert gate.main(["a", "b"]) == 2
    assert "usage: perf_gate.py BASE_CHECKOUT" in capsys.readouterr().err


RESULT = ("import json, os, sys; "
          "print('noise'); "
          "print(json.dumps({'argv': sys.argv[1:], 'cwd': os.getcwd(), "
          "'store': os.environ['REPRO_TRACE_STORE'], "
          "'store_is_dir': os.path.isdir(os.environ['REPRO_TRACE_STORE']), "
          "'pythonpath': os.environ.get('PYTHONPATH')}))")


def test_run_once_reads_the_last_line_in_a_fresh_store(gate, tmp_path,
                                                        monkeypatch):
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    command = [sys.executable, "-c", RESULT]
    first = gate.run_once(command, tmp_path, "cold_cell", 3)
    second = gate.run_once(command, tmp_path, "cold_cell", 3)
    assert first["argv"] == ["--workload", "cold_cell", "--seed", "3",
                             "--seconds", str(gate.SECONDS)]
    assert pathlib.Path(first["cwd"]) == tmp_path
    assert first["pythonpath"] is None
    assert first["store_is_dir"] and first["store"] != second["store"]
    # The store is removed once the run is read.
    assert not pathlib.Path(first["store"]).exists()


def test_run_once_failure_exits_with_the_run_stderr(gate, tmp_path):
    command = [sys.executable, "-c",
               "import sys; sys.stderr.write('boom'); sys.exit(3)"]
    with pytest.raises(SystemExit) as raised:
        gate.run_once(command, tmp_path, "fig9_grid", 2)
    assert "fig9_grid seed 2" in str(raised.value)
    assert "exited 3" in str(raised.value) and "boom" in str(raised.value)


@pytest.fixture
def checkouts(gate, tmp_path, monkeypatch):
    """A base checkout with a perfbench, a change checkout with a
    one-workload BENCHMARK.json, and a run log under ``tmp_path``."""
    base = tmp_path / "base"
    (base / "perfbench").mkdir(parents=True)
    (base / "perfbench" / "run.py").write_text("")
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"],
        "workloads": [{"name": "cold_cell"}],
        "end_to_end": [SETUP],
    }))
    monkeypatch.setattr(gate, "CHANGE_ROOT", change)
    monkeypatch.setattr(gate, "RUNS_PATH", tmp_path / "log" / "runs.jsonl")
    monkeypatch.setattr(gate, "PAIRS", 4)
    return base, change


def fake_runs(gate, monkeypatch, base, change_value):
    """Record each run_once call; the change side reports ``change_value``
    seconds, the base side one second."""
    calls = []

    def run_once(command, root, workload, seed):
        side = "base" if root == base else "change"
        calls.append((side, workload, seed))
        return line(1.0 if side == "base" else change_value)

    monkeypatch.setattr(gate, "run_once", run_once)
    return calls


def test_main_alternates_which_side_runs_first(gate, checkouts, monkeypatch,
                                              capsys):
    base, _ = checkouts
    calls = fake_runs(gate, monkeypatch, base, 1.0)
    assert gate.main([str(base)]) == 0
    assert [(side, seed) for side, _, seed in calls] == [
        ("base", 1), ("change", 1), ("change", 2), ("base", 2),
        ("base", 3), ("change", 3), ("change", 4), ("base", 4),
    ]
    out = capsys.readouterr().out
    assert "cold_cell correct: " in out and "cold_cell setup_s " in out
    assert out.rstrip().endswith("perf gate passed")


def test_main_logs_every_run_with_its_side(gate, checkouts, monkeypatch):
    base, _ = checkouts
    fake_runs(gate, monkeypatch, base, 1.0)
    gate.main([str(base)])
    logged = [json.loads(text)
              for text in gate.RUNS_PATH.read_text().splitlines()]
    assert len(logged) == 2 * gate.PAIRS
    assert {(run["side"], run["seed"]) for run in logged} == {
        (side, seed) for side in ("base", "change") for seed in range(1, 5)}
    assert all(run["workload"] == "cold_cell"
               and run["metrics"]["setup_s"]["value"] == 1.0
               for run in logged)


def test_main_fails_on_a_regression(gate, checkouts, monkeypatch, capsys):
    base, _ = checkouts
    fake_runs(gate, monkeypatch, base, 2.0)
    assert gate.main([str(base)]) == 1
    out = capsys.readouterr().out
    assert "cold_cell setup_s " in out and ": FAIL" in out
    assert out.rstrip().endswith("perf gate FAILED")
