"""Tests for the command-line interface."""

import json

import pytest

from repro.api import ResultSet, register_monitor
from repro.cli import build_parser, main
from repro.common.errors import ConfigurationError
from repro.monitors import MONITOR_REGISTRY
from repro.monitors.addrcheck import AddrCheck


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.benchmark == "astar"
        assert args.monitor == "memleak"
        assert not args.no_fade

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--benchmark", "nonesuch"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "astar" in out and "memleak" in out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "FADE logic" in out and "MD cache" in out

    def test_profile_sim_wraps_command(self, capsys):
        assert main(["--profile-sim", "list"]) == 0
        captured = capsys.readouterr()
        assert "astar" in captured.out
        # The cProfile report goes to stderr.
        assert "cumulative" in captured.err

    def test_run_fade(self, capsys):
        assert main(["run", "-n", "2500", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "slowdown" in out
        assert "filtered=" in out

    def test_run_unaccelerated(self, capsys):
        assert main(
            ["run", "-n", "2500", "--no-fade", "--monitor", "addrcheck"]
        ) == 0
        out = capsys.readouterr().out
        assert "unaccelerated" in out
        assert "filtered=" not in out  # No FADE statistics block.

    def test_run_blocking_two_core_inorder(self, capsys):
        assert main(
            ["run", "-n", "2000", "--blocking", "--topology", "two-core",
             "--core", "inorder", "--benchmark", "water",
             "--monitor", "atomcheck"]
        ) == 0
        out = capsys.readouterr().out
        assert "blocking FADE" in out

    def test_table2(self, capsys):
        assert main(["table2", "-n", "2000"]) == 0
        out = capsys.readouterr().out
        assert "filtering %" in out
        for monitor in ("addrcheck", "memleak"):
            assert monitor in out


class TestExecutionFlags:
    def test_run_out_writes_loadable_resultset(self, capsys, tmp_path):
        out_path = tmp_path / "run.json"
        assert main(["run", "-n", "2000", "--out", str(out_path)]) == 0
        assert "written to" in capsys.readouterr().out
        results = ResultSet.load(out_path)
        assert len(results) == 1
        record = results[0]
        assert record.spec.benchmark == "astar"
        assert record.spec.settings.num_instructions == 2000
        assert record.result.slowdown > 0
        # The file is plain JSON, inspectable by other tools.
        assert json.loads(out_path.read_text())["records"]

    def test_run_rejects_jobs_flag(self, capsys):
        # `run` is always a single spec; --jobs only exists on grid commands.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--jobs", "2"])
        capsys.readouterr()

    def test_table2_with_jobs_matches_serial(self, capsys, tmp_path):
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        assert main(["table2", "-n", "1500", "--out", str(serial_path)]) == 0
        assert main(
            ["table2", "-n", "1500", "--jobs", "2", "--out", str(parallel_path)]
        ) == 0
        capsys.readouterr()
        assert ResultSet.load(serial_path) == ResultSet.load(parallel_path)

    def test_out_failure_reports_cleanly(self, capsys):
        assert main(
            ["run", "-n", "1500", "--out", "/proc/nope/results.json"]
        ) == 1
        captured = capsys.readouterr()
        assert "could not write" in captured.err

    def test_registered_monitor_runnable_through_cli(self, capsys):
        class CliCheck(AddrCheck):
            pass

        register_monitor("clicheck", CliCheck)
        try:
            assert main(
                ["run", "-n", "2000", "--monitor", "clicheck",
                 "--benchmark", "mcf"]
            ) == 0
            out = capsys.readouterr().out
            assert "slowdown" in out
        finally:
            MONITOR_REGISTRY.unregister("clicheck")

    def test_registered_monitor_appears_in_list(self, capsys):
        register_monitor("listcheck", AddrCheck, replace=True)
        try:
            assert main(["list"]) == 0
            assert "listcheck" in capsys.readouterr().out
        finally:
            MONITOR_REGISTRY.unregister("listcheck")


class TestCacheTraces:
    """``repro cache`` over the per-machine trace store."""

    def test_stats_and_clear_trace_store(self, tmp_path, monkeypatch,
                                         capsys):
        store_dir = tmp_path / "traces"
        monkeypatch.setenv("REPRO_TRACE_STORE", str(store_dir))
        assert main(["cache", "stats", "--traces", "--json"]) == 0
        empty = json.loads(capsys.readouterr().out)
        assert empty == {"path": str(store_dir), "enabled": True,
                         "blobs": 0, "bytes": 0}
        assert main(["run", "-n", "1500", "--seed", "5"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--traces", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["blobs"] == 2 and stats["bytes"] > 0  # Trace, schedule.
        assert main(["cache", "stats", "--traces"]) == 0
        out = capsys.readouterr().out
        assert f"trace store at {store_dir}" in out and "blobs: 2" in out
        assert main(["cache", "clear", "--traces"]) == 0
        assert "2 trace store blob(s) removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--traces", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["blobs"] == 0

    def test_result_cache_stats_include_the_trace_store(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "traces"))
        cache_dir = tmp_path / "results"
        assert main(["run", "-n", "1500", "--result-cache",
                     str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--result-cache", str(cache_dir),
                     "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert stats["trace_store"]["blobs"] == 2
        assert main(["cache", "stats", "--result-cache",
                     str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out and "trace store at" in out
        # Clearing the result cache leaves the trace store alone.
        assert main(["cache", "clear", "--result-cache",
                     str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--traces", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["blobs"] == 2

    def test_trace_store_off(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TRACE_STORE", "off")
        assert main(["cache", "stats", "--traces"]) == 0
        assert "trace store: off" in capsys.readouterr().out
        assert main(["cache", "clear", "--traces"]) == 0
        assert "0 trace store blob(s)" in capsys.readouterr().out


def _campaign_with_segments_key():
    from repro.service.campaign import expand_campaign

    with pytest.raises(ConfigurationError) as excinfo:
        expand_campaign(
            {
                "segments": 2,
                "grid": {"benchmarks": ["astar"], "monitors": ["memleak"]},
            }
        )
    message = str(excinfo.value)
    assert "segments" in message
    assert "valid keys: name, settings, grid, specs" in message


def _run_with_segments_flag():
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "-n", "1500", "--segments", "2"])
    assert excinfo.value.code not in (0, None)


@pytest.mark.parametrize(
    "attempt", [_campaign_with_segments_key, _run_with_segments_flag]
)
def test_removed_segment_inputs_fail_loudly(attempt):
    """Segmented execution is gone: its campaign key and CLI flag are
    rejected at the boundary, never silently ignored."""
    attempt()


def _usage_error(*argv):
    def attempt():
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2

    return attempt


def _midrun_kill_fault_kind():
    from repro.faults.plan import FAULT_KINDS, FaultEvent

    with pytest.raises(ConfigurationError) as excinfo:
        FaultEvent("e0", kind="worker_kill_midrun", site="worker.midrun")
    message = str(excinfo.value)
    assert "worker_kill_midrun" in message
    assert f"known kinds: {', '.join(sorted(FAULT_KINDS))}" in message


@pytest.mark.parametrize(
    "attempt",
    [
        pytest.param(
            _usage_error("run", "--checkpoint-every", "5"),
            id="run-checkpoint-every",
        ),
        pytest.param(_usage_error("run", "--resume"), id="run-resume"),
        pytest.param(_usage_error("checkpoint", "ls"), id="checkpoint-ls"),
        pytest.param(
            _usage_error("fuzz", "--checkpoint-every", "5"),
            id="fuzz-checkpoint-every",
        ),
        pytest.param(_midrun_kill_fault_kind, id="worker-kill-midrun-kind"),
    ],
)
def test_removed_checkpoint_inputs_fail_loudly(attempt):
    """Mid-cell checkpoints are gone: their CLI flags, subcommand and fault
    kind are rejected at the boundary, never silently ignored."""
    attempt()
