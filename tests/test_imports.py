"""What a fresh process imports.

``import repro`` loads none of the package's modules, the CLI loads only
the layers ``repro run`` needs, and neither pulls in the process pool,
SQLite, asyncio or the service stack.  ``repro serve`` loads no simulator
before its first computation.  Every check reads ``sys.modules``
(or ``-X importtime``'s list) of a fresh interpreter; none is timed.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import repro

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Standard-library modules a serial, store-less cell never uses.
HEAVY_STDLIB = (
    "sqlite3",
    "asyncio",
    "multiprocessing",
    "concurrent.futures",
    "socket",
)

#: Layers of the package that `repro run` never uses.
OTHER_COMMANDS = (
    "repro.service",
    "repro.analysis.experiments",
    "repro.verify.oracle",
    "repro.faults.chaos",
)

#: The simulation stack: what a computation needs and a front end does not.
SIMULATOR = (
    "repro.api.runner",
    "repro.system",
    "repro.monitors",
    "repro.fade",
    "repro.workload",
)


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _modules_after(code):
    """The names in ``sys.modules`` after a fresh interpreter runs
    ``code``."""
    out = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"],
        env=_env(), check=True, capture_output=True, text=True,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def _imported(importtime_report):
    """The modules an ``-X importtime`` report lists."""
    return {
        line.rpartition("|")[2].strip()
        for line in importtime_report.splitlines()
        if line.startswith("import time:")
    }


def test_import_repro_loads_no_submodule():
    loaded = _modules_after("import repro")
    assert sorted(name for name in loaded if name.startswith("repro.")) == []


def test_import_cli_loads_no_other_command_or_heavy_stdlib():
    loaded = _modules_after("import repro.cli")
    assert loaded.isdisjoint(OTHER_COMMANDS + HEAVY_STDLIB + SIMULATOR)
    # Building the parser reads no registry either.
    assert _modules_after(
        "from repro.cli import build_parser\nbuild_parser()"
    ).isdisjoint(SIMULATOR)


def test_repro_run_loads_no_heavy_stdlib():
    """A whole ``python -m repro run``: every module it ever imports is
    one line of ``-X importtime``'s report."""
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "run",
         "--benchmark", "gcc", "--monitor", "memcheck", "-n", "2000"],
        env=_env(), check=True, capture_output=True, text=True,
    )
    assert "slowdown" in completed.stdout
    imported = _imported(completed.stderr)
    assert "repro.system.simulator" in imported
    assert imported.isdisjoint(OTHER_COMMANDS + HEAVY_STDLIB)


def test_serve_answers_before_it_loads_the_simulator(tmp_path):
    """``repro serve`` answers /health and /stats having loaded only its
    front end; its first /run loads the simulation stack and streams the
    result a local run computes.  (``asyncio`` itself imports the
    ``concurrent.futures`` package, so the gate names its process pool.)"""
    from repro.api import ExperimentSettings, RunSpec, execute_spec
    from repro.service.client import ServiceClient

    socket_path = tmp_path / "serve.sock"
    report = tmp_path / "importtime.txt"
    with open(report, "w") as stderr:
        server = subprocess.Popen(
            [sys.executable, "-X", "importtime", "-m", "repro", "serve",
             "--socket", str(socket_path),
             "--result-cache", str(tmp_path / "store")],
            env=_env(), stdout=subprocess.DEVNULL, stderr=stderr,
        )
    try:
        client = ServiceClient(f"unix://{socket_path}", timeout=60.0)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                assert client.health()["ok"]
                break
            except OSError:
                assert server.poll() is None, "repro serve exited"
                assert time.monotonic() < deadline, "no /health answer"
                time.sleep(0.01)
        assert client.stats()["server"]["specs_received"] == 0
        front_end = _imported(report.read_text())
        assert "repro.service.server" in front_end
        assert front_end.isdisjoint(SIMULATOR + (
            "multiprocessing", "concurrent.futures.process",
        ))

        spec = RunSpec("gcc", "memcheck",
                       settings=ExperimentSettings(num_instructions=2000))
        events = [event for event in client.submit([spec])
                  if event["event"] == "spec"]
        assert [event["status"] for event in events] == ["computed"]
        assert events[0]["result"] == execute_spec(spec).to_dict()
        client.shutdown_server()
        assert server.wait(timeout=60) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    assert "repro.api.runner" in _imported(report.read_text())


def test_in_process_campaign_loads_no_service_stack(tmp_path):
    """A campaign without ``--server`` needs only the campaign module and
    the runner, not the server, its scheduler, its client or asyncio."""
    campaign = tmp_path / "tiny.json"
    campaign.write_text(json.dumps({
        "name": "tiny", "specs": [{"benchmark": "gcc", "monitor": "memcheck"}],
    }))
    service_stack = HEAVY_STDLIB + (
        "repro.service.server", "repro.service.scheduler",
        "repro.service.client",
    )
    assert _modules_after("import repro.service.campaign").isdisjoint(
        service_stack
    )
    loaded = _modules_after(
        "from repro.cli import main\n"
        f"main(['campaign', 'show', {str(campaign)!r}])"
    )
    assert "repro.service.campaign" in loaded
    assert loaded.isdisjoint(service_stack)


def test_a_stored_trace_loads_no_pickle():
    """``pickle`` is imported only to read or write a warm state."""
    loaded = _modules_after(
        "from repro.api import ExperimentSettings, RunnerCache\n"
        "RunnerCache().trace('gcc', ExperimentSettings(num_instructions=1500))"
    )
    assert "repro.api.trace_store" in loaded and "pickle" not in loaded


@pytest.mark.parametrize("package", sorted(
    path.name for path in (SRC / "repro").iterdir()
    if (path / "__init__.py").exists()
))
def test_each_subpackage_imports_alone(package):
    assert f"repro.{package}" in _modules_after(f"import repro.{package}")


def test_every_public_name_resolves():
    for name in repro.__all__:
        namespace = {}
        exec(f"from repro import {name}", namespace)
        assert namespace[name] is getattr(repro, name)
    assert set(repro.__all__) <= set(dir(repro))
    assert repro.quick_run.__module__ == "repro.analysis.experiments"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
    with pytest.raises(ImportError):
        exec("from repro import no_such_name", {})
