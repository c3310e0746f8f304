"""What a fresh process imports.

``import repro`` loads none of the package's modules, the CLI loads only
the layers ``repro run`` needs, and neither pulls in the process pool,
SQLite, asyncio or the service stack.  Every check reads ``sys.modules``
(or ``-X importtime``'s list) of a fresh interpreter; none is timed.
"""

import json
import os
import pathlib
import subprocess
import sys

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


def test_import_repro_loads_no_submodule():
    loaded = _modules_after("import repro")
    assert sorted(name for name in loaded if name.startswith("repro.")) == []


def test_import_cli_loads_no_other_command_or_heavy_stdlib():
    loaded = _modules_after("import repro.cli")
    assert loaded.isdisjoint(OTHER_COMMANDS + HEAVY_STDLIB)
    assert "repro.monitors" in loaded  # The parser's choices come from here.


def test_repro_run_loads_no_heavy_stdlib():
    """A whole ``python -m repro run``: every module it ever imports is
    one line of ``-X importtime``'s report."""
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "run",
         "--benchmark", "gcc", "--monitor", "memcheck", "-n", "2000"],
        env=_env(), check=True, capture_output=True, text=True,
    )
    assert "slowdown" in completed.stdout
    imported = {
        line.rpartition("|")[2].strip()
        for line in completed.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "repro.system.simulator" in imported
    assert imported.isdisjoint(OTHER_COMMANDS + HEAVY_STDLIB)


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
