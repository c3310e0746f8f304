"""What remains of the removed vector engine tier's contract.

``engine="vector"`` is refused with a pointer to its bit-identical
replacement (never silently aliased: the engine is part of every result-store
key), its campaign aliases are gone, engines stay separated in store keys,
and the package imports and simulates without NumPy installed.
"""

import subprocess
import sys

import pytest

from repro.api import ResultStore, RunSpec, content_key
from repro.common.errors import ConfigurationError
from repro.monitors import create_monitor
from repro.system.config import SystemConfig
from repro.system.simulator import simulate
from repro.workload import generate_trace, get_profile


def _run(engine):
    profile = get_profile("astar")
    trace = generate_trace(profile, 1200, seed=5)
    config = SystemConfig(engine=engine)
    return simulate(trace, create_monitor("memcheck"), config, profile)


def test_importing_repro_does_not_import_numpy():
    """The package needs no NumPy: importing it and running a simulation in
    an interpreter where any NumPy import raises has to work."""
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None  # poison: any import attempt raises\n"
        "import repro, repro.api, repro.verify.oracle\n"
        "from repro.monitors import create_monitor\n"
        "from repro.system.simulator import simulate\n"
        "from repro.system.config import SystemConfig\n"
        "from repro.workload import generate_trace, get_profile\n"
        "profile = get_profile('astar')\n"
        "trace = generate_trace(profile, 300, seed=5)\n"
        "simulate(trace, create_monitor('memcheck'),"
        " SystemConfig(engine='event'), profile)\n"
        "print('ok')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        cwd=".",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_store_keys_separate_engines(tmp_path):
    """Engines are part of the result-store key: a cached event-engine cell
    never satisfies a naive-engine lookup (and vice versa), even though
    their *results* are bit-identical."""
    event_spec = RunSpec("astar", "memcheck", SystemConfig(engine="event"))
    naive_spec = event_spec.replace(config=SystemConfig(engine="naive"))
    assert content_key(event_spec) != content_key(naive_spec)

    store = ResultStore(str(tmp_path / "store"))
    result = _run("event")
    store.put(event_spec, result)
    assert store.get(naive_spec) is None
    store.put(naive_spec, result)
    assert store.get(event_spec) is not None
    assert store.get(naive_spec) is not None


def test_engine_aliases_in_config_from_dict():
    """The old campaign aliases of the vector tier are rejected rather than
    mapped onto another engine; the two remaining engines pass through."""
    assert SystemConfig.from_dict({"engine": "event"}).engine == "event"
    assert SystemConfig.from_dict({"engine": "naive"}).engine == "naive"
    for name in ("vec", "vectorized", "warp"):
        with pytest.raises(ConfigurationError, match="'naive' or 'event'"):
            SystemConfig.from_dict({"engine": name})
    with pytest.raises(ConfigurationError, match="event"):
        SystemConfig.from_dict({"engine": "vector"})


def test_unknown_engine_rejected_by_config():
    with pytest.raises(ConfigurationError, match="'naive' or 'event'"):
        SystemConfig(engine="simd")
    # The removed vector tier is refused, not aliased (the engine is part of
    # every store key), and the error names its replacement.
    with pytest.raises(ConfigurationError, match="engine='event'"):
        SystemConfig(engine="vector")
