"""The simulator's conservation laws catch a broken counter on their own.

Each case applies one scratch-style source mutation to a hot function (the
kind of slip an optimisation of the inlined event loop could make), runs a
single cell with no oracle and no second engine, and expects the
``_finalize`` checks to raise :class:`SimulationError` naming the law.
"""

import functools
import inspect
import textwrap

import pytest

from repro.api import ExperimentSettings, RunSpec
from repro.common.errors import SimulationError
from repro.fade import fsq, pipeline
from repro.monitors import create_monitor
from repro.system import SystemConfig, Topology
from repro.system import simulator
from repro.system.simulator import MonitoringSimulation
from repro.verify.oracle import DifferentialOracle
from repro.workload import generate_trace, get_profile


@functools.lru_cache(maxsize=None)
def _trace(benchmark="gcc", n=3000, seed=5):
    return generate_trace(get_profile(benchmark), n, seed=seed)


def _run(monitor="memcheck", **config_kwargs):
    trace = _trace()
    return MonitoringSimulation(
        trace,
        create_monitor(monitor),
        SystemConfig(**config_kwargs),
        get_profile("gcc"),
        warmup_items=len(trace.items) // 2,
    ).run()


def _mutated(owner, name, module, old, new):
    """``owner.name`` recompiled with the one occurrence of ``old`` in its
    source replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == 1, f"{old!r} is not unique in {name}"
    namespace = {}
    exec(compile(source.replace(old, new), module.__file__, "exec"),
         vars(module), namespace)
    return namespace[name]


MUTATIONS = [
    pytest.param(
        MonitoringSimulation, "_run_event", simulator,
        "both_busy += 1", "pass", {}, "cycle-breakdown total",
        id="drop-stepped-both-busy",
    ),
    pytest.param(
        MonitoringSimulation, "_run_event", simulator,
        "eq_hist[len(eq)] += 1", "pass", {}, "event-queue samples",
        id="drop-stepped-eq-sample",
    ),
    pytest.param(
        MonitoringSimulation, "_run_event", simulator,
        "wq_hist[len(wq)] += 1", "pass", {}, "unfiltered-queue samples",
        id="drop-stepped-wq-sample",
    ),
    pytest.param(
        MonitoringSimulation, "_run_event", simulator,
        "busy_cycles += 1", "busy_cycles += 2",
        {"fade_enabled": False, "topology": Topology.TWO_CORE},
        "monitor busy",
        id="double-stepped-monitor-busy",
    ),
    pytest.param(
        pipeline.FilteringPipeline, "_count", pipeline,
        "stats.filtered += 1", "pass", {"engine": "naive"},
        "filtered + unfiltered events",
        id="drop-filtered-count",
    ),
    pytest.param(
        # A filtered memo hit that also counts a Non-Blocking commit.
        pipeline.FilteringPipeline, "process", pipeline,
        "stats.filtered += 1",
        "stats.filtered += 1; stats.md_updates_committed += 1", {},
        "Non-Blocking commits",
        id="filtered-hit-counts-commit",
    ),
    pytest.param(
        fsq.FilterStoreQueue, "release", fsq,
        "self.releases += released", "pass",
        {"monitor": "memleak"},  # MemCheck never fills the FSQ.
        "FSQ releases + entries left",
        id="drop-fsq-release-count",
    ),
]


@pytest.mark.parametrize(
    "owner, name, module, old, new, config_kwargs, law", MUTATIONS
)
def test_mutation_is_caught_by_conservation_laws_alone(
    monkeypatch, owner, name, module, old, new, config_kwargs, law
):
    _run(**config_kwargs)  # The unmutated cell satisfies every law.
    monkeypatch.setattr(owner, name, _mutated(owner, name, module, old, new))
    with pytest.raises(SimulationError, match="conservation law broken") as excinfo:
        _run(**config_kwargs)
    assert law in str(excinfo.value)



def test_oracle_fails_when_every_leg_breaks_the_same_law(monkeypatch):
    """Every leg performs the same FSQ traffic through
    ``FilterStoreQueue.release``, so every leg raises the same error; with
    no disagreement to report the oracle must raise it.  (A filtered-count
    slip does not qualify: filtered memo hits count themselves, so
    memoized and inline legs break that law by different amounts and disagree.)"""
    name = "release"
    monkeypatch.setattr(fsq.FilterStoreQueue, name, _mutated(
        fsq.FilterStoreQueue, name, fsq, "self.releases += released", "pass"
    ))
    spec = RunSpec(
        "gcc", "memleak", SystemConfig(),
        ExperimentSettings(num_instructions=3000, seed=5),
    )
    with pytest.raises(SimulationError, match="FSQ releases \\+ entries left"):
        DifferentialOracle(thorough=False).check(spec)
