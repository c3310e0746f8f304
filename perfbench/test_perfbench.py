"""Tests of the benchmark's own machinery: seeded inputs, the correctness
gate and self-time accounting.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

import checks
import specs
from repro.analysis.experiments import benchmarks_for
from repro.api import content_key
from spans import self_times


def _keys(spec_list):
    return [content_key(spec) for spec in spec_list]


def _service_keys(plan):
    return [[(b.kind, tuple(_keys(b.specs))) for b in client]
            for client in plan]


def test_same_seed_reproduces_identical_spec_lists():
    assert (_keys(specs.cold_cell_specs(3, blocks=3))
            == _keys(specs.cold_cell_specs(3, blocks=3)))
    assert _keys(specs.fig9_specs(3)) == _keys(specs.fig9_specs(3))
    assert (_service_keys(specs.service_plan(3, blocks=5))
            == _service_keys(specs.service_plan(3, blocks=5)))


def test_different_seed_yields_valid_different_mix():
    one = specs.cold_cell_specs(1, blocks=3)
    two = specs.cold_cell_specs(2, blocks=3)
    assert _keys(one) != _keys(two)
    for spec in one + two:
        assert spec.benchmark in benchmarks_for(spec.monitor)
        assert spec.config.engine == "event"
    # Every block of ten holds each monitor with FADE off and on.
    block = one[:10]
    assert sorted((s.monitor, s.config.fade_enabled) for s in block) == sorted(
        (m, fade) for m in {s.monitor for s in block} for fade in (False, True)
    )

    grid_one, grid_two = specs.fig9_specs(1), specs.fig9_specs(2)
    assert len(grid_one) == 66 and len(set(_keys(grid_one))) == 66
    assert _keys(grid_one) != _keys(grid_two)

    for seed in (1, 2):
        plan = specs.service_plan(seed, blocks=5)
        client_a, client_b = plan
        assert [b.kind for b in client_a] == [b.kind for b in client_b]
        for client in plan:
            # Every campaign is submitted cold, then re-run warm at once.
            assert client[0].kind in ("new", "shared")
            for cold, rerun in zip(client, client[1:]):
                if cold.kind != "warm":
                    assert rerun.kind == "warm" and rerun.specs == cold.specs
        fresh = [
            key
            for client in plan
            for batch in client if batch.kind == "new"
            for key in _keys(batch.specs)
        ]
        assert len(fresh) == len(set(fresh)), "new specs are first-time"
        for client in plan:
            finished = set()
            for batch in client:
                keys = _keys(batch.specs)
                if batch.kind == "warm":
                    assert set(keys) <= finished
                else:
                    finished.update(keys)
        shared = [(a.specs, b.specs) for a, b in zip(client_a, client_b)
                  if a.kind == "shared"]
        assert shared and all(a == b for a, b in shared)
    assert (_service_keys(specs.service_plan(1, blocks=5))
            != _service_keys(specs.service_plan(2, blocks=5)))


def test_wrong_reference_digest_is_counted_not_raised():
    spec_a, spec_b = specs.fig9_specs(1)[:2]
    result = {"cycles": 1.0, "instructions": 2}
    references = {
        content_key(spec_a): checks.result_digest(result),
        content_key(spec_b): "0" * 64,  # Injected wrong digest.
    }
    failed, notes = checks.count_mismatches(
        [(spec_a, result), (spec_b, result)], references
    )
    assert failed == 1 and "differs" in notes[0]
    failed, _ = checks.count_mismatches([(spec_a, None)], references)
    assert failed == 1  # An operation that raised.


def test_self_times_partition_a_span_tree():
    spans = [
        {"id": "r", "parent": None, "name": "root", "t0": 0, "t1": 100},
        {"id": "a", "parent": "r", "name": "a", "t0": 10, "t1": 40},
        {"id": "b", "parent": "a", "name": "b", "t0": 20, "t1": 30},
        {"id": "c", "parent": "r", "name": "a", "t0": 50, "t1": 90},
    ]
    own = self_times(spans)
    assert own == pytest.approx({"root": 30e-9, "a": 60e-9, "b": 10e-9})
    assert sum(own.values()) == pytest.approx(100e-9)



#: Starts a child that starts a grandchild and exits at once, orphaning it.
ORPHAN_SCRIPT = """
import subprocess, sys
import run
run.adopt_orphans()
sleeper = "import time; time.sleep(2)"
subprocess.run([sys.executable, "-c",
                "import subprocess, sys; "
                f"subprocess.Popen([sys.executable, '-c', {sleeper!r}])"],
               check=True)
assert run._child_pids(), "the orphan is re-parented to this process"
run.reap_children()
assert not run._child_pids()
"""


def test_reap_children_waits_for_orphaned_grandchildren():
    # In its own interpreter, so the test process does not become a
    # subreaper.
    subprocess.run([sys.executable, "-c", ORPHAN_SCRIPT],
                   cwd=pathlib.Path(__file__).parent, check=True)
