"""Tests for the repro.api execution layer: RunSpec, registries, runners,
caches and ResultSets."""

import dataclasses
import json
import os
import pathlib
import time

import pytest

from repro import quick_run
from repro.api import (
    ExperimentSettings,
    LruCache,
    ParallelRunner,
    ResultSet,
    RunSpec,
    RunnerCache,
    SerialRunner,
    register_monitor,
    register_profile,
    content_key,
    spec_grid,
)
from repro.common.errors import ConfigurationError
from repro.cores.base import CoreType
from repro.monitors import MONITOR_REGISTRY, create_monitor, monitor_names
from repro.monitors.memleak import MemLeak
from repro.system.config import SystemConfig, Topology
from repro.workload.profiles import PROFILE_REGISTRY, benchmark_names, get_profile

TINY = ExperimentSettings(num_instructions=1500, seed=11)


class TestRunSpec:
    def test_equality_and_hash(self):
        a = RunSpec("astar", "memleak", SystemConfig(), TINY)
        b = RunSpec("astar", "memleak", SystemConfig(), TINY)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_inequality_on_any_axis(self):
        base = RunSpec("astar", "memleak", SystemConfig(), TINY)
        assert base != base.replace(benchmark="mcf")
        assert base != base.replace(monitor="addrcheck")
        assert base != base.replace(config=SystemConfig(fade_enabled=False))
        assert base != base.replace(
            settings=dataclasses.replace(TINY, num_instructions=3000)
        )

    def test_json_round_trip(self):
        spec = RunSpec(
            "omnetpp",
            "taintcheck",
            SystemConfig(
                core_type=CoreType.OOO2,
                fade_enabled=True,
                non_blocking=False,
                event_queue_capacity=None,
                fsq_capacity=8,
            ),
            ExperimentSettings(num_instructions=5000, seed=3, warmup_fraction=0.25),
        )
        text = spec.to_json()
        restored = RunSpec.from_json(text)
        assert restored == spec
        assert hash(restored) == hash(spec)
        # The wire format is plain JSON (enums by value, nested dicts).
        assert json.loads(text)["config"]["core_type"] == "2-way OoO"

    def test_dict_round_trip_default_config(self):
        spec = RunSpec("astar", "memleak")
        assert RunSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "bench_name, monitor, field",
        [("nosuch", "addrcheck", "benchmark"), ("gcc", "nosuchmon", "monitor")],
    )
    def test_unknown_names_rejected_at_construction(
        self, bench_name, monitor, field
    ):
        known = benchmark_names() if field == "benchmark" else monitor_names()
        for build in (
            lambda: RunSpec(bench_name, monitor),
            lambda: RunSpec.from_dict(
                {**RunSpec("gcc", "addrcheck").to_dict(),
                 "benchmark": bench_name, "monitor": monitor}
            ),
        ):
            with pytest.raises(ConfigurationError) as excinfo:
                build()
            message = str(excinfo.value)
            assert message.startswith(f"RunSpec.{field}: ")
            assert all(name in message for name in known)

    def test_inline_profile_skips_the_benchmark_check(self):
        profile = get_profile("astar")
        spec = RunSpec("unregistered-synthetic", "addrcheck", profile=profile)
        assert spec.resolved_profile() is profile

    def test_unpickled_spec_is_not_revalidated(self):
        # Pool workers unpickle specs without calling __init__: a spec
        # valid in its parent stays usable where the name is unregistered.
        import pickle

        register_monitor("pickled-only", MemLeak)
        try:
            blob = pickle.dumps(RunSpec("astar", "pickled-only"))
        finally:
            MONITOR_REGISTRY.unregister("pickled-only")
        assert pickle.loads(blob).monitor == "pickled-only"

    def test_spec_grid_shape_and_order(self):
        grid = spec_grid(
            ["astar", "mcf"],
            ["memleak", "addrcheck"],
            [SystemConfig(), SystemConfig(fade_enabled=False)],
            TINY,
        )
        assert len(grid) == 8
        # Monitor-major, then benchmark, then config.
        assert grid[0].monitor == "memleak" and grid[0].benchmark == "astar"
        assert grid[1].config.fade_enabled is False
        assert grid[4].monitor == "addrcheck"
        assert len(set(grid)) == 8  # All distinct, hashable.


class TestSystemConfigDefaults:
    def test_nested_defaults_are_not_shared(self):
        first = SystemConfig()
        second = SystemConfig()
        assert first.md_cache == second.md_cache
        assert first.md_cache is not second.md_cache
        assert first.hierarchy is not second.hierarchy

    def test_dict_round_trip(self):
        config = SystemConfig(core_type=CoreType.INORDER, fade_enabled=False)
        assert SystemConfig.from_dict(config.to_dict()) == config


class TestSystemConfigValidation:
    def test_string_core_and_topology_are_coerced(self):
        config = SystemConfig(core_type="inorder", topology="two-core")
        assert config.core_type is CoreType.INORDER
        assert config.topology is Topology.TWO_CORE
        by_value = SystemConfig(core_type=CoreType.OOO2.value)
        assert by_value.core_type is CoreType.OOO2

    def test_coerced_config_has_the_enum_built_content_key(self):
        coerced = RunSpec(
            "astar", "memleak",
            SystemConfig(core_type="inorder", topology="single"), TINY,
        )
        built = RunSpec(
            "astar", "memleak",
            SystemConfig(
                core_type=CoreType.INORDER, topology=Topology.SINGLE_CORE_SMT
            ),
            TINY,
        )
        assert coerced == built
        assert content_key(coerced) == content_key(built)

    @pytest.mark.parametrize(
        "field,value",
        [("core_type", "quantum"), ("core_type", 4), ("topology", "ring")],
    )
    def test_unknown_enum_spelling_names_the_field(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SystemConfig(**{field: value})

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_fsq_capacity_below_one_rejected(self, capacity):
        with pytest.raises(ConfigurationError, match="fsq_capacity"):
            SystemConfig(fsq_capacity=capacity)


class TestExperimentSettingsValidation:
    @pytest.mark.parametrize("count", [0, -5, 2.5, "5", True])
    def test_bad_num_instructions_rejected(self, count):
        with pytest.raises(ConfigurationError, match="num_instructions"):
            ExperimentSettings(num_instructions=count)

    @pytest.mark.parametrize(
        "fraction", [1.0, 1.5, -0.1, float("nan"), float("inf"), "0.5"]
    )
    def test_bad_warmup_fraction_rejected(self, fraction):
        with pytest.raises(ConfigurationError, match="warmup_fraction"):
            ExperimentSettings(warmup_fraction=fraction)

    def test_edges_accepted(self):
        ExperimentSettings(num_instructions=1, warmup_fraction=0.0)
        ExperimentSettings(num_instructions=1, warmup_fraction=0)
        ExperimentSettings(warmup_fraction=0.999)

    def test_from_dict_validates(self):
        with pytest.raises(ConfigurationError, match="warmup_fraction"):
            ExperimentSettings.from_dict({**TINY.to_dict(), "warmup_fraction": 1.5})
        with pytest.raises(ConfigurationError, match="num_instructions"):
            RunSpec.from_dict(
                {
                    **RunSpec("astar", "memleak", SystemConfig(), TINY).to_dict(),
                    "settings": {**TINY.to_dict(), "num_instructions": -5},
                }
            )

    def test_cli_rejects_bad_settings_with_usage_error(self, capsys):
        from repro import cli

        assert cli.main(["run", "-n", "-5"]) == 2
        assert "num_instructions" in capsys.readouterr().err
        assert cli.main(["run", "-n", "2000", "--warmup", "1.5"]) == 2
        assert "warmup_fraction" in capsys.readouterr().err


class TestRegistries:
    def test_register_monitor_runnable_by_name(self):
        class TinyLeak(MemLeak):
            pass

        register_monitor("tinyleak", TinyLeak)
        try:
            assert "tinyleak" in monitor_names()
            assert isinstance(create_monitor("TinyLeak"), TinyLeak)
            result = quick_run(
                benchmark="astar", monitor="tinyleak", num_instructions=1500
            )
            assert result.monitored_events > 0
        finally:
            MONITOR_REGISTRY.unregister("tinyleak")

    def test_duplicate_monitor_rejected(self):
        with pytest.raises(ConfigurationError):
            register_monitor("memleak", MemLeak)
        register_monitor("memleak", MemLeak, replace=True)  # Explicit override.

    def test_unknown_monitor_message_lists_known(self):
        with pytest.raises(ConfigurationError, match="unknown monitor"):
            create_monitor("nonesuch")

    def test_register_profile_and_duplicate_rejection(self):
        base = get_profile("astar")
        custom = dataclasses.replace(base, name="astar_custom")
        register_profile(custom)
        try:
            assert get_profile("astar_custom") is custom
            with pytest.raises(ConfigurationError):
                register_profile(custom)
            result = quick_run(
                benchmark="astar_custom", monitor="memleak", num_instructions=1500
            )
            assert result.instructions > 0
        finally:
            PROFILE_REGISTRY.unregister("astar_custom")


class TestLruCache:
    def test_bounded_eviction_is_lru(self):
        cache = LruCache(max_entries=2)
        cache.get_or_create("a", lambda: 1)
        cache.get_or_create("b", lambda: 2)
        cache.get_or_create("a", lambda: -1)  # Hit: refreshes "a".
        cache.get_or_create("c", lambda: 3)  # Evicts "b" (least recent).
        assert "a" in cache and "c" in cache and "b" not in cache
        assert len(cache) == 2
        assert cache.hits == 1 and cache.misses == 3

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LruCache(0)

    def test_runner_cache_reuses_traces(self):
        cache = RunnerCache()
        first = cache.trace("astar", TINY)
        second = cache.trace("astar", TINY)
        assert first is second
        assert cache.stats()["trace_hits"] == 1

    def test_monitor_replacement_invalidates_cached_plans(self):
        class QuietLeak(MemLeak):
            monitored_op_classes = frozenset()  # Wants nothing.

        cache = RunnerCache()
        register_monitor("mutantleak", MemLeak)
        try:
            before = cache.plan("astar", TINY, "mutantleak")
            register_monitor("mutantleak", QuietLeak, replace=True)
            after = cache.plan("astar", TINY, "mutantleak")
            assert after is not before  # Keyed by factory, not name.
            assert after.monitored == 0
            assert before.monitored > 0
        finally:
            MONITOR_REGISTRY.unregister("mutantleak")

    def test_profile_replacement_invalidates_cached_traces(self):
        base = get_profile("astar")
        cache = RunnerCache()
        register_profile(dataclasses.replace(base, name="mutant"))
        try:
            before = cache.trace("mutant", TINY)
            register_profile(
                dataclasses.replace(base, name="mutant", locality=0.5),
                replace=True,
            )
            after = cache.trace("mutant", TINY)
            assert after is not before  # Keyed by profile value, not name.
        finally:
            PROFILE_REGISTRY.unregister("mutant")


class TestRunners:
    GRID = spec_grid(
        ["astar", "mcf"],
        ["memleak"],
        [SystemConfig(), SystemConfig(fade_enabled=False)],
        TINY,
    )

    def test_serial_runner_preserves_spec_order(self):
        results = SerialRunner().run(self.GRID)
        assert results.specs == self.GRID

    def test_serial_and_parallel_are_deterministic(self):
        serial = SerialRunner().run(self.GRID)
        parallel = ParallelRunner(jobs=2).run(self.GRID)
        assert serial == parallel  # Same specs, bit-identical RunResults.

    def test_parallel_falls_back_serially_for_single_spec(self):
        runner = ParallelRunner(jobs=4)
        results = runner.run(self.GRID[:1])
        assert len(results) == 1
        assert results[0].result == SerialRunner().run(self.GRID[:1])[0].result

    def test_run_one_matches_run(self):
        spec = self.GRID[0]
        runner = SerialRunner()
        assert runner.run_one(spec) == runner.run([spec]).results[0]


class TestResultSet:
    @pytest.fixture(scope="class")
    def results(self):
        return SerialRunner().run(TestRunners.GRID)

    def test_filter_by_spec_and_config_fields(self, results):
        astar = results.filter(benchmark="astar")
        assert len(astar) == 2
        fade = results.filter(benchmark="astar", fade_enabled=True)
        assert len(fade) == 1
        assert fade.results[0].fade_stats is not None

    def test_group_by_and_geomean(self, results):
        groups = results.group_by("benchmark")
        assert list(groups) == ["astar", "mcf"]
        for group in groups.values():
            assert len(group) == 2
        fade_gmean = results.filter(fade_enabled=True).geomean("slowdown")
        base_gmean = results.filter(fade_enabled=False).geomean("slowdown")
        assert 0 < fade_gmean < base_gmean  # FADE accelerates monitoring.

    def test_unknown_group_key_raises(self, results):
        with pytest.raises(AttributeError):
            results.group_by("nonesuch")

    def test_find_by_spec_value(self, results):
        spec = TestRunners.GRID[0]
        copy = RunSpec.from_dict(spec.to_dict())
        assert results.find(copy) == results.results[0]
        assert results.find(spec.replace(benchmark="bzip")) is None

    def test_json_save_load_round_trip(self, results, tmp_path):
        path = results.save(tmp_path / "results.json")
        reloaded = ResultSet.load(path)
        assert reloaded == results
        # Aggregations survive the round trip exactly.
        assert reloaded.geomean("slowdown") == results.geomean("slowdown")

    def test_unsupported_schema_version_rejected(self, results):
        data = results.to_dict()
        data["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            ResultSet.from_dict(data)

    def test_mean_and_values(self, results):
        values = results.values("slowdown")
        assert len(values) == len(results)
        assert results.mean("slowdown") == pytest.approx(sum(values) / len(values))
        assert ResultSet().mean() == 0.0 and ResultSet().geomean() == 0.0


class TestGracefulInterrupt:
    """Ctrl-C during a parallel grid: completed chunks are persisted to the
    store before the interrupt propagates, so a re-run serves them warm and
    only recomputes the killed cells."""

    GRID = spec_grid(
        ["astar", "mcf"],
        ["memleak", "addrcheck"],
        [SystemConfig(), SystemConfig(fade_enabled=False)],
        TINY,
    )

    class _FakeFuture:
        def __init__(self, batch=None, error=None):
            self._batch = batch
            self._error = error

        def done(self):
            return self._batch is not None

        def cancelled(self):
            return False

        def result(self):
            if self._error is not None:
                raise self._error
            return self._batch

    class _InterruptingPool:
        """First chunk computes for real (in-process); every later chunk's
        ``result()`` raises KeyboardInterrupt — a Ctrl-C that lands after
        some workers already finished."""

        def __init__(self, *args, **kwargs):
            self.submitted = 0
            from repro.api import runner as runner_module

            runner_module._worker_init()

        def submit(self, fn, payload):
            self.submitted += 1
            if self.submitted == 1:
                return TestGracefulInterrupt._FakeFuture(batch=fn(payload))
            return TestGracefulInterrupt._FakeFuture(error=KeyboardInterrupt())

        def shutdown(self, *args, **kwargs):
            pass

    def test_partial_results_stored_on_interrupt(self, tmp_path, monkeypatch):
        from repro.api import ResultStore
        from repro.api import runner as runner_module

        monkeypatch.setattr(
            runner_module, "ProcessPoolExecutor", self._InterruptingPool
        )
        # The fake pool runs chunks in-process, filling the module-global
        # worker cache with this grid's traces; restore it so they never
        # leak into later tests.
        monkeypatch.setattr(runner_module, "_WORKER_CACHE", None)
        store = ResultStore(tmp_path / "partial")
        runner = ParallelRunner(jobs=2, store=store)
        with pytest.raises(KeyboardInterrupt):
            runner.run(self.GRID)
        partial = len(store)
        assert 0 < partial < len(self.GRID)  # First chunk only.

        # The re-run (here: a plain serial runner on the same store) serves
        # the persisted chunk warm and recomputes just the killed cells —
        # bit-identical to an uninterrupted run.
        resume_store = ResultStore(tmp_path / "partial")
        resumed = SerialRunner(store=resume_store).run(self.GRID)
        assert resume_store.hits == partial
        assert resume_store.misses == len(self.GRID) - partial
        assert resumed.to_dict() == SerialRunner().run(self.GRID).to_dict()

    def test_interrupt_without_store_still_propagates(self, monkeypatch):
        from repro.api import runner as runner_module

        monkeypatch.setattr(
            runner_module, "ProcessPoolExecutor", self._InterruptingPool
        )
        monkeypatch.setattr(runner_module, "_WORKER_CACHE", None)
        with pytest.raises(KeyboardInterrupt):
            ParallelRunner(jobs=2).run(self.GRID)

    def test_terminate_pool_kills_processes(self):
        from repro.api.runner import _terminate_pool

        class _Process:
            def __init__(self):
                self.terminated = False

            def terminate(self):
                self.terminated = True

        class _Pool:
            def __init__(self):
                self._processes = {1: _Process(), 2: _Process()}
                self.shutdown_args = None

            def shutdown(self, wait=True, cancel_futures=False):
                self.shutdown_args = (wait, cancel_futures)

        pool = _Pool()
        _terminate_pool(pool)
        assert pool.shutdown_args == (False, True)
        assert all(p.terminated for p in pool._processes.values())


def _exploding_chunk(specs):
    """Pool-worker stand-in that dies before producing a result (top-level
    so the pool can pickle it by name; fork workers share the module)."""
    os._exit(3)


def _shm_entries():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


class TestTraceGroupedDispatch:
    """ParallelRunner sends all cells of one trace to one worker as one
    chunk (split only past the balance cap), largest chunk first; workers
    synthesize their own traces from the specs."""

    FIG9_LIKE = spec_grid(
        ["astar", "gcc", "mcf", "water", "bzip"],
        ["memleak", "addrcheck", "memcheck"],
        [SystemConfig(), SystemConfig(fade_enabled=False)],
        TINY,
    )

    def test_no_trace_group_split_below_the_cap(self):
        import math

        from repro.api.runner import _trace_chunks, _trace_key

        specs = self.FIG9_LIKE
        workers = 2
        cap = math.ceil(len(specs) / (workers * 4))
        chunks = _trace_chunks(specs, workers)
        assert sorted(i for chunk in chunks for i in chunk) == list(
            range(len(specs))
        )
        assert [len(c) for c in chunks] == sorted(
            (len(c) for c in chunks), reverse=True
        )
        groups = {}
        for number, chunk in enumerate(chunks):
            keys = {_trace_key(specs[i]) for i in chunk}
            assert len(keys) == 1  # One trace per chunk.
            groups.setdefault(keys.pop(), []).append(number)
        for key, numbers in groups.items():
            size = sum(1 for spec in specs if _trace_key(spec) == key)
            if size <= cap:
                assert len(numbers) == 1, f"{key[0]} split below the cap"
            else:
                assert all(len(chunks[n]) <= cap for n in numbers)

    def test_one_trace_grid_splits_across_workers(self):
        from repro.api.runner import _trace_chunks

        configs = [
            SystemConfig(fsq_capacity=capacity, event_queue_capacity=queue)
            for capacity in (1, 2, 4, 8, 16)
            for queue in (2, 4, 8, 16)
        ]
        specs = spec_grid(["astar"], ["memleak", "addrcheck"], configs, TINY)
        assert len(specs) == 40
        chunks = _trace_chunks(specs, 2)
        assert len(chunks) == 8 and all(len(chunk) == 5 for chunk in chunks)
        parallel = ParallelRunner(jobs=2).run(specs)
        serial = SerialRunner().run(specs)
        assert json.dumps(parallel.to_dict(), sort_keys=True) == json.dumps(
            serial.to_dict(), sort_keys=True
        )

    def test_inline_profile_grid_matches_serial(self):
        from repro.verify.fuzz import WorkloadFuzzer

        fuzzer = WorkloadFuzzer(3)
        specs = []
        for _ in range(3):
            spec = fuzzer.next_case().spec
            specs += [spec, spec.replace(monitor="memleak")]
        assert all(spec.profile is not None for spec in specs)
        parallel = ParallelRunner(jobs=2).run(specs)
        assert parallel.to_dict() == SerialRunner().run(specs).to_dict()

    def test_dead_worker_grid_falls_back_serially(self, monkeypatch):
        """A pool whose workers die immediately degrades to serial
        execution (BrokenProcessPool handling) without losing results."""
        from repro.api import runner as runner_module
        from repro.verify.oracle import result_digest

        monkeypatch.setattr(runner_module, "_worker_run_chunk", _exploding_chunk)
        specs = [
            RunSpec("astar", "memleak", SystemConfig(), TINY),
            RunSpec("astar", "addrcheck", SystemConfig(), TINY),
        ]
        expected = [
            result_digest(SerialRunner().run_one(spec)) for spec in specs
        ]
        with pytest.warns(RuntimeWarning, match="running serially"):
            results = ParallelRunner(jobs=2).run(specs)
        assert [result_digest(r) for r in results.results] == expected

    def test_worker_death_during_submission_falls_back_serially(
        self, monkeypatch
    ):
        """Regression: when a worker dies before the remaining chunks are
        submitted, submit() itself raises BrokenProcessPool; that must take
        the same retry-then-serial path, not escape the runner."""
        import time
        from concurrent.futures import ProcessPoolExecutor

        from repro.api import runner as runner_module
        from repro.verify.oracle import result_digest

        submit = ProcessPoolExecutor.submit

        def submit_then_wait_for_breakage(pool, *args, **kwargs):
            future = submit(pool, *args, **kwargs)
            deadline = time.monotonic() + 10.0
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.005)
            return future

        monkeypatch.setattr(
            ProcessPoolExecutor, "submit", submit_then_wait_for_breakage
        )
        monkeypatch.setattr(runner_module, "_worker_run_chunk", _exploding_chunk)
        specs = [
            RunSpec("astar", "memleak", SystemConfig(), TINY),
            RunSpec("astar", "addrcheck", SystemConfig(), TINY),
        ]
        expected = [
            result_digest(SerialRunner().run_one(spec)) for spec in specs
        ]
        with pytest.warns(RuntimeWarning, match="running serially"):
            results = ParallelRunner(jobs=2).run(specs)
        assert [result_digest(r) for r in results.results] == expected

    def test_parallel_runner_creates_no_shared_memory(self):
        before = _shm_entries()
        ParallelRunner(jobs=2).run(self.FIG9_LIKE[:8])
        assert _shm_entries() - before == set()


# ----------------------------------------------------------------- harvest

SETTINGS = ExperimentSettings(num_instructions=2500, seed=9)


def _chunk_raise_or_die(specs):
    """Pool-chunk stand-in (top-level so fork workers resolve it).

    Equal-sized chunks keep the sorted benchmark order, so the parent
    blocks on the astar chunk's future first.  The mcf chunk fails deterministically
    right away; the astar chunk waits for that failure (and for its
    delivery to the parent) and then dies hard — so the parent sees
    BrokenProcessPool *before* it ever harvests the mcf future, which is
    exactly the window where the old harvest swallowed the real error.
    """
    base = pathlib.Path(os.environ["REPRO_TEST_CHUNK_DIR"])
    if specs[0].benchmark == "mcf":
        with open(base / "attempts", "a") as handle:
            handle.write("x\n")
        (base / "marker").touch()
        raise ValueError("deterministic spec failure")
    deadline = time.time() + 30
    while not (base / "marker").exists() and time.time() < deadline:
        time.sleep(0.01)
    # Give the parent time to receive the mcf chunk's exception before the
    # pool breaks, so its future carries ValueError, not pool death.
    time.sleep(1.0)
    os._exit(1)


class TestPoolHarvestClassification:
    def test_pool_break_does_not_swallow_spec_error(
        self, monkeypatch, tmp_path
    ):
        """Regression: a deterministic per-spec failure harvested during
        pool breakage must fail fast with the original exception — the old
        harvest swallowed it, retried the doomed chunk, and the serial
        fallback then silently recomputed a 'successful' grid."""
        from repro.api import runner as runner_module

        monkeypatch.setattr(
            runner_module, "_worker_run_chunk", _chunk_raise_or_die
        )
        monkeypatch.setenv("REPRO_TEST_CHUNK_DIR", str(tmp_path))
        specs = [
            RunSpec("astar", "memleak", SystemConfig(), SETTINGS),
            RunSpec("mcf", "memleak", SystemConfig(), SETTINGS),
        ]
        runner = ParallelRunner(jobs=2)
        with pytest.raises(ValueError, match="deterministic spec failure"):
            runner.run(specs)
        attempts = (tmp_path / "attempts").read_text().count("x")
        assert attempts == 1
