"""Tests for the repro.api execution layer: RunSpec, registries, runners,
caches and ResultSets."""

import dataclasses
import json
import os
import pathlib
import time
import warnings

import pytest

from repro import quick_run
from repro.api import (
    ExperimentSettings,
    LruCache,
    ParallelRunner,
    ResultSet,
    RunSpec,
    RunnerCache,
    register_monitor,
    register_profile,
    content_key,
    spec_grid,
)
from repro.api.runner import build_simulation
from repro.common.errors import ConfigurationError, SimulationError
from repro.cores.base import CoreType
from repro.fade.md_cache import MetadataCacheConfig
from repro.mem.hierarchy import HierarchyConfig
from repro.monitors import MONITOR_REGISTRY, create_monitor, monitor_names
from repro.monitors.memleak import MemLeak
from repro.system.config import SystemConfig, Topology
from repro.workload.profile import BenchmarkProfile
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

    def test_partial_mappings_fill_in_from_the_defaults(self):
        spec = RunSpec.from_dict({
            "benchmark": "heap-storm",
            "monitor": "memleak",
            "config": {"hierarchy": {"l1": {"latency": 3}},
                       "md_cache": {"tlb_entries": 32}},
            "settings": {"seed": 5},
            "profile": {"name": "heap-storm", "malloc_rate": 0.05},
        })
        default = SystemConfig()
        assert spec == RunSpec(
            "heap-storm", "memleak",
            SystemConfig(
                hierarchy=dataclasses.replace(
                    default.hierarchy,
                    l1=dataclasses.replace(default.hierarchy.l1, latency=3),
                ),
                md_cache=MetadataCacheConfig(tlb_entries=32),
            ),
            ExperimentSettings(seed=5),
            profile=BenchmarkProfile("heap-storm", malloc_rate=0.05),
        )

    @pytest.mark.parametrize("data, message", [
        ({"monitor": "memleak"}, "missing required field(s) benchmark"),
        ({"benchmark": "x", "monitor": "memleak", "profile": {"locality": 0.5}},
         "missing required field(s) profile.name"),
        ({"benchmark": "astar", "monitor": "memleak",
          "config": {"hierarchy": {"l1": {"latency": -1}}}},
         "config.hierarchy.l1: latency must be an integer of at least 0"),
        ({"benchmark": "astar", "monitor": "memleak",
          "config": {"hierarchy": {"l2": {"size_bytes": 1000}}}},
         "config.hierarchy.l2: size_bytes 1000 not divisible"),
        ({"benchmark": "astar", "monitor": "memleak", "settings": 3},
         "settings must be a mapping, got int"),
        ({"benchmark": "x", "monitor": "memleak",
          "profile": {"name": "x", "locality": "high"}},
         "profile: "),
        (["astar"], "RunSpec must be a mapping, got list"),
    ])
    def test_bad_mappings_are_named_by_path(self, data, message):
        with pytest.raises(ConfigurationError) as excinfo:
            RunSpec.from_dict(data)
        assert message in str(excinfo.value)

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

    @pytest.mark.parametrize("config", [
        SystemConfig(),
        SystemConfig(
            core_type="ooo2", topology="two-core", fade_enabled=False,
            event_queue_capacity=None, engine="naive",
            md_cache=MetadataCacheConfig(size_bytes=8192, tlb_entries=32),
            hierarchy=HierarchyConfig(dram_latency=120),
        ),
    ])
    def test_to_dict_equals_asdict(self, config):
        # The shallow field walk must encode exactly what the deep copy
        # did, key order included: every store key hashes this dict.
        expected = dataclasses.asdict(config)
        expected["core_type"] = config.core_type.value
        expected["topology"] = config.topology.value
        encoded = config.to_dict()
        assert encoded == expected
        assert list(encoded) == list(expected)
        assert list(encoded["hierarchy"]["l1"]) == list(
            expected["hierarchy"]["l1"]
        )


#: (field, value) pairs a SystemConfig must refuse: a bool field takes
#: only a bool, and a count only an int (never a bool) within its range.
BAD_SCALAR_FIELDS = [
    ("fade_enabled", "false"),
    ("fade_enabled", 0),
    ("non_blocking", "true"),
    ("stack_update_drain", 1),
    ("fsq_capacity", True),
    ("fsq_capacity", 1.5),
    ("event_queue_capacity", 0),
    ("event_queue_capacity", False),
    ("unfiltered_queue_capacity", "16"),
    ("max_cycles", 0),
    ("max_cycles", -5),
    ("max_cycles", 1.5),
]


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

    @pytest.mark.parametrize("field,value", BAD_SCALAR_FIELDS)
    def test_bad_scalar_field_names_the_field(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SystemConfig(**{field: value})
        with pytest.raises(ConfigurationError, match=field):
            SystemConfig.from_dict({**SystemConfig().to_dict(), field: value})
        with pytest.raises(ConfigurationError, match=field):
            RunSpec.from_dict({
                **RunSpec("astar", "memleak", settings=TINY).to_dict(),
                "config": {**SystemConfig().to_dict(), field: value},
            })

    def test_scalar_edges_accepted(self):
        SystemConfig(max_cycles=1, event_queue_capacity=None,
                     fade_enabled=False)


class TestExperimentSettingsValidation:
    @pytest.mark.parametrize("count", [0, -5, 2.5, "5", True])
    def test_bad_num_instructions_rejected(self, count):
        with pytest.raises(ConfigurationError, match="num_instructions"):
            ExperimentSettings(num_instructions=count)

    @pytest.mark.parametrize("seed", [1.5, "7", None, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            ExperimentSettings(seed=seed)
        with pytest.raises(ConfigurationError, match="seed"):
            RunSpec.from_dict({
                **RunSpec("astar", "memleak", settings=TINY).to_dict(),
                "settings": {**TINY.to_dict(), "seed": seed},
            })

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

    @pytest.mark.parametrize("settings", [
        ExperimentSettings(),
        ExperimentSettings(num_instructions=3000, seed=5, warmup_fraction=0),
    ])
    def test_to_dict_equals_asdict(self, settings):
        encoded = settings.to_dict()
        assert encoded == dataclasses.asdict(settings)
        assert list(encoded) == list(dataclasses.asdict(settings))
        assert type(encoded["warmup_fraction"]) is type(
            settings.warmup_fraction
        )

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

    def test_monitor_replacement_changes_the_simulations_plan(self):
        class QuietLeak(MemLeak):
            monitored_op_classes = frozenset()  # Wants nothing.

        cache = RunnerCache()
        register_monitor("mutantleak", MemLeak)
        try:
            spec = RunSpec("astar", "mutantleak", settings=TINY)
            before = build_simulation(spec, cache).result
            register_monitor("mutantleak", QuietLeak, replace=True)
            after = build_simulation(spec, cache).result
            assert after.monitored_events == 0
            assert before.monitored_events > 0
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
        results = ParallelRunner(jobs=1).run(self.GRID)
        assert results.specs == self.GRID

    def test_serial_and_parallel_are_deterministic(self):
        serial = ParallelRunner(jobs=1).run(self.GRID)
        parallel = ParallelRunner(jobs=2).run(self.GRID)
        assert serial == parallel  # Same specs, bit-identical RunResults.

    def test_parallel_falls_back_serially_for_single_spec(self):
        runner = ParallelRunner(jobs=4)
        results = runner.run(self.GRID[:1])
        assert len(results) == 1
        assert results[0].result == ParallelRunner(jobs=1).run(self.GRID[:1])[0].result

    def test_run_one_matches_run(self):
        spec = self.GRID[0]
        runner = ParallelRunner(jobs=1)
        assert runner.run_one(spec) == runner.run([spec]).results[0]

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_parallel_runner_rejects_fewer_than_one_job(self, jobs):
        with pytest.raises(ConfigurationError, match="jobs"):
            ParallelRunner(jobs=jobs)

    @staticmethod
    def _bench_runner(monkeypatch, jobs):
        """``benchmarks/common.py``'s shared runner under
        ``REPRO_BENCH_JOBS=jobs`` (None: unset)."""
        import importlib.util

        if jobs is None:
            monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
        else:
            monkeypatch.setenv("REPRO_BENCH_JOBS", jobs)
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        path = pathlib.Path(__file__).parent.parent / "benchmarks" / "common.py"
        spec = importlib.util.spec_from_file_location("bench_common", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.BENCH_RUNNER

    def test_bench_jobs_default_to_one_and_reject_zero(self, monkeypatch):
        assert self._bench_runner(monkeypatch, None).jobs == 1
        assert self._bench_runner(monkeypatch, "2").jobs == 2
        for jobs in ("0", "-1"):
            with pytest.raises(ConfigurationError, match="jobs"):
                self._bench_runner(monkeypatch, jobs)


class TestResultSet:
    @pytest.fixture(scope="class")
    def results(self):
        return ParallelRunner(jobs=1).run(TestRunners.GRID)

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
        def __init__(self, batch=None, error=None, done=None):
            self._batch = batch
            self._error = error
            self._done = batch is not None if done is None else done

        def done(self):
            return self._done

        def cancelled(self):
            return False

        def exception(self):
            return self._error

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
            "concurrent.futures.ProcessPoolExecutor", self._InterruptingPool
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

        # The re-run (here: an in-process runner on the same store) serves
        # the persisted chunk warm and recomputes just the killed cells —
        # bit-identical to an uninterrupted run.
        resume_store = ResultStore(tmp_path / "partial")
        resumed = ParallelRunner(jobs=1, store=resume_store).run(self.GRID)
        assert resume_store.hits == partial
        assert resume_store.misses == len(self.GRID) - partial
        assert resumed.to_dict() == ParallelRunner(jobs=1).run(self.GRID).to_dict()

    @staticmethod
    def _count_puts(store, monkeypatch):
        """The content keys ``store.put`` is called with, in call order."""
        puts = []
        put = store.put

        def counting_put(spec, result):
            puts.append(content_key(spec))
            put(spec, result)

        monkeypatch.setattr(store, "put", counting_put)
        return puts

    def test_each_finished_chunk_is_stored_once(self, tmp_path,
                                                monkeypatch):
        from repro.api import ResultStore
        from repro.api import runner as runner_module

        monkeypatch.setattr(
            "concurrent.futures.ProcessPoolExecutor", self._InterruptingPool
        )
        monkeypatch.setattr(runner_module, "_WORKER_CACHE", None)
        store = ResultStore(tmp_path / "partial")
        puts = self._count_puts(store, monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            ParallelRunner(jobs=2, store=store).run(self.GRID)
        assert 0 < len(store) == len(puts) == len(set(puts))

    def test_interrupt_after_a_pool_rebuild_keeps_both_rounds(
        self, tmp_path, monkeypatch
    ):
        # Round one finishes its first chunk and the pool breaks under the
        # rest; on the rebuilt pool the first resubmitted chunk finishes,
        # then Ctrl-C.  Both finished chunks are stored, each once.
        from concurrent.futures.process import BrokenProcessPool

        from repro.api import ResultStore
        from repro.api import runner as runner_module

        fake = self._FakeFuture
        rounds = []

        class BreakingThenInterruptingPool(self._InterruptingPool):
            def __init__(self, *args, **kwargs):
                super().__init__()
                rounds.append(self)

            def submit(self, fn, payload):
                self.submitted += 1
                if self.submitted == 1:
                    return fake(batch=fn(payload))
                if len(rounds) == 1:
                    return fake(error=BrokenProcessPool(), done=True)
                return fake(error=KeyboardInterrupt())

        monkeypatch.setattr(
            "concurrent.futures.ProcessPoolExecutor",
            BreakingThenInterruptingPool,
        )
        monkeypatch.setattr(runner_module, "_WORKER_CACHE", None)
        store = ResultStore(tmp_path / "partial")
        puts = self._count_puts(store, monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(KeyboardInterrupt):
                ParallelRunner(jobs=2, store=store).run(self.GRID)
        first, second = runner_module._trace_chunks(self.GRID, 2)[:2]
        finished = len(first) + len(second)
        assert len(rounds) == 2
        assert len(store) == len(puts) == len(set(puts)) == finished

        resume_store = ResultStore(tmp_path / "partial")
        resumed = ParallelRunner(jobs=1, store=resume_store).run(self.GRID)
        assert resume_store.hits == finished
        assert resumed.to_dict() == ParallelRunner(jobs=1).run(self.GRID).to_dict()

    def test_interrupt_without_store_still_propagates(self, monkeypatch):
        from repro.api import runner as runner_module

        monkeypatch.setattr(
            "concurrent.futures.ProcessPoolExecutor", self._InterruptingPool
        )
        monkeypatch.setattr(runner_module, "_WORKER_CACHE", None)
        with pytest.raises(KeyboardInterrupt):
            ParallelRunner(jobs=2).run(self.GRID)

    def test_terminate_pool_kills_processes(self):
        # A worker busy with an uninterruptible task dies at once, not
        # when the task ends; queued work is cancelled, the call does not
        # wait, and the terminated workers are returned.
        from repro.api.runner import _terminate_pool, new_worker_pool

        pool = new_worker_pool(1, persist=False)
        running = pool.submit(time.sleep, 30)
        # The call queue holds two tasks, so the last one stays pending.
        queued = [pool.submit(time.sleep, 30) for _ in range(3)]
        deadline = time.monotonic() + 10.0
        while not running.running() and time.monotonic() < deadline:
            time.sleep(0.01)
        workers = list(pool._processes.values())
        started = time.monotonic()
        assert _terminate_pool(pool) == workers
        assert time.monotonic() - started < 1.0
        # The executor's manager thread sweeps pending work after the call.
        deadline = time.monotonic() + 5.0
        while not queued[-1].done() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert queued[-1].cancelled()
        deadline = time.monotonic() + 5.0
        while any(w.is_alive() for w in workers) and (
            time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert not any(worker.is_alive() for worker in workers)


class TestOneStoreRule:
    """Every cell a grid finishes is stored as it is harvested, in-process
    and over a pool alike, whatever ends the grid."""

    TWO_K = ExperimentSettings(num_instructions=2000, seed=5)
    GOOD = spec_grid(
        ["astar", "mcf"],
        ["memleak"],
        [SystemConfig(), SystemConfig(fade_enabled=False)],
        TWO_K,
    )
    # Its own trace, sorted after the good cells, so a pool harvests it
    # last; ten cycles cannot finish any cell.
    FAILING = RunSpec("water", "memleak", SystemConfig(max_cycles=10), TWO_K)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_last_spec_leaves_every_finished_cell_stored(
        self, tmp_path, jobs
    ):
        from repro.api import ResultStore

        with pytest.raises(SimulationError, match="cycle limit"):
            ParallelRunner(jobs, store=ResultStore(tmp_path)).run(
                [*self.GOOD, self.FAILING]
            )
        store = ResultStore(tmp_path)
        assert len(store) == len(self.GOOD)
        rerun = ParallelRunner(jobs, store=store).run(self.GOOD)
        assert store.hits == len(self.GOOD) and store.misses == 0
        uninterrupted = ParallelRunner(jobs=1).run(self.GOOD)
        assert rerun.to_dict() == uninterrupted.to_dict()

    def test_failing_spec_keeps_its_chunk_mates(self, tmp_path):
        # One trace: the failing spec shares a pool chunk with good cells,
        # which its worker finished first.
        from repro.api import ResultStore
        from repro.api import runner as runner_module

        good = [
            RunSpec("astar", "memleak", SystemConfig(fsq_capacity=capacity,
                                                     event_queue_capacity=queue),
                    TINY)
            for capacity in (1, 2, 4, 8)
            for queue in (2, 4, 8, 16)
        ]
        failing = good[0].replace(config=SystemConfig(max_cycles=10))
        chunks = runner_module._trace_chunks([*good, failing], 2)
        assert any(len(good) in chunk and len(chunk) > 1 for chunk in chunks)
        with pytest.raises(SimulationError, match="cycle limit"):
            ParallelRunner(2, store=ResultStore(tmp_path)).run(
                [*good, failing]
            )
        assert len(ResultStore(tmp_path)) == len(good)

    def test_interrupt_in_process_keeps_the_cells_before_it(
        self, tmp_path, monkeypatch
    ):
        from repro.api import ResultStore
        from repro.api import runner as runner_module

        execute = runner_module.execute_spec
        calls = []

        def interrupt_third(spec, cache=None, store=None):
            calls.append(spec)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return execute(spec, cache, store)

        monkeypatch.setattr(runner_module, "execute_spec", interrupt_third)
        with pytest.raises(KeyboardInterrupt):
            ParallelRunner(1, store=ResultStore(tmp_path)).run(self.GOOD)
        store = ResultStore(tmp_path)
        assert [store.get(spec) is not None for spec in self.GOOD] == [
            True, True, False, False
        ]

    def test_pool_fallback_runs_only_unfinished_chunks(self, monkeypatch):
        # The first chunk finishes on the pool; the second reports a
        # ConfigurationError (a worker that cannot see this process's
        # registrations).  Only the chunks left unfinished run in-process.
        from repro.api import runner as runner_module

        fake = TestGracefulInterrupt._FakeFuture

        class UnregisteredPool(TestGracefulInterrupt._InterruptingPool):
            def submit(self, fn, payload):
                self.submitted += 1
                if self.submitted == 1:
                    return fake(batch=fn(payload))
                return fake(error=ConfigurationError("unknown"), done=True)

        monkeypatch.setattr(
            "concurrent.futures.ProcessPoolExecutor", UnregisteredPool
        )
        monkeypatch.setattr(runner_module, "_WORKER_CACHE", None)
        execute = runner_module.execute_spec
        computed = []

        def counting(spec, cache=None, store=None):
            computed.append(spec)
            return execute(spec, cache, store)

        monkeypatch.setattr(runner_module, "execute_spec", counting)
        grid = TestGracefulInterrupt.GRID
        with pytest.warns(RuntimeWarning, match="running serially"):
            results = ParallelRunner(jobs=2).run(grid)
        assert sorted(map(content_key, computed)) == sorted(
            map(content_key, grid)
        )  # Each cell computed once.
        assert results.to_dict() == ParallelRunner(jobs=1).run(grid).to_dict()

    def test_failing_store_write_tears_the_pool_down(self, tmp_path,
                                                     monkeypatch):
        from repro.api import ResultStore
        from repro.api import runner as runner_module

        torn_down = []
        terminate = runner_module._terminate_pool

        def recording(pool):
            torn_down.append(pool)
            return terminate(pool)

        monkeypatch.setattr(runner_module, "_terminate_pool", recording)
        store = ResultStore(tmp_path)

        def unwritable(spec, result):
            raise OSError("disk full")

        monkeypatch.setattr(store, "put", unwritable)
        with pytest.raises(OSError, match="disk full"):
            ParallelRunner(jobs=2, store=store).run(self.GOOD)
        assert len(torn_down) == 1


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
        serial = ParallelRunner(jobs=1).run(specs)
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
        assert parallel.to_dict() == ParallelRunner(jobs=1).run(specs).to_dict()

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
            result_digest(ParallelRunner(jobs=1).run_one(spec)) for spec in specs
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
            result_digest(ParallelRunner(jobs=1).run_one(spec)) for spec in specs
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
