"""The content-addressed ResultStore and the runner paths around it:
store hits are bit-identical to recomputation, keys invalidate on any input
change, and serial / parallel / warm-store execution of the same grid agree
byte for byte.
"""

import concurrent.futures
import dataclasses
import json
import multiprocessing
import warnings

import pytest

from repro import cli
from repro.api import (
    ExperimentSettings,
    ParallelRunner,
    ResultStore,
    RunSpec,
    content_key,
    register_monitor,
    register_profile,
    run_specs,
    spec_grid,
)
from repro.api import runner as runner_module
from repro.common.errors import ConfigurationError, SimulationError
from repro.monitors import MONITOR_REGISTRY
from repro.monitors.memleak import MemLeak
from repro.system.config import SystemConfig
from repro.workload.profiles import PROFILE_REGISTRY, get_profile

TINY = ExperimentSettings(num_instructions=1500, seed=11)

GRID = spec_grid(
    ["astar", "mcf"],
    ["memleak", "addrcheck"],
    [SystemConfig(), SystemConfig(fade_enabled=False)],
    TINY,
)


class TestResultStore:
    def test_hit_is_bit_identical_to_recompute(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        cold = ParallelRunner(jobs=1, store=store).run(GRID)
        assert store.hits == 0 and store.misses == len(GRID)

        warm_store = ResultStore(tmp_path / "cache")
        warm = ParallelRunner(jobs=1, store=warm_store).run(GRID)
        assert warm_store.hits == len(GRID) and warm_store.misses == 0

        plain = ParallelRunner(jobs=1).run(GRID)
        assert cold.to_dict() == warm.to_dict() == plain.to_dict()

    def test_key_changes_on_every_spec_axis(self, tmp_path):
        store = ResultStore(tmp_path)
        base = GRID[0]
        variants = [
            base.replace(benchmark="mcf"),
            base.replace(monitor="addrcheck"),
            base.replace(config=SystemConfig(fade_enabled=False)),
            base.replace(settings=dataclasses.replace(TINY, num_instructions=3000)),
        ]
        keys = {store.key(spec) for spec in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_profile_replacement_invalidates(self, tmp_path):
        store = ResultStore(tmp_path)
        base = get_profile("astar")
        register_profile(dataclasses.replace(base, name="storemut"))
        try:
            spec = GRID[0].replace(benchmark="storemut")
            before = store.key(spec)
            register_profile(
                dataclasses.replace(base, name="storemut", locality=0.5),
                replace=True,
            )
            assert store.key(spec) != before
        finally:
            PROFILE_REGISTRY.unregister("storemut")

    def test_monitor_replacement_invalidates(self, tmp_path):
        store = ResultStore(tmp_path)

        class OtherLeak(MemLeak):
            pass

        register_monitor("storeleak", MemLeak)
        try:
            spec = GRID[0].replace(monitor="storeleak")
            before = store.key(spec)
            register_monitor("storeleak", OtherLeak, replace=True)
            assert store.key(spec) != before
        finally:
            MONITOR_REGISTRY.unregister("storeleak")

    def test_trace_schema_version_invalidates(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        before = store.key(GRID[0])
        monkeypatch.setattr("repro.workload.trace.TRACE_SCHEMA_VERSION", 999)
        assert store.key(GRID[0]) != before

    def test_corrupt_entry_is_a_miss_and_recomputed(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = GRID[0]
        result = ParallelRunner(jobs=1, store=store).run_one(spec)
        entry = store._entry_path(store.key(spec))
        entry.write_text("{ truncated garbage")
        reread = store.get(spec)
        assert reread is None
        assert not entry.exists()  # Corrupt entry dropped.
        again = ParallelRunner(jobs=1, store=store).run_one(spec)
        assert again.to_dict() == result.to_dict()

    @pytest.mark.parametrize("field, value, path", [
        ("cycles", float("nan"), "cycles"),
        ("baseline_cycles", float("inf"), "baseline_cycles"),
    ])
    def test_put_refuses_non_finite_metrics(self, tmp_path, field, value,
                                            path):
        store = ResultStore(tmp_path)
        spec = GRID[0]
        result = ParallelRunner(jobs=1).run_one(spec)
        setattr(result, field, value)
        with pytest.raises(SimulationError, match=repr(path)):
            store.put(spec, result)
        assert store.get(spec) is None and len(store) == 0

    def test_put_names_a_nested_non_finite_metric(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = GRID[0]
        result = ParallelRunner(jobs=1).run_one(spec)
        handler_class = next(iter(result.handler_instructions))
        result.handler_instructions[handler_class] = float("-inf")
        with pytest.raises(SimulationError) as raised:
            store.put(spec, result)
        assert f"handler_instructions.{handler_class.value}" in str(
            raised.value
        )
        assert len(store) == 0

    def test_stats_and_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        ParallelRunner(jobs=1, store=store).run(GRID[:2])
        stats = store.stats()
        assert stats["entries"] == 2 and stats["bytes"] > 0
        assert len(store) == 2
        assert store.clear() == 2
        assert len(store) == 0

    def test_orphaned_temp_file_is_not_an_entry(self, tmp_path):
        # A writer killed between mkstemp and os.replace leaves its temp
        # file beside the real entries; it is neither counted nor a shard.
        store = ResultStore(tmp_path)
        spec = GRID[0]
        ParallelRunner(jobs=1, store=store).run_one(spec)
        entry = store._entry_path(store.key(spec))
        orphan = entry.parent / ".tmp-x.json"
        orphan.write_text('{"result": {"benchmark"')
        stats = store.stats()
        assert len(store) == 1 and stats["entries"] == 1
        assert list(stats["shards"]) == [entry.parent.name]
        assert stats["bytes"] == entry.stat().st_size
        assert store.clear() == 1
        assert not orphan.exists()

    def test_run_specs_accepts_store(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_specs(GRID[:2], store=store)
        second = run_specs(GRID[:2], store=ResultStore(tmp_path))
        assert first.to_dict() == second.to_dict()

    def test_run_specs_never_mutates_the_callers_runner(self, tmp_path):
        runner = ParallelRunner(jobs=1)
        run_specs(GRID[:1], runner=runner, store=ResultStore(tmp_path))
        assert runner.store is None  # Store was scoped to that call only.

    def test_run_specs_shares_the_default_runners_cache(self):
        from repro.api import default_runner

        shared = default_runner()
        assert shared.jobs == 1 and shared.store is None
        spec = GRID[0].replace(settings=ExperimentSettings(1500, seed=41))
        before = shared.cache.stats()["trace_misses"]
        run_specs([spec])
        assert default_runner() is shared  # Untouched.
        assert shared.cache.stats()["trace_misses"] == before + 1

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_run_specs_rejects_fewer_than_one_job(self, jobs):
        with pytest.raises(ConfigurationError, match="jobs"):
            run_specs(GRID[:1], jobs=jobs)
        with pytest.raises(ConfigurationError, match="jobs"):
            run_specs(GRID[:1], jobs=jobs, runner=ParallelRunner(jobs=1))


class TestContentKey:
    """Every existing store (CI's sqlite one included) is addressed by
    these digests, so a serialization change that re-keys them must fail
    here, not only miss in the field."""

    def test_registry_spec_with_default_config(self):
        assert content_key(RunSpec("astar", "memleak")) == (
            "91b5f8c44f5611c30b1501fd3408b52bc964c089578583dcb4e3e1f5a563437c"
        )

    def test_spec_with_non_default_values(self):
        spec = RunSpec(
            "mcf",
            "addrcheck",
            SystemConfig(
                core_type="ooo2", topology="two-core", fade_enabled=False,
                engine="naive", event_queue_capacity=None,
            ),
            ExperimentSettings(num_instructions=3000, seed=5),
        )
        assert content_key(spec) == (
            "d67b0e3f19b87302e6e41ebd2f1fccd70d7d7fe14d496bc6fdd2981ce90ef0c7"
        )

    def test_inline_profile_spec(self):
        spec = RunSpec(
            "synthetic",
            "taintcheck",
            settings=ExperimentSettings(num_instructions=2000, seed=9),
            profile=dataclasses.replace(
                get_profile("bzip"), name="synthetic", locality=0.5
            ),
        )
        assert content_key(spec) == (
            "d6494554d532e272515b67e568a62e828cc5d3cb0c06d54296e78e4ce2c845d5"
        )

    def test_equal_specs_that_serialize_apart_keep_their_own_keys(self):
        # 0.0 == -0.0, so these specs compare (and hash) equal, yet their
        # canonical JSON differs, and so does their key.
        a = RunSpec("astar", "memleak",
                    settings=ExperimentSettings(warmup_fraction=0.0))
        b = RunSpec("astar", "memleak",
                    settings=ExperimentSettings(warmup_fraction=-0.0))
        assert a == b
        assert content_key(a) != content_key(b)

    def test_a_float_seed_equal_to_an_int_is_rejected_not_keyed(self):
        # 7 == 7.0: if accepted, it would run as seed 7 under a key of its
        # own.
        with pytest.raises(ConfigurationError, match="seed"):
            ExperimentSettings(seed=7.0)


class TestCrossProcessDeterminism:
    def test_serial_parallel_and_warm_store_agree(self, tmp_path):
        """The satellite guarantee: in-process and fork-pool (trace-grouped
        chunks) ParallelRunners and a warm ResultStore produce identical
        ResultSet JSON for the same specs."""
        serial = ParallelRunner(jobs=1).run(GRID)
        parallel = ParallelRunner(jobs=2).run(GRID)

        store = ResultStore(tmp_path / "cache")
        ParallelRunner(jobs=1, store=store).run(GRID)  # Populate.
        warm_store = ResultStore(tmp_path / "cache")
        warmed = ParallelRunner(jobs=2, store=warm_store).run(GRID)
        assert warm_store.hits == len(GRID)

        reference = json.dumps(serial.to_dict(), sort_keys=True)
        assert json.dumps(parallel.to_dict(), sort_keys=True) == reference
        assert json.dumps(warmed.to_dict(), sort_keys=True) == reference

    def test_parallel_without_trace_sharing_matches(self):
        """Workers synthesize their own traces (the parent ships specs
        only) and still match serial execution."""
        runner = ParallelRunner(jobs=2)
        parallel = runner.run(GRID)
        assert runner.cache.stats()["traces"] == 0  # Parent built none.
        assert parallel.to_dict() == ParallelRunner(jobs=1).run(GRID).to_dict()


class TestChunkingHeuristic:
    def test_tiny_grid_runs_serially(self, monkeypatch):
        """Grids smaller than the worker count never pay pool startup."""

        def exploding_pool(*args, **kwargs):
            raise AssertionError("tiny grid must not create a process pool")

        monkeypatch.setattr(
            "concurrent.futures.ProcessPoolExecutor", exploding_pool
        )
        runner = ParallelRunner(jobs=8)
        results = runner.run(GRID[:3])  # 3 specs < 8 jobs.
        assert results.to_dict() == ParallelRunner(jobs=1).run(GRID[:3]).to_dict()

    def test_large_grid_still_uses_the_pool(self, monkeypatch):
        used = {"pool": False}
        real_pool = concurrent.futures.ProcessPoolExecutor

        def counting_pool(*args, **kwargs):
            used["pool"] = True
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(
            "concurrent.futures.ProcessPoolExecutor", counting_pool
        )
        ParallelRunner(jobs=2).run(GRID)
        assert used["pool"]


class TestSpawnWarning:
    def test_warns_once_when_fork_unavailable(self, monkeypatch):
        real_get_context = multiprocessing.get_context

        def no_fork(method=None):
            if method == "fork":
                raise ValueError("fork not supported here")
            return real_get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        monkeypatch.setattr(runner_module, "_SPAWN_WARNING_EMITTED", False)
        runner = ParallelRunner(jobs=2)
        with pytest.warns(RuntimeWarning, match="register_monitor"):
            first = runner.run(GRID)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            second = runner.run(GRID)  # One-time: no second warning.
        assert first.to_dict() == second.to_dict()


class TestCliCache:
    def test_result_cache_flag_and_cache_command(self, tmp_path, capsys):
        cache_dir = tmp_path / "cli-cache"
        assert cli.main(
            ["table2", "-n", "1000", "--result-cache", str(cache_dir)]
        ) == 0
        first = capsys.readouterr().out
        assert cli.main(["cache", "stats", "--result-cache", str(cache_dir)]) == 0
        stats_out = capsys.readouterr().out
        assert "entries: " in stats_out and "entries: 0" not in stats_out
        # Warm re-run prints the identical table.
        assert cli.main(
            ["table2", "-n", "1000", "--result-cache", str(cache_dir)]
        ) == 0
        assert capsys.readouterr().out == first
        assert cli.main(["cache", "clear", "--result-cache", str(cache_dir)]) == 0
        assert "removed" in capsys.readouterr().out
        assert cli.main(["cache", "stats", "--result-cache", str(cache_dir)]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_cache_env_var_default(self, tmp_path, monkeypatch, capsys):
        cache_dir = tmp_path / "env-cache"
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(cache_dir))
        assert cli.main(["run", "-n", "1200"]) == 0
        capsys.readouterr()
        assert cli.main(["cache", "stats"]) == 0
        assert "entries: 1" in capsys.readouterr().out

    def test_cache_command_without_path_errors(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        assert cli.main(["cache", "stats"]) == 1
        assert "result-cache" in capsys.readouterr().err


# --- concurrent writers (top-level: fork-context Process targets) -----------

def _race_writer(path, spec_json, result_json, rounds):
    """Hammer one store entry from a separate process."""
    import json as _json

    from repro.api import RunSpec as _RunSpec
    from repro.api import ResultStore as _ResultStore
    from repro.system.results import RunResult as _RunResult

    store = _ResultStore(path)
    spec = _RunSpec.from_json(spec_json)
    result = _RunResult.from_dict(_json.loads(result_json))
    for _ in range(rounds):
        store.put(spec, result)


class TestConcurrentWriters:
    """Two processes racing puts on the same shard: readers only ever see
    a missing entry or a complete one (atomic replace), corrupt entries
    self-heal while writers race, and no temp files leak."""

    def test_racing_puts_same_entry(self, tmp_path):
        store_path = tmp_path / "race"
        spec = GRID[0]
        store = ResultStore(store_path)
        result = ParallelRunner(jobs=1).run([spec]).results[0]
        expected = json.dumps(result.to_dict(), sort_keys=True)
        payload = (
            str(store_path),
            spec.to_json(),
            json.dumps(result.to_dict()),
            60,
        )
        context = multiprocessing.get_context("fork")
        writers = [
            context.Process(target=_race_writer, args=payload)
            for _ in range(2)
        ]
        for writer in writers:
            writer.start()
        # Read concurrently with the racing writers: every successful get
        # must be the complete entry, bit-identical to the computed result.
        observed_hit = False
        while any(writer.is_alive() for writer in writers):
            hit = store.get(spec)
            if hit is not None:
                observed_hit = True
                assert json.dumps(hit.to_dict(), sort_keys=True) == expected
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        final = store.get(spec)
        assert final is not None and observed_hit
        assert json.dumps(final.to_dict(), sort_keys=True) == expected
        # The atomic-replace protocol leaves no temporary files behind.
        assert not list(store_path.rglob(".tmp-*"))
        assert len(store) == 1

    def test_corrupt_entry_heals_under_concurrent_writer(self, tmp_path):
        store_path = tmp_path / "heal"
        store = ResultStore(store_path)
        corrupt_spec, racing_spec = GRID[0], GRID[1]
        racing_result = ParallelRunner(jobs=1).run([racing_spec]).results[0]
        # Plant a truncated entry for one spec (a crashed writer predating
        # the atomic protocol), then race a healthy writer on another spec
        # in the same store while the parent triggers self-healing.
        entry = store._entry_path(store.key(corrupt_spec))
        entry.parent.mkdir(parents=True, exist_ok=True)
        entry.write_text('{"result": {"benchmark"')
        context = multiprocessing.get_context("fork")
        writer = context.Process(
            target=_race_writer,
            args=(
                str(store_path),
                racing_spec.to_json(),
                json.dumps(racing_result.to_dict()),
                40,
            ),
        )
        writer.start()
        healed = store.get(corrupt_spec)
        writer.join(timeout=60)
        assert writer.exitcode == 0
        assert healed is None  # Corrupt entries read as misses...
        assert not entry.exists()  # ...and are deleted on sight.
        racing_hit = store.get(racing_spec)
        assert racing_hit is not None
        assert json.dumps(racing_hit.to_dict(), sort_keys=True) == json.dumps(
            racing_result.to_dict(), sort_keys=True
        )
