"""The per-machine trace and schedule store behind ``RunnerCache``.

A loaded artifact must be indistinguishable from a regenerated one, a bad
blob must heal instead of raising, keys must cover the generating source,
and results must not depend on whether the store is off, cold or warm.
"""

import asyncio
import dataclasses
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time

import pytest

from repro.api import ExperimentSettings, RunSpec, execute_spec
from repro.api import trace_store as trace_store_module
from repro.api.cache import RunnerCache
from repro.api.trace_store import (
    KEEP_FINGERPRINTS,
    TRACE_STORE_ENV,
    TraceStore,
    default_trace_store,
    default_trace_store_path,
    fingerprint_sources,
)
from repro.cores.base import CoreType
from repro.cores.retire import RetireModel
from repro.mem.hierarchy import HierarchyConfig
from repro.monitors import monitor_names
from repro.service.scheduler import SpecScheduler
from repro.system.config import SystemConfig
from repro.workload import benchmark_names, generate_trace, get_profile
from repro.workload.packed import COLUMN_SPEC

SMALL = ExperimentSettings(num_instructions=1500, seed=3)


def _columns(trace):
    return [bytes(trace._columns[name]) for name, _ in COLUMN_SPEC]


def _blobs(path):
    return list(path.glob("*/??/*.blob"))


def _only_blob(store):
    blobs = _blobs(store.path)
    assert len(blobs) == 1
    return blobs[0]


def _fresh_trace(name="astar", settings=SMALL):
    return RunnerCache().trace(name, settings)


@pytest.fixture
def store(tmp_path, monkeypatch):
    """The configured store, in a directory of this test's own."""
    monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path))
    return default_trace_store()


class TestRoundTrip:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_loaded_trace_columns_are_byte_identical(self, store, name):
        built = _fresh_trace(name)
        cache = RunnerCache()
        loaded = cache.trace(name, SMALL)
        assert cache.stats()["trace_store_hits"] == 1
        regenerated = generate_trace(
            get_profile(name), SMALL.num_instructions, seed=SMALL.seed
        )
        assert loaded is not built
        assert _columns(loaded) == _columns(regenerated)
        assert (loaded.name, loaded.seed) == (regenerated.name,
                                              regenerated.seed)
        assert loaded.column_lists() == regenerated.column_lists()
        assert loaded.items[:50] == regenerated.items[:50]

    @pytest.mark.parametrize("core", list(CoreType))
    def test_loaded_schedule_equals_regenerated(self, store, core):
        RunnerCache().schedule("gcc", SMALL, core)
        cache = RunnerCache()
        loaded = cache.schedule("gcc", SMALL, core)
        assert cache.stats()["schedule_store_hits"] == 1
        assert cache.stats()["trace_misses"] == 0  # No trace was needed.
        profile = get_profile("gcc")
        regenerated = RetireModel(
            core_type=core,
            bubble_prob=profile.bubble_prob,
            bubble_mean=profile.bubble_mean,
            hierarchy_config=HierarchyConfig(),
        ).schedule(generate_trace(profile, SMALL.num_instructions,
                                  seed=SMALL.seed))
        assert loaded == regenerated
        assert all(type(value) is float for value in loaded)

    def test_schedule_keys_cover_core_and_hierarchy(self, tmp_path):
        store = TraceStore(tmp_path)
        profile = get_profile("gcc")
        keys = {
            store.schedule_key(profile, 1500, 3, core, HierarchyConfig())
            for core in CoreType
        }
        keys.add(store.schedule_key(profile, 1500, 3, CoreType.OOO4,
                                    HierarchyConfig(dram_latency=200)))
        assert len(keys) == len(CoreType) + 1

    def test_store_hit_still_counts_as_lru_miss(self, store):
        _fresh_trace()
        cache = RunnerCache()
        cache.trace("astar", SMALL)
        cache.trace("astar", SMALL)
        stats = cache.stats()
        assert stats["trace_misses"] == 1 and stats["trace_hits"] == 1
        assert stats["trace_store_hits"] == 1


class TestDegradation:
    def _regenerates(self):
        trace = _fresh_trace()
        reference = generate_trace(get_profile("astar"),
                                   SMALL.num_instructions, seed=SMALL.seed)
        assert _columns(trace) == _columns(reference)

    def _assert_replaced(self):
        cache = RunnerCache()
        cache.trace("astar", SMALL)
        assert cache.stats()["trace_store_hits"] == 1

    def test_truncated_blob_regenerates_and_is_replaced(self, store):
        _fresh_trace()
        blob = _only_blob(store)
        blob.write_bytes(blob.read_bytes()[: blob.stat().st_size // 2])
        self._regenerates()
        assert store.healed == 1
        self._assert_replaced()

    def test_flipped_byte_regenerates_and_is_replaced(self, store):
        _fresh_trace()
        blob = _only_blob(store)
        data = bytearray(blob.read_bytes())
        data[-10] ^= 0x01
        blob.write_bytes(bytes(data))
        self._regenerates()
        assert store.healed == 1
        self._assert_replaced()

    def test_wrong_schema_blob_regenerates_and_is_replaced(self, store):
        _fresh_trace()
        blob = _only_blob(store)
        header, _, body = blob.read_bytes().partition(b"\n")
        fields = json.loads(header)
        fields["trace_schema"] += 1
        blob.write_bytes(json.dumps(fields).encode() + b"\n" + body)
        self._regenerates()
        assert store.healed == 1
        self._assert_replaced()

    def test_wrong_length_blob_regenerates(self, store):
        _fresh_trace()
        blob = _only_blob(store)
        header, _, body = blob.read_bytes().partition(b"\n")
        fields = json.loads(header)
        fields["count"] += 1
        blob.write_bytes(json.dumps(fields).encode() + b"\n" + body)
        self._regenerates()
        assert store.healed == 1
        self._assert_replaced()

    def test_unwritable_directory_turns_the_store_off(self, tmp_path,
                                                      monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv(TRACE_STORE_ENV, str(blocker / "traces"))
        self._regenerates()
        assert not default_trace_store().enabled
        self._regenerates()  # Stays off, still correct.

    def test_unreadable_blob_turns_the_store_off(self, store):
        key = store.trace_key(get_profile("astar"), SMALL.num_instructions,
                              SMALL.seed)
        store.blob_dir().path(key).mkdir(parents=True)  # open() fails.
        self._regenerates()
        assert not store.enabled

    def test_changed_fingerprint_is_a_miss(self, store, monkeypatch):
        _fresh_trace()
        monkeypatch.setattr(trace_store_module, "_fingerprint", "e" * 64)
        cache = RunnerCache()
        cache.trace("astar", SMALL)
        assert cache.stats()["trace_store_hits"] == 0
        assert len(_blobs(store.path)) == 2

    @pytest.mark.parametrize("package, edited", [
        ("workload", True), ("cores", True), ("mem", True),
        ("monitors", False),
    ])
    def test_fingerprint_follows_front_end_source_edits(
        self, tmp_path, package, edited
    ):
        root = tmp_path / "repro"
        shutil.copytree(trace_store_module._PACKAGE_ROOT, root)
        before = fingerprint_sources(root, loaded_at=float("inf"))
        with open(root / package / "__init__.py", "a") as source:
            source.write("\n# edited in place\n")
        after = fingerprint_sources(root, loaded_at=float("inf"))
        assert before is not None and after is not None
        assert (after != before) is edited

    def test_sources_edited_after_load_turn_the_store_off(self, tmp_path,
                                                          monkeypatch):
        # The process (or a pool worker forked from it) runs the code it
        # loaded; a source edited since must not key what that code builds.
        root = tmp_path / "repro"
        shutil.copytree(trace_store_module._PACKAGE_ROOT, root)
        monkeypatch.setattr(trace_store_module, "_PACKAGE_ROOT", root)
        monkeypatch.setattr(trace_store_module, "_fingerprint", None)
        with open(root / "cores" / "__init__.py", "a") as source:
            source.write("\n# edited after load\n")
        store_dir = tmp_path / "traces"
        monkeypatch.setenv(TRACE_STORE_ENV, str(store_dir))
        cache = RunnerCache()
        execute_spec(RunSpec("astar", "memleak", settings=SMALL), cache)
        assert not cache.trace_store.enabled
        assert not store_dir.exists()
        assert fingerprint_sources(root, loaded_at=time.time()) is not None

    def test_writes_keep_the_most_recent_fingerprints(self, tmp_path,
                                                      monkeypatch):
        profile = get_profile("astar")
        trace = generate_trace(profile, 1500, seed=3)

        def write(digit, when=None, seed=3):
            monkeypatch.setattr(trace_store_module, "_fingerprint",
                                digit * 64)
            TraceStore(tmp_path).trace(profile, 1500, seed, lambda: trace)
            if when is not None:  # Order the writes past mtime granularity.
                os.utime(tmp_path / (digit * 16), (when, when))

        def directories():
            return sorted(path.name[0] for path in tmp_path.iterdir())

        (tmp_path / "notes").mkdir()  # Not a fingerprint: left alone.
        for when, digit in enumerate("abcd"):
            write(digit, when)
        assert KEEP_FINGERPRINTS == 3
        assert directories() == ["b", "c", "d", "n"]
        write("b", seed=4)  # A miss: "b" is now the most recently written.
        write("e")
        assert directories() == ["b", "d", "e", "n"]
        assert len(_blobs(tmp_path)) == 4


class TestScope:
    def test_inline_profile_specs_write_nothing(self, store):
        inline = dataclasses.replace(get_profile("astar"), name="inline",
                                     locality=0.5)
        spec = RunSpec("inline", "memleak", settings=SMALL, profile=inline)
        execute_spec(spec, RunnerCache())
        assert store.stats()["blobs"] == 0

    def test_registry_spec_writes_trace_and_schedule(self, store):
        execute_spec(RunSpec("astar", "memleak", settings=SMALL),
                     RunnerCache())
        assert store.stats()["blobs"] == 2

    def test_orphaned_temp_file_is_not_a_blob(self, store):
        # A writer killed between mkstemp and os.replace leaves its temp
        # file in the shard; stats and clear count only real blobs.
        _fresh_trace()
        blob = _only_blob(store)
        orphan = blob.parent / ".tmp-x.blob"
        orphan.write_bytes(b"partial")
        stats = store.stats()
        assert stats["blobs"] == 1
        assert stats["bytes"] == blob.stat().st_size
        assert store.clear() == 1
        assert not orphan.exists()

    def test_non_persisting_cache_neither_reads_nor_writes(self, store):
        spec = RunSpec("astar", "memleak", settings=SMALL)
        cache = RunnerCache(persist=False)
        execute_spec(spec, cache)
        assert store.stats()["blobs"] == 0
        execute_spec(spec, RunnerCache())
        cache = RunnerCache(persist=False)
        execute_spec(spec, cache)
        stats = cache.stats()
        assert stats["trace_store_hits"] == stats["schedule_store_hits"] == 0

    @pytest.mark.parametrize("use_processes", [False, True])
    def test_service_workers_write_nothing(self, store, use_processes):
        scheduler = SpecScheduler(use_processes=use_processes, workers=1)
        try:
            outcome = asyncio.run(scheduler.execute(
                RunSpec("astar", "memleak", settings=SMALL)
            ))
        finally:
            scheduler.shutdown()
        assert outcome.status == "computed"
        assert store.stats()["blobs"] == 0

    def test_location_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path / "here"))
        assert default_trace_store_path() == tmp_path / "here"
        assert default_trace_store() is default_trace_store()
        monkeypatch.setenv(TRACE_STORE_ENV, "off")
        assert default_trace_store_path() is None
        assert not default_trace_store().enabled
        monkeypatch.delenv(TRACE_STORE_ENV)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_trace_store_path() == tmp_path / "xdg/repro/traces"

    def test_import_neither_fingerprints_nor_touches_disk(self, tmp_path):
        store_dir = tmp_path / "untouched"
        code = (
            "import sys\n"
            "import repro, repro.api\n"
            "assert 'repro.api.trace_store' not in sys.modules\n"
            "from repro.api import RunnerCache\n"
            "from repro.api import trace_store\n"
            "RunnerCache()\n"
            "assert trace_store._fingerprint is None\n"
        )
        subprocess.run(
            [sys.executable, "-c", code], check=True,
            env={**os.environ, TRACE_STORE_ENV: str(store_dir)},
        )
        assert not store_dir.exists()


class _AlwaysMisses(TraceStore):
    """Never loads, so every lookup rewrites the blob."""

    def _read(self, key, kind):
        return None


def _racing_writer(path, rounds):
    store = _AlwaysMisses(path)
    trace = generate_trace(get_profile("mcf"), 1500, seed=3)
    for _ in range(rounds):
        store.trace(get_profile("mcf"), 1500, 3, lambda: trace)
    assert store.enabled


def test_two_processes_writing_one_key_leave_one_valid_blob(tmp_path,
                                                            monkeypatch):
    context = multiprocessing.get_context("fork")
    writers = [context.Process(target=_racing_writer, args=(tmp_path, 20))
               for _ in range(2)]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(60)
        assert writer.exitcode == 0
    files = [path for path in tmp_path.rglob("*") if path.is_file()]
    assert len(files) == 1 and files[0].suffix == ".blob"  # No temp files.
    monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path))
    cache = RunnerCache()
    loaded = cache.trace("mcf", ExperimentSettings(num_instructions=1500,
                                                   seed=3))
    assert cache.stats()["trace_store_hits"] == 1
    assert _columns(loaded) == _columns(
        generate_trace(get_profile("mcf"), 1500, seed=3)
    )


@pytest.mark.parametrize("fade", [True, False], ids=["fade", "unaccel"])
@pytest.mark.parametrize("monitor", monitor_names())
def test_results_identical_with_store_off_cold_and_warm(
    tmp_path, monkeypatch, monitor, fade
):
    spec = RunSpec("gcc", monitor, SystemConfig(fade_enabled=fade), SMALL)
    monkeypatch.setenv(TRACE_STORE_ENV, "off")
    off = execute_spec(spec, RunnerCache())
    monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path))
    cold_cache = RunnerCache()
    cold = execute_spec(spec, cold_cache)
    warm_cache = RunnerCache()
    warm = execute_spec(spec, warm_cache)
    assert cold_cache.stats()["trace_store_hits"] == 0
    assert warm_cache.stats()["trace_store_hits"] == 1
    assert warm_cache.stats()["schedule_store_hits"] == 1
    assert off.to_dict() == cold.to_dict() == warm.to_dict()
