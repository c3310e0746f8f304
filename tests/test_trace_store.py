"""The per-machine trace, schedule and warm-state store behind
``RunnerCache``.

A loaded artifact must be indistinguishable from a regenerated one, a bad
blob must heal instead of raising (a warm state's pickle may construct
nothing outside its allow-list), keys must cover the generating source,
and results must not depend on whether the store is off, cold or warm.
"""

import asyncio
import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle
import shutil
import subprocess
import sys
import time
import zlib

import pytest

from repro.api import ExperimentSettings, RunSpec, execute_spec
from repro.api import register_monitor
from repro.api.runner import build_simulation
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
from repro.common.errors import ConfigurationError
from repro.cores.base import CoreType
from repro.cores.retire import RetireModel
from repro.mem.hierarchy import HierarchyConfig
from repro.monitors import MemCheck, monitor_names
from repro.service.scheduler import SpecScheduler
from repro.system.config import SystemConfig
from repro.system.simulator import MonitoringSimulation, fade_config
from repro.verify.coverage import COVERAGE
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


class TestPinnedKeys:
    """Every stored blob is addressed by these digests, so a change to how
    a key is serialized must fail here, not strand the store.  Each hex
    was computed with ``dataclasses.asdict`` building the key, under a
    fixed fingerprint."""

    @pytest.fixture
    def store(self, tmp_path, monkeypatch):
        monkeypatch.setattr(trace_store_module, "_fingerprint", "f" * 64)
        return TraceStore(tmp_path)

    def test_trace_key(self, store):
        assert store.trace_key(get_profile("gcc"), 20000, 7) == (
            "5597938ca56a1dbe70be7b0bf8e51c7ea5b92e5ea862ee0a73b9d015b1dd69b0"
        )

    def test_schedule_key(self, store):
        assert store.schedule_key(
            get_profile("gcc"), 20000, 7, CoreType.OOO4, HierarchyConfig()
        ) == (
            "a53e3f36e5c0fdccdab9b0f6dd02212dc89c36487721662d78ff01a8fc6cdc66"
        )

    @pytest.mark.parametrize("fade, key", [
        (True,
         "0e7370b5ef50c72a3eba134780b3dc0a4babdd46f31c4770edfc87dbae1bb53d"),
        (False,
         "84dbcceb87382f12d4601bfcb91e85eecb7398b01bc52e4e4409e18a5cde3490"),
    ], ids=["fade", "unaccel"])
    def test_warm_key(self, store, fade, key):
        assert store.warm_key(
            get_profile("gcc"), 20000, 7, "memcheck",
            fade_config(SystemConfig(fade_enabled=fade)), 10000,
        ) == key


class TestKeyMemo:
    """The profile's canonical JSON is memoized by identity, so an equal
    profile whose fields serialize differently keys as it serializes."""

    @pytest.fixture
    def store(self, tmp_path, monkeypatch):
        monkeypatch.setattr(trace_store_module, "_fingerprint", "f" * 64)
        return TraceStore(tmp_path)

    @staticmethod
    def _fresh_key(profile):
        payload = {"kind": "trace",
                   "trace_schema": trace_store_module.TRACE_SCHEMA_VERSION,
                   "profile": dataclasses.asdict(profile),
                   "num_instructions": 20000, "seed": 7, "source": "f" * 64}
        canonical = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def test_equal_profile_of_other_types_gets_its_own_key(self, store):
        profile = get_profile("gcc")
        as_float = dataclasses.replace(
            profile, hot_set_words=float(profile.hot_set_words))
        assert as_float == profile
        assert store.trace_key(profile, 20000, 7) == self._fresh_key(profile)
        assert (store.trace_key(as_float, 20000, 7)
                == self._fresh_key(as_float)
                != self._fresh_key(profile))


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
        ("monitors", True), ("fade", True), ("metadata", True),
        ("system", True), ("queues", False),
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

    @staticmethod
    def _run_on_copy(tmp_path, code):
        """Run ``code`` in a fresh interpreter whose ``repro`` is a copy of
        the package under ``tmp_path``, with one more fingerprinted module,
        ``repro.workload.late``, that nothing imports."""
        src = tmp_path / "src"
        shutil.copytree(trace_store_module._PACKAGE_ROOT, src / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        (src / "repro" / "workload" / "late.py").write_text("VALUE = 1\n")
        subprocess.run(
            [sys.executable, "-c", code], check=True,
            env={**os.environ, "PYTHONPATH": str(src),
                 TRACE_STORE_ENV: str(tmp_path / "traces")},
        )

    def test_fingerprint_imports_every_fingerprinted_module(self, tmp_path):
        # Modules load lazily: one first imported after the hash could come
        # from a file edited since, so the fingerprint imports them all.
        self._run_on_copy(tmp_path, (
            "import pathlib, sys\n"
            "import repro\n"
            "from repro.api import trace_store\n"
            "assert 'repro.workload.late' not in sys.modules\n"
            "assert trace_store.source_fingerprint() is not None\n"
            "root = pathlib.Path(repro.__file__).parent\n"
            "for package in trace_store.FINGERPRINT_PACKAGES:\n"
            "    for path in (root / package).rglob('*.py'):\n"
            "        parts = path.relative_to(root).with_suffix('').parts\n"
            "        name = '.'.join(('repro',) + parts)\n"
            "        assert name.removesuffix('.__init__') in sys.modules\n"
        ))

    def test_lazy_module_edited_after_load_turns_the_store_off(
        self, tmp_path
    ):
        # The edit lands after `import repro` and before the module is
        # first imported: the process would run the edited code.
        self._run_on_copy(tmp_path, (
            "import os, sys\n"
            "import repro\n"
            "from repro.api.trace_store import default_trace_store\n"
            "from repro.workload import get_profile\n"
            "late = os.path.join(os.path.dirname(repro.__file__),\n"
            "                    'workload', 'late.py')\n"
            "assert 'repro.workload.late' not in sys.modules\n"
            "edited = repro.LOADED_AT + 60\n"
            "os.utime(late, (edited, edited))\n"
            "store = default_trace_store()\n"
            "assert store.trace_key(get_profile('gcc'), 2000, 1) is None\n"
            "assert not store.enabled\n"
        ))
        assert not (tmp_path / "traces").exists()

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
        assert store.stats()["blobs"] == 3  # And the warm state.

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

    def test_service_workers_write_nothing(self, store):
        scheduler = SpecScheduler(workers=1)
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


# ------------------------------------------------------------- warm states

#: The three FADE settings a warm state is keyed apart by.
WARM_CONFIGS = {
    "unaccel": SystemConfig(fade_enabled=False),
    "blocking": SystemConfig(fade_enabled=True, non_blocking=False),
    "non-blocking": SystemConfig(fade_enabled=True, non_blocking=True),
}


def _warm_blobs(path):
    return [blob for blob in _blobs(path)
            if json.loads(blob.read_bytes().split(b"\n", 1)[0])["kind"]
            == "warm"]


def _rewrite_warm_blob(store, body):
    """Replace the one warm blob's body with ``body`` under a valid
    header, so only the pickle inside can make it a bad blob."""
    (blob,) = _warm_blobs(store.path)
    header = json.loads(blob.read_bytes().split(b"\n", 1)[0])
    compressed = zlib.compress(body, 1)
    header.update(count=len(body),
                  sha256=hashlib.sha256(compressed).hexdigest())
    blob.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n"
                     + compressed)


def _memo_counts(simulation):
    pipeline = simulation.fade.pipeline if simulation.fade else None
    return (pipeline.memo_value_hits, pipeline.memo_misses) if pipeline else ()


class _Planted:
    """Pickles as a call of ``os.system``."""

    def __init__(self, command):
        self.command = command

    def __reduce__(self):
        return os.system, (self.command,)


class TestWarmState:
    @pytest.mark.parametrize("warmup", [0.25, 0.5])
    @pytest.mark.parametrize("config", list(WARM_CONFIGS),
                             ids=list(WARM_CONFIGS))
    @pytest.mark.parametrize("monitor", monitor_names())
    def test_warm_hit_is_bit_identical_to_a_fresh_warmup(
        self, tmp_path, monkeypatch, monitor, config, warmup
    ):
        spec = RunSpec("gcc", monitor, WARM_CONFIGS[config],
                       dataclasses.replace(SMALL, warmup_fraction=warmup))
        monkeypatch.setenv(TRACE_STORE_ENV, "off")
        off = build_simulation(spec, RunnerCache())
        off_result = off.run()
        monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path))
        written = execute_spec(spec, RunnerCache())
        assert len(_warm_blobs(tmp_path)) == 1
        cache = RunnerCache()
        loaded = build_simulation(spec, cache)
        assert cache.stats()["warm_store_hits"] == 1
        loaded_result = loaded.run()
        again = execute_spec(spec, cache)  # From the in-memory LRU.
        assert cache.stats()["warm_hits"] == 1
        assert (off_result.to_dict() == written.to_dict()
                == loaded_result.to_dict() == again.to_dict())
        # The pipeline's memo counters travel with the state.
        assert _memo_counts(loaded) == _memo_counts(off)

    def test_state_is_one_graph(self, store):
        # FADE reads the monitor's own metadata after a load, not a copy.
        spec = RunSpec("gcc", "taintcheck", settings=SMALL)
        execute_spec(spec, RunnerCache())
        simulation = build_simulation(spec, RunnerCache())
        pipeline = simulation.fade.pipeline
        assert pipeline.md_registers is simulation.monitor.critical_regs
        assert pipeline.md_memory is simulation.monitor.critical_mem
        assert simulation.fade.process == pipeline.process

    def test_planted_pickle_never_runs_and_is_healed(self, store, tmp_path):
        spec = RunSpec("gcc", "memcheck", settings=SMALL)
        reference = execute_spec(spec, RunnerCache())
        marker = tmp_path / "planted-ran"
        _rewrite_warm_blob(store, pickle.dumps(_Planted(f"touch {marker}")))
        cache = RunnerCache()
        assert execute_spec(spec, cache).to_dict() == reference.to_dict()
        assert not marker.exists()
        assert store.healed == 1 and cache.stats()["warm_store_hits"] == 0
        cache = RunnerCache()  # The rebuilt state replaced the blob.
        execute_spec(spec, cache)
        assert cache.stats()["warm_store_hits"] == 1

    @pytest.mark.parametrize("body", [
        pickle.dumps(("not", "a warm state")),
        pickle.dumps(dataclasses.replace),  # A function, not a class.
        b"\x80\x05not a pickle",
    ], ids=["wrong-shape", "function", "garbage"])
    def test_other_pickles_are_healed(self, store, body):
        spec = RunSpec("gcc", "addrcheck", settings=SMALL)
        reference = execute_spec(spec, RunnerCache())
        _rewrite_warm_blob(store, body)
        assert execute_spec(spec, RunnerCache()).to_dict() == (
            reference.to_dict()
        )
        assert store.healed == 1

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_damaged_warm_blob_is_healed(self, store, damage):
        spec = RunSpec("gcc", "memleak", settings=SMALL)
        reference = execute_spec(spec, RunnerCache())
        (blob,) = _warm_blobs(store.path)
        data = bytearray(blob.read_bytes())
        if damage == "truncate":
            del data[len(data) // 2:]
        else:
            data[-1] ^= 0xFF  # Fails the body digest.
        blob.write_bytes(bytes(data))
        assert execute_spec(spec, RunnerCache()).to_dict() == (
            reference.to_dict()
        )
        assert store.healed == 1
        cache = RunnerCache()
        execute_spec(spec, cache)
        assert cache.stats()["warm_store_hits"] == 1

    def _assert_no_warm_state(self, store, spec, cache_factory=RunnerCache):
        for _ in range(2):
            cache = cache_factory()
            execute_spec(spec, cache)
            assert cache.stats()["warm_states"] == 0
            assert cache.stats()["warm_store_hits"] == 0
        assert _warm_blobs(store.path) == []

    def test_naive_engine_keeps_no_warm_state(self, store):
        self._assert_no_warm_state(store, RunSpec(
            "gcc", "memcheck", SystemConfig(engine="naive"), SMALL))

    def test_inline_profile_keeps_no_warm_state(self, store):
        inline = dataclasses.replace(get_profile("gcc"), name="inline")
        self._assert_no_warm_state(store, RunSpec(
            "inline", "memcheck", settings=SMALL, profile=inline))

    def test_coverage_counting_keeps_no_warm_state(self, store):
        was_enabled = COVERAGE.enabled
        COVERAGE.enable()
        try:
            self._assert_no_warm_state(
                store, RunSpec("gcc", "memcheck", settings=SMALL))
        finally:
            if not was_enabled:
                COVERAGE.disable()

    def test_replaced_monitor_keeps_no_warm_state(self, store):
        class Patched(MemCheck):
            pass

        register_monitor("memcheck", Patched, replace=True)
        try:
            self._assert_no_warm_state(
                store, RunSpec("gcc", "memcheck", settings=SMALL))
        finally:
            register_monitor("memcheck", MemCheck, replace=True)

    def test_zero_warmup_keeps_no_warm_state(self, store):
        self._assert_no_warm_state(store, RunSpec(
            "gcc", "memcheck",
            settings=dataclasses.replace(SMALL, warmup_fraction=0.0)))

    def test_non_persisting_cache_keeps_no_warm_state(self, store):
        self._assert_no_warm_state(
            store, RunSpec("gcc", "memcheck", settings=SMALL),
            lambda: RunnerCache(persist=False))

    def test_store_off_keeps_no_warm_state(self, monkeypatch):
        monkeypatch.setenv(TRACE_STORE_ENV, "off")
        cache = RunnerCache()
        execute_spec(RunSpec("gcc", "memcheck", settings=SMALL), cache)
        execute_spec(RunSpec("gcc", "memcheck", settings=SMALL), cache)
        assert cache.stats()["warm_states"] == 0

    def test_forced_inline_filtering_is_keyed_apart(self, store,
                                                    monkeypatch):
        spec = RunSpec("gcc", "memcheck", settings=SMALL)
        memo = execute_spec(spec, RunnerCache())
        monkeypatch.setenv("REPRO_FORCE_INLINE_FADE", "1")
        cache = RunnerCache()
        inline = execute_spec(spec, cache)
        assert cache.stats()["warm_store_hits"] == 0
        assert len(_warm_blobs(store.path)) == 2
        assert inline.to_dict() == memo.to_dict()

    def test_cells_differing_in_core_share_one_warm_state(self, store):
        cache = RunnerCache()
        results = [
            execute_spec(RunSpec("gcc", "memleak",
                                 SystemConfig(core_type=core), SMALL), cache)
            for core in CoreType
        ]
        stats = cache.stats()
        assert stats["warm_misses"] == 1
        assert stats["warm_hits"] == len(CoreType) - 1
        assert len(_warm_blobs(store.path)) == 1
        unpersisted = [
            execute_spec(RunSpec("gcc", "memleak",
                                 SystemConfig(core_type=core), SMALL),
                         RunnerCache(persist=False))
            for core in CoreType
        ]
        assert [r.to_dict() for r in results] == [
            r.to_dict() for r in unpersisted
        ]

    def test_simulation_rejects_a_mismatched_fade(self):
        trace = _fresh_trace()
        monitor = MemCheck()
        with pytest.raises(ConfigurationError, match="needs its warmed FADE"):
            MonitoringSimulation(trace, monitor, SystemConfig(), warmed=True)
        fade = build_simulation(RunSpec("astar", "memcheck", settings=SMALL),
                                RunnerCache(persist=False)).fade
        with pytest.raises(ConfigurationError, match="needs fade_enabled"):
            MonitoringSimulation(trace, monitor,
                                 SystemConfig(fade_enabled=False), fade=fade)
