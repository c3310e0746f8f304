"""Crash-safe execution: snapshot determinism, restore parity (including
in a fresh spawn-style interpreter), corruption tolerance, GC policy, and
the runner-cache aliasing regression for restored simulations."""

import base64
import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.api import (
    ExperimentSettings,
    ResultStore,
    RunnerCache,
    RunSpec,
    execute_spec,
)
from repro.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointStore,
    active_checkpoint_runtime,
    decode_checkpoint,
    decode_meta,
    encode_checkpoint,
    install_checkpoint_runtime,
    uninstall_checkpoint_runtime,
)
from repro.api.runner import build_simulation
from repro.common.units import WORD_SIZE
from repro.metadata import ShadowMemory
from repro.monitors.memcheck import UNALLOC
from repro.system.config import SystemConfig
from repro.system.simulator import SIM_STATE_VERSION
from repro.verify.oracle import result_digest
from repro.workload.trace import HighLevelEvent

TINY = ExperimentSettings(num_instructions=2000, seed=13)
SPEC = RunSpec("astar", "addrcheck", SystemConfig(), TINY)
EVERY = 400


class _Abort(Exception):
    """Abandon a run right after its first checkpoint write."""


class _AbortAfterFirstPut:
    """CheckpointStore proxy that crashes the run once a blob exists —
    the in-process stand-in for a worker dying mid-spec."""

    def __init__(self, store: CheckpointStore) -> None:
        self._store = store

    def __getattr__(self, name):
        return getattr(self._store, name)

    def put(self, spec, state) -> None:
        self._store.put(spec, state)
        raise _Abort


def _abort_after_first_checkpoint(store, spec=SPEC, cache=None) -> None:
    """Run ``spec`` until its first checkpoint lands in ``store``."""
    with pytest.raises(_Abort):
        execute_spec(
            spec,
            cache,
            checkpoint_every=EVERY,
            checkpoint_store=_AbortAfterFirstPut(store),
        )


@pytest.fixture(autouse=True)
def _no_ambient_runtime():
    """Tests control checkpointing explicitly, never via the environment."""
    uninstall_checkpoint_runtime()
    yield
    uninstall_checkpoint_runtime()


@pytest.fixture()
def store(tmp_path):
    ckpt = CheckpointStore(tmp_path / "ckpt")
    yield ckpt
    ckpt.close()


class TestSnapshotDeterminism:
    def test_same_cycle_same_state_hash(self, tmp_path):
        # Two independent runs of the same spec checkpoint at the same
        # instruction threshold and must produce byte-identical pickled
        # state (compared via the envelope's content hash).  In-process
        # only: across interpreters PYTHONHASHSEED can reorder set
        # iteration inside the pickle, which is why cross-process parity
        # is asserted on *result digests*, not state hashes.
        hashes = []
        for leg in ("a", "b"):
            ckpt = CheckpointStore(tmp_path / leg)
            try:
                _abort_after_first_checkpoint(ckpt, cache=RunnerCache())
                (entry,) = ckpt.entries()
                assert entry["valid"]
                hashes.append(
                    decode_meta(ckpt._backend.read(entry["key"]))["state_hash"]
                )
            finally:
                ckpt.close()
        assert hashes[0] == hashes[1]

    def test_snapshot_metadata_progress(self, store):
        _abort_after_first_checkpoint(store)
        (entry,) = store.entries()
        assert entry["engine"] == "event"
        assert entry["app_index"] > 0
        assert entry["cycle"] > 0


class TestRestoreParity:
    def test_resumed_run_bit_identical(self, store):
        cold = result_digest(execute_spec(SPEC, RunnerCache()))
        _abort_after_first_checkpoint(store)
        resumed = execute_spec(
            SPEC, checkpoint_every=EVERY, checkpoint_store=store
        )
        assert result_digest(resumed) == cold
        meta = resumed.resume_metadata
        assert meta["resumed_from_cycle"] > 0
        assert 0.0 < meta["recompute_fraction"] < 1.0
        # Completion retires the checkpoint: nothing left to restore.
        assert store.entries() == []
        counters = store.stats()
        assert counters["checkpoints_restored"] == 1
        assert counters["checkpoints_completed"] == 1

    def test_restore_in_fresh_interpreter(self, store, tmp_path):
        # The spawn-context concern: a brand-new interpreter that never
        # built this simulation must resume from the on-disk blob alone
        # and finish bit-identical to a cold run.
        cold = result_digest(execute_spec(SPEC, RunnerCache()))
        _abort_after_first_checkpoint(store)
        script = (
            "import json, sys\n"
            "from repro.api import RunSpec, execute_spec\n"
            "from repro.checkpoint import CheckpointStore\n"
            "from repro.verify.oracle import result_digest\n"
            "spec = RunSpec.from_json(sys.stdin.read())\n"
            "store = CheckpointStore(sys.argv[1])\n"
            "result = execute_spec(\n"
            f"    spec, checkpoint_every={EVERY}, checkpoint_store=store\n"
            ")\n"
            "print(result_digest(result))\n"
            "print(json.dumps(result.resume_metadata))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(os.path.dirname(__file__), os.pardir, "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        completed = subprocess.run(
            [sys.executable, "-c", script, str(store.path)],
            input=SPEC.to_json(),
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        digest, meta_line = completed.stdout.strip().splitlines()
        assert digest == cold
        assert json.loads(meta_line)["resumed_from_cycle"] > 0

    def test_rejected_state_degrades_to_cold_recompute(self, store):
        # A blob that decodes fine but that the simulation itself refuses
        # (here: a stale SIM_STATE_VERSION) is discarded and the run
        # degrades to a cold recompute — never an error.
        _abort_after_first_checkpoint(store)
        record = store.get(SPEC)
        stale = dict(record["state"], version=-1)
        store.put(SPEC, stale)
        cold = result_digest(execute_spec(SPEC, RunnerCache()))
        resumed = execute_spec(
            SPEC, checkpoint_every=EVERY, checkpoint_store=store
        )
        assert result_digest(resumed) == cold
        assert getattr(resumed, "resume_metadata", None) is None
        assert store.stats()["checkpoints_discarded"] >= 1


class TestInvalidBlobs:
    def _cold_digest(self):
        return result_digest(execute_spec(SPEC, RunnerCache()))

    def _assert_cold_recompute(self, store):
        cold = self._cold_digest()
        result = execute_spec(
            SPEC, checkpoint_every=EVERY, checkpoint_store=store
        )
        assert result_digest(result) == cold
        assert getattr(result, "resume_metadata", None) is None

    def test_corrupt_blob_is_a_miss(self, store):
        key = store.key(SPEC)
        store._backend.write(key, "\x00not json at all")
        assert store.get(SPEC) is None
        # The invalid blob was deleted on read, and journalled.
        assert store._backend.read(key) is None
        assert store.stats()["checkpoints_discarded"] == 1
        self._assert_cold_recompute(store)

    def test_truncated_blob_is_a_miss(self, store):
        _abort_after_first_checkpoint(store)
        key = store.key(SPEC)
        payload = store._backend.read(key)
        store._backend.write(key, payload[: len(payload) // 3])
        assert store.get(SPEC) is None
        self._assert_cold_recompute(store)

    def test_stale_schema_is_a_miss(self, store):
        _abort_after_first_checkpoint(store)
        key = store.key(SPEC)
        header_line, blob_text = store._backend.read(key).split("\n", 1)
        header = json.loads(header_line)
        header["schema"] = CHECKPOINT_SCHEMA_VERSION + 999
        store._backend.write(
            key, json.dumps(header, sort_keys=True) + "\n" + blob_text
        )
        assert decode_meta(store._backend.read(key)) is None
        assert store.get(SPEC) is None
        self._assert_cold_recompute(store)

    def test_tampered_state_fails_hash_check(self, store):
        _abort_after_first_checkpoint(store)
        key = store.key(SPEC)
        header_line, blob_text = store._backend.read(key).split("\n", 1)
        blob = bytearray(base64.b64decode(blob_text))
        blob[len(blob) // 2] ^= 0xFF
        tampered = base64.b64encode(bytes(blob)).decode("ascii")
        store._backend.write(key, header_line + "\n" + tampered)
        # The header still decodes (listing stays cheap and optimistic) but
        # the full restore path must reject the tampered state.
        assert decode_meta(store._backend.read(key)) is not None
        assert store.get(SPEC) is None
        self._assert_cold_recompute(store)

    def test_wrong_key_envelope_rejected(self):
        payload = encode_checkpoint("key-a", {"engine": "event"})
        assert decode_checkpoint(payload, key="key-a") is not None
        assert decode_checkpoint(payload, key="key-b") is None


class TestGarbageCollection:
    def test_gc_keeps_newest_valid_unfinished(self, store, tmp_path):
        # The one checkpoint of an in-progress spec is exactly what a
        # retry needs: GC must never touch it.
        _abort_after_first_checkpoint(store)
        results = ResultStore(tmp_path / "results")
        try:
            swept = store.gc(results)
        finally:
            results.close()
        assert swept == {
            "removed_invalid": 0,
            "removed_completed": 0,
            "kept": 1,
        }
        assert len(store.entries()) == 1

    def test_gc_sweeps_invalid_and_completed(self, store, tmp_path):
        other = SPEC.replace(monitor="memleak")
        _abort_after_first_checkpoint(store)
        _abort_after_first_checkpoint(store, spec=other)
        store._backend.write(store.key(SPEC), "torn{")
        results = ResultStore(tmp_path / "results")
        try:
            # ``other`` finished elsewhere: its result exists, so its
            # checkpoint is superseded scaffolding.
            results.put(other, execute_spec(other, RunnerCache()))
            swept = store.gc(results)
        finally:
            results.close()
        assert swept == {
            "removed_invalid": 1,
            "removed_completed": 1,
            "kept": 0,
        }
        assert store.entries() == []

    def test_put_replaces_prior_checkpoint(self, store):
        # Writing checkpoint N+1 is the GC of checkpoint N — the store
        # holds exactly one live blob per key.
        result = execute_spec(
            SPEC, checkpoint_every=EVERY, checkpoint_store=store
        )
        assert result.instructions > 0
        counters = store.stats()
        assert counters["checkpoints_written"] >= 2
        assert counters["entries"] == 0  # completed → retired


class TestRuntimeDiscovery:
    def test_install_uninstall_round_trip(self, tmp_path):
        assert active_checkpoint_runtime() is None
        install_checkpoint_runtime(tmp_path / "ckpt", 123)
        runtime = active_checkpoint_runtime()
        assert runtime is not None
        found_store, every = runtime
        assert every == 123
        assert str(found_store.path) == str(tmp_path / "ckpt")
        uninstall_checkpoint_runtime()
        assert active_checkpoint_runtime() is None


class TestRunnerCacheAliasing:
    def test_restore_never_corrupts_cached_plan(self, tmp_path):
        # Satellite regression: snapshot() excludes the cache-held
        # kind table/schedule and restore() only *reads* them, so an
        # abort → restore cycle through a shared RunnerCache must leave
        # the cache able to serve bit-identical cold runs afterwards.
        cache = RunnerCache()
        baseline = result_digest(execute_spec(SPEC, cache))
        plan_before = cache.plan(
            SPEC.benchmark, SPEC.settings, SPEC.monitor, SPEC.resolved_profile()
        )
        ckpt = CheckpointStore(tmp_path / "ckpt")
        try:
            _abort_after_first_checkpoint(ckpt, cache=cache)
            resumed = execute_spec(
                SPEC, cache, checkpoint_every=EVERY, checkpoint_store=ckpt
            )
        finally:
            ckpt.close()
        assert result_digest(resumed) == baseline
        plan_after = cache.plan(
            SPEC.benchmark, SPEC.settings, SPEC.monitor, SPEC.resolved_profile()
        )
        # Same cached object, still serving bit-identical cold runs.
        assert plan_after is plan_before
        assert result_digest(execute_spec(SPEC, cache)) == baseline


class TestStateFormat:
    """SIM_STATE_VERSION 2 stores shadow memory as whole pages of bytes;
    version 3 stores queue entries as trace indices.  A blob in an older
    layout is discarded, never misread."""

    MEMCHECK = RunSpec("astar", "memcheck", SystemConfig(), TINY)

    def test_v1_checkpoint_is_discarded_and_recomputed(self, store):
        _abort_after_first_checkpoint(store)
        state = store.get(SPEC)["state"]
        # Rewrite the captured shadow memory in the v1 layout: a per-word
        # dict of non-default bytes under "bytes".
        memory = state["monitor"]["critical_mem"]
        shadow = ShadowMemory()
        shadow.restore_state(memory)
        v1_memory = {
            key: value for key, value in memory.items() if key != "pages"
        }
        v1_memory["bytes"] = shadow.snapshot()
        v1 = dict(
            state,
            version=1,
            monitor=dict(state["monitor"], critical_mem=v1_memory),
        )
        store.put(SPEC, v1)
        cold = result_digest(execute_spec(SPEC, RunnerCache()))
        result = execute_spec(SPEC, checkpoint_every=EVERY, checkpoint_store=store)
        assert result_digest(result) == cold
        assert getattr(result, "resume_metadata", None) is None
        discarded = [
            record
            for record in store.journal.records()
            if record["action"] == "discarded"
        ]
        assert [record["reason"] for record in discarded] == ["restore-failed"]

    def test_v2_checkpoint_is_discarded_and_recomputed(self, store):
        cache = RunnerCache()
        cold = result_digest(execute_spec(SPEC, cache))
        _abort_after_first_checkpoint(store)
        state = store.get(SPEC)["state"]
        # Rewrite the queue entries in the v2 layout: (kind tag, plan index
        # or high-level payload, handler kind) tuples.
        trace = cache.trace(SPEC.benchmark, SPEC.settings)
        kinds = cache.plan(SPEC.benchmark, SPEC.settings, SPEC.monitor).kinds
        tags = {1: "event", 2: "stack", 3: "high-level"}

        def v2_entry(entry):
            if entry is None:
                return None
            index = ~entry if entry < 0 else entry
            tag = tags[kinds[index]]
            handler = "short" if entry < 0 else "full"
            if tag == "high-level":
                return (tag, trace.items[index], handler)
            return (tag, index, handler)

        v2 = dict(
            state,
            version=2,
            monitor_item=v2_entry(state["monitor_item"]),
            eq_entries=[v2_entry(entry) for entry in state["eq_entries"]],
        )
        store.put(SPEC, v2)
        result = execute_spec(
            SPEC, cache, checkpoint_every=EVERY, checkpoint_store=store
        )
        assert result_digest(result) == cold
        assert getattr(result, "resume_metadata", None) is None
        discarded = [
            record
            for record in store.journal.records()
            if record["action"] == "discarded"
        ]
        assert [record["reason"] for record in discarded] == ["restore-failed"]

    @pytest.mark.parametrize("engine", ["event", "naive"])
    def test_v3_snapshot_round_trips_bit_identical(self, engine):
        # AtomCheck's partial filtering sends SHORT handlers (``~index``
        # entries) through a tight unfiltered queue.
        spec = RunSpec(
            "water", "atomcheck",
            SystemConfig(engine=engine, unfiltered_queue_capacity=2), TINY,
        )
        cache = RunnerCache()
        taken = []
        sim = build_simulation(spec, cache)
        sim.configure_checkpoints(
            100, lambda running: taken.append(pickle.dumps(running.snapshot()))
        )
        final = result_digest(sim.run())
        states = [pickle.loads(blob) for blob in taken]
        assert len(states) > 3
        entries = [
            entry
            for state in states
            for entry in state["eq_entries"] + state["wq_entries"]
        ]
        assert entries and all(type(entry) is int for entry in entries)
        assert any(entry < 0 for entry in entries)
        for state in states:
            assert state["version"] == SIM_STATE_VERSION
            resumed = build_simulation(spec, cache)
            resumed.restore(state, owned=True)
            assert result_digest(resumed.run()) == final

    def test_v2_round_trip_restores_live_static_segment(self, store):
        spec = self.MEMCHECK
        cache = RunnerCache()
        cold = result_digest(execute_spec(spec, cache))
        _abort_after_first_checkpoint(store, spec=spec)
        state = store.get(spec)["state"]
        assert state["version"] == SIM_STATE_VERSION == 3
        pages = state["monitor"]["critical_mem"]["pages"]
        assert pages and all(type(page) is bytes for page in pages.values())

        sim = build_simulation(spec, cache)
        static = sim.trace.items[0]
        assert isinstance(static, HighLevelEvent) and static.startup
        sim.restore(state)
        monitor = sim.monitor
        # The pipeline's hoisted page dict is the restored store's own.
        assert sim.fade.pipeline._mem_pages is monitor.critical_mem.pages
        for word in range(
            static.address, static.address + static.size, WORD_SIZE
        ):
            assert monitor.critical_mem.read(word) != UNALLOC
            assert monitor._words.read(word) != UNALLOC

        resumed = execute_spec(
            spec, cache, checkpoint_every=EVERY, checkpoint_store=store
        )
        assert result_digest(resumed) == cold
        assert resumed.resume_metadata["resumed_from_cycle"] > 0
