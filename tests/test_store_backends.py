"""The ResultStore backend split: sharded JSON and SQLite behind one
interface, selected by URL scheme or file suffix, byte-identical payloads
across backends, multi-process safe, and self-healing on corruption.
"""

import json
import multiprocessing
import sqlite3

import pytest

from repro import cli
from repro.api import ExperimentSettings, ParallelRunner, ResultStore, spec_grid
from repro.api import store as store_module
from repro.api.store import _parse_store_path, result_json
from repro.system.config import SystemConfig

TINY = ExperimentSettings(num_instructions=1500, seed=11)

GRID = spec_grid(
    ["astar", "mcf"],
    ["memleak", "addrcheck"],
    [SystemConfig(), SystemConfig(fade_enabled=False)],
    TINY,
)


class TestSchemeSelection:
    def test_url_schemes(self, tmp_path):
        backend, path = _parse_store_path(f"sqlite://{tmp_path}/cache.db")
        assert backend == "sqlite" and path.name == "cache.db"
        backend, path = _parse_store_path(f"json://{tmp_path}/cache")
        assert backend == "json" and path.name == "cache"

    def test_suffix_selects_sqlite(self, tmp_path):
        for suffix in (".db", ".sqlite", ".sqlite3"):
            backend, _ = _parse_store_path(str(tmp_path / f"cache{suffix}"))
            assert backend == "sqlite", suffix

    def test_plain_path_is_json(self, tmp_path):
        backend, _ = _parse_store_path(str(tmp_path / "cache"))
        assert backend == "json"

    def test_backend_property(self, tmp_path):
        assert ResultStore(tmp_path / "a").backend == "json"
        assert ResultStore(tmp_path / "a.db").backend == "sqlite"

    def test_unknown_scheme_rejected(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="scheme"):
            ResultStore("redis://localhost/0")


class TestCrossBackendParity:
    def test_entries_byte_identical(self, tmp_path):
        """The ISSUE acceptance bar: the same result stored through both
        backends round-trips to the same bytes and the same content key."""
        json_store = ResultStore(tmp_path / "cache")
        sqlite_store = ResultStore(tmp_path / "cache.db")
        results = ParallelRunner(jobs=1).run(GRID)
        for spec, result in zip(GRID, results.results):
            assert json_store.key(spec) == sqlite_store.key(spec)
            json_store.put(spec, result)
            sqlite_store.put(spec, result)
        # Raw payloads, read beneath the store API.
        connection = sqlite3.connect(tmp_path / "cache.db")
        sqlite_payloads = {
            key: payload
            for key, payload in connection.execute(
                "SELECT key, payload FROM entries"
            )
        }
        connection.close()
        assert len(sqlite_payloads) == len(GRID)
        for spec in GRID:
            key = json_store.key(spec)
            disk = json_store._entry_path(key).read_text()
            assert disk == sqlite_payloads[key]
        # And both backends re-serve results bit-identically.
        for spec, result in zip(GRID, results.results):
            reference = json.dumps(result.to_dict(), sort_keys=True)
            for store in (json_store, sqlite_store):
                hit = store.get(spec)
                assert json.dumps(hit.to_dict(), sort_keys=True) == reference

    def test_runner_agrees_across_backends(self, tmp_path):
        cold = ParallelRunner(jobs=1, store=ResultStore(tmp_path / "cache.db")).run(GRID)
        warm_store = ResultStore(tmp_path / "cache.db")
        warm = ParallelRunner(jobs=1, store=warm_store).run(GRID)
        assert warm_store.hits == len(GRID)
        assert warm.to_dict() == cold.to_dict()


@pytest.mark.parametrize("name", ["cache", "cache.db"])
class TestLookup:
    """``lookup`` returns a hit's result JSON text as stored."""

    def test_text_is_the_stored_result(self, tmp_path, name):
        store = ResultStore(tmp_path / name)
        result = ParallelRunner(jobs=1).run_one(GRID[0])
        store.put(GRID[0], result)
        text = store.lookup(store.key(GRID[0]))
        assert text == json.dumps(result.to_dict(), sort_keys=True)
        assert store.get(GRID[0]).to_dict() == result.to_dict()
        assert (store.hits, store.misses) == (2, 0)

    def test_other_valid_layout_is_served_re_encoded(self, tmp_path, name):
        store = ResultStore(tmp_path / name)
        result = ParallelRunner(jobs=1).run_one(GRID[0])
        key = store.key(GRID[0])
        # A hand-edited entry: indented, keys in another order.
        entry = {"spec": GRID[0].to_dict(), "result": result.to_dict(),
                 "key": key}
        store._backend.write(key, json.dumps(entry, indent=1).encode())
        for _ in range(2):  # First sight, then the memo.
            text = store.lookup(key)
            assert text == json.dumps(result.to_dict(), sort_keys=True)
            assert store.get(GRID[0]).to_dict() == result.to_dict()

    def test_invalid_entries_are_deleted_misses(self, tmp_path, name):
        store = ResultStore(tmp_path / name)
        result = ParallelRunner(jobs=1).run_one(GRID[0])
        key = store.key(GRID[0])
        store.put(GRID[0], result)
        for data in _corruptions(store, key, GRID[0], result):
            store._backend.write(key, data)
            assert store.lookup(key) is None
            assert len(store) == 0
        assert (store.hits, store.misses) == (0, 6)


def _raw(store, key):
    payload = store._backend.read(key)
    return payload.encode() if isinstance(payload, str) else payload


def _corruptions(store, key, spec, result):
    """Torn, truncated, padded and invalid-result payloads for ``key``, and
    entries whose result holds a non-finite number: one in the layout
    ``put`` writes, one hand-edited into another layout."""
    payload = _raw(store, key)
    broken = result.to_dict()
    del broken["benchmark"]
    entry = json.loads(payload)
    entry["result"]["cycles"] = float("nan")
    not_a_number = json.dumps(entry, sort_keys=True).encode()
    assert b'"cycles": NaN, ' in not_a_number
    entry["result"]["cycles"] = float("inf")
    return [
        payload[: len(payload) // 2],
        payload[:-1],
        payload + b"x",
        json.dumps({"key": key, "result": broken, "spec": spec.to_dict()},
                   sort_keys=True).encode(),
        not_a_number,
        json.dumps(entry, indent=1).encode(),
    ]


@pytest.fixture(scope="module")
def computed():
    """GRID[0] and GRID[1]'s results, computed once."""
    return [ParallelRunner(jobs=1).run_one(spec) for spec in GRID[:2]]


@pytest.fixture
def from_dict_calls(monkeypatch):
    """A list that grows by one for each ``RunResult.from_dict`` call."""
    from repro.system.results import RunResult

    calls = []
    original = RunResult.from_dict.__func__

    def counted(cls, data):
        calls.append(1)
        return original(cls, data)

    monkeypatch.setattr(RunResult, "from_dict", classmethod(counted))
    return calls


@pytest.mark.parametrize("name", ["cache", "cache.db"])
class TestValidationMemo:
    """``lookup`` validates each distinct payload once; any other bytes
    are validated in full, exactly as without the memo."""

    def test_memo_hit_builds_no_result(
        self, tmp_path, name, computed, from_dict_calls
    ):
        store = ResultStore(tmp_path / name)
        store.put(GRID[0], computed[0])
        key = store.key(GRID[0])
        first = store.lookup(key)
        assert len(from_dict_calls) == 1
        assert store.lookup(key) == first
        assert len(from_dict_calls) == 1
        assert (store.hits, store.misses) == (2, 0)

    def test_rewritten_entry_serves_the_new_text(
        self, tmp_path, name, computed
    ):
        store = ResultStore(tmp_path / name)
        key = store.key(GRID[0])
        store.put(GRID[0], computed[0])
        assert store.lookup(key) == store.lookup(key) == result_json(
            computed[0]
        )
        store.put_text(key, GRID[0], result_json(computed[1]))
        assert store.lookup(key) == result_json(computed[1])
        assert store.get(GRID[0]).to_dict() == computed[1].to_dict()
        assert (store.hits, store.misses) == (4, 0)

    def test_corrupt_bytes_after_a_memo_hit_are_deleted_misses(
        self, tmp_path, name, computed
    ):
        store = ResultStore(tmp_path / name)
        key = store.key(GRID[0])
        store.put(GRID[0], computed[0])
        for data in _corruptions(store, key, GRID[0], computed[0]):
            store.put(GRID[0], computed[0])
            assert store.lookup(key) is not None
            assert store.lookup(key) is not None  # A memo hit.
            store._backend.write(key, data)
            assert store.lookup(key) is None
            assert len(store) == 0
            assert store.lookup(key) is None
        assert (store.hits, store.misses) == (12, 12)

    def test_readonly_store_keeps_corrupt_bytes(
        self, tmp_path, name, computed
    ):
        writer = ResultStore(tmp_path / name)
        key = writer.key(GRID[0])
        writer.put(GRID[0], computed[0])
        reader = ResultStore(tmp_path / name, readonly=True)
        for data in _corruptions(writer, key, GRID[0], computed[0]):
            writer.put(GRID[0], computed[0])
            assert reader.lookup(key) == reader.lookup(key) is not None
            writer._backend.write(key, data)
            assert reader.lookup(key) is None
            assert _raw(writer, key) == data  # Not healed.
        assert (reader.hits, reader.misses) == (12, 6)

    def test_clear_makes_the_next_lookup_a_miss(
        self, tmp_path, name, computed
    ):
        store = ResultStore(tmp_path / name)
        key = store.key(GRID[0])
        store.put(GRID[0], computed[0])
        assert store.lookup(key) == store.lookup(key) is not None
        assert store.clear() == 1
        assert store.lookup(key) is None
        assert (store.hits, store.misses) == (2, 1)

    def test_deleted_entry_is_a_miss(self, tmp_path, name, computed):
        store = ResultStore(tmp_path / name)
        key = store.key(GRID[0])
        store.put(GRID[0], computed[0])
        assert store.lookup(key) == store.lookup(key) is not None
        store._backend.delete(key)
        assert store.lookup(key) is None
        store.put(GRID[0], computed[0])
        assert store.lookup(key) == result_json(computed[0])
        assert (store.hits, store.misses) == (3, 1)

    def test_get_returns_distinct_results(self, tmp_path, name, computed):
        store = ResultStore(tmp_path / name)
        store.put(GRID[0], computed[0])
        reference = computed[0].to_dict()
        # First sight, then two memo hits.
        first, second, third = (store.get(GRID[0]) for _ in range(3))
        assert first is not second and second is not third
        assert first == second == third
        first.cycles += 1
        first.unfiltered_burst_sizes.append(12345)
        first.handler_instructions.clear()
        second.reports.clear()
        assert third.to_dict() == reference
        assert store.get(GRID[0]).to_dict() == reference


class _DictBackend:
    """Entries in a dict: the read and delete half of a backend."""

    def __init__(self):
        self.entries = {}

    def read(self, key):
        return self.entries.get(key)

    def delete(self, key):
        self.entries.pop(key, None)


def test_validation_memo_is_bounded(tmp_path, computed):
    store = ResultStore(tmp_path / "cache")
    store._backend = backend = _DictBackend()
    text = result_json(computed[0])
    spec = json.dumps(GRID[0].to_dict(), sort_keys=True)
    size = store_module._VALIDATED_MEMO_SIZE
    keys = [f"{index:064x}" for index in range(size + 3)]
    for key in keys:
        backend.entries[key] = (
            f'{{"key": "{key}", "result": {text}, "spec": {spec}}}'.encode()
        )
        assert store.lookup(key) == text
    assert len(store._validated) == size
    # The oldest keys went first; the newest are still memo hits.
    assert keys[0] not in store._validated
    assert keys[-1] in store._validated
    assert store.hits == len(keys)


class TestSqliteBackend:
    def test_stats_per_shard(self, tmp_path):
        store = ResultStore(tmp_path / "cache.db")
        ParallelRunner(jobs=1, store=store).run(GRID[:3])
        stats = store.stats()
        assert stats["backend"] == "sqlite"
        assert stats["entries"] == 3 == len(store)
        assert stats["bytes"] > 0
        assert sum(s["entries"] for s in stats["shards"].values()) == 3
        assert sum(s["bytes"] for s in stats["shards"].values()) == stats["bytes"]

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path / "cache.db")
        ParallelRunner(jobs=1, store=store).run(GRID[:2])
        assert store.clear() == 2
        assert len(store) == 0

    def test_readonly_missing_file_is_all_misses(self, tmp_path):
        store = ResultStore(tmp_path / "absent.db", readonly=True)
        assert store.get(GRID[0]) is None
        assert not (tmp_path / "absent.db").exists()  # Never created.

    def test_corrupt_db_self_heals(self, tmp_path):
        path = tmp_path / "cache.db"
        store = ResultStore(path)
        result = ParallelRunner(jobs=1).run(GRID[:1]).results[0]
        store.put(GRID[0], result)
        store.close()
        path.write_bytes(b"this is not a sqlite database, sorry")
        healed = ResultStore(path)
        assert healed.get(GRID[0]) is None  # Miss, not an exception.
        healed.put(GRID[0], result)  # Rebuilt: writable again.
        assert healed.get(GRID[0]).to_dict() == result.to_dict()


# --- concurrent writers (top-level: fork-context Process targets) -----------

def _race_writer(path, spec_json, result_json, rounds):
    """Hammer one sqlite store entry from a separate process."""
    import json as _json

    from repro.api import RunSpec as _RunSpec
    from repro.api import ResultStore as _ResultStore
    from repro.system.results import RunResult as _RunResult

    store = _ResultStore(path)
    spec = _RunSpec.from_json(spec_json)
    result = _RunResult.from_dict(_json.loads(result_json))
    for _ in range(rounds):
        store.put(spec, result)
    store.close()


class TestSqliteConcurrentWriters:
    """Two processes racing puts on the same SQLite entry (WAL mode):
    readers only ever see a missing entry or a complete one, bit-identical
    to the computed result — the same guarantee the JSON backend's atomic
    replace provides."""

    def test_racing_puts_same_entry(self, tmp_path):
        store_path = tmp_path / "race.db"
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
        assert len(store) == 1

    def test_racing_distinct_entries(self, tmp_path):
        """Writers on different keys never lose each other's rows."""
        store_path = tmp_path / "multi.db"
        results = ParallelRunner(jobs=1).run(GRID[:2])
        context = multiprocessing.get_context("fork")
        writers = [
            context.Process(
                target=_race_writer,
                args=(
                    str(store_path),
                    spec.to_json(),
                    json.dumps(result.to_dict()),
                    40,
                ),
            )
            for spec, result in zip(GRID[:2], results.results)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        store = ResultStore(store_path)
        assert len(store) == 2
        for spec, result in zip(GRID[:2], results.results):
            assert store.get(spec).to_dict() == result.to_dict()


class TestCliCacheJson:
    def test_cache_stats_json_sqlite(self, tmp_path, capsys):
        db = tmp_path / "cli.db"
        assert cli.main(
            ["run", "-n", "1200", "--result-cache", f"sqlite://{db}"]
        ) == 0
        capsys.readouterr()
        assert cli.main(
            ["cache", "stats", "--result-cache", str(db), "--json"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["backend"] == "sqlite"
        assert stats["entries"] == 1 and stats["bytes"] > 0
        assert sum(s["entries"] for s in stats["shards"].values()) == 1

    def test_cache_stats_json_jsondir(self, tmp_path, capsys):
        cache_dir = tmp_path / "cli-cache"
        assert cli.main(
            ["run", "-n", "1200", "--result-cache", str(cache_dir)]
        ) == 0
        capsys.readouterr()
        assert cli.main(
            ["cache", "stats", "--result-cache", str(cache_dir), "--json"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["backend"] == "json" and stats["entries"] == 1
