"""Persistent content-addressed result store.

A :class:`ResultStore` maps the *content* of a :class:`~repro.api.RunSpec`
to its :class:`~repro.system.results.RunResult` on disk, so re-running any
figure grid recomputes only dirty cells.  The store key is a SHA-256 over:

* the spec's canonical JSON (benchmark, monitor, full system config,
  settings) — any knob change is a new key;
* the resolved benchmark profile's field values — re-registering a
  benchmark name with different statistics invalidates its cached cells;
* the registered monitor implementation's identity (module-qualified name)
  — swapping a name to a different class invalidates its cells;
* the packed-trace schema version and the store schema version — any
  change to trace encoding or result serialisation retires the whole cache.

Keying is over *inputs*, never over wall-clock or host state, so a store
hit returns a ``RunResult`` bit-identical to recomputation (round-tripped
through the same ``to_dict``/``from_dict`` pair the ResultSet save/load
path uses; proven by tests/test_store.py).

Two interchangeable on-disk backends sit behind the one interface, selected
by the store path (``tests/test_store_backends.py`` proves byte-identical
entry payloads and results across them):

* **json** (the default) — a :class:`BlobDir` of ``.json`` files: one per
  key, sharded by the key's first two hex digits, written atomically
  (``os.replace``) so concurrent writers — e.g. a grid running while
  another shell replays a figure — can share one store directory.  Corrupt
  or truncated entries are treated as misses and deleted.
* **sqlite** — a single WAL-mode SQLite database holding the same entry
  payloads (``entries(key, payload)``), selected by a ``sqlite://`` URL or
  a ``.db``/``.sqlite``/``.sqlite3`` path suffix.  WAL gives many
  concurrent readers plus serialized writers across *processes* — the
  backend the campaign server (:mod:`repro.service`) points many clients
  at.  A corrupt database file heals the same way a corrupt JSON entry
  does: it reads as a miss and is re-created on the next write.

Monitors edited *in place* (same class name, new behaviour) are the one
invalidation the key cannot see; ``repro cache clear`` is the escape hatch
(documented in DESIGN.md).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import pathlib
import sqlite3
import tempfile
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.common.errors import SimulationError
from repro.faults.injector import store_write_fault
from repro.faults.retry import STORE_WRITE_POLICY
from repro.monitors import MONITOR_REGISTRY
from repro.system.results import RunResult
from repro.workload.packed import TRACE_SCHEMA_VERSION

from repro.api.spec import RunSpec

#: Version of the store's on-disk entry format *and* of the RunResult
#: semantics it captures.  Bump whenever RunResult serialisation or the
#: simulation's meaning changes in a way the spec content cannot express.
#: Shared by every backend — the key (and therefore the cache identity) is
#: backend-independent.
STORE_SCHEMA_VERSION = 1

#: Path suffixes that select the SQLite backend without an explicit scheme.
_SQLITE_SUFFIXES = (".db", ".sqlite", ".sqlite3")

#: How long a SQLite writer waits on a locked database before giving up —
#: generous, because racing grid processes serialize whole-entry writes.
_SQLITE_BUSY_TIMEOUT = 30.0


def _is_lock_error(error: sqlite3.Error) -> bool:
    """True for SQLite's *transient* contention errors ('database is
    locked' / 'database is busy').  These are OperationalErrors — and
    therefore DatabaseError subclasses — but they signal a losing race,
    not corruption: healing by deleting the database (what
    ``_reset_corrupt`` does for genuine corruption) would destroy every
    entry over a timing hiccup."""
    if not isinstance(error, sqlite3.OperationalError):
        return False
    text = str(error).lower()
    return "locked" in text or "busy" in text


def content_key(spec: RunSpec) -> str:
    """Content hash of everything a cell's result depends on.

    Module-level (not a store method) because the key is a property of the
    *spec content*, shared by every backend and by store-less consumers:
    the campaign server single-flights identical in-flight specs by this
    key even when it runs without a persistent store.
    """
    factory = MONITOR_REGISTRY.get(spec.monitor)
    payload = {
        "store_schema": STORE_SCHEMA_VERSION,
        "trace_schema": TRACE_SCHEMA_VERSION,
        "spec": spec.to_dict(),
        "profile": dataclasses.asdict(spec.resolved_profile()),
        "monitor_impl": (
            f"{getattr(factory, '__module__', '?')}."
            f"{getattr(factory, '__qualname__', repr(factory))}"
        ),
    }
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _non_finite_field(value: object, path: str) -> Optional[str]:
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        items: Iterable = value.items()
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    else:
        return None
    for name, item in items:
        found = _non_finite_field(item, f"{path}.{name}" if path else str(name))
        if found is not None:
            return found
    return None


def check_finite(result: RunResult) -> None:
    """Raise :class:`~repro.common.errors.SimulationError` naming the first
    metric of ``result`` that is NaN or infinite (such a result must never
    be stored or served as a valid cell)."""
    field = _non_finite_field(result.to_dict(), "")
    if field is not None:
        raise SimulationError(
            f"result metric {field!r} is not finite; refusing to store it"
        )


def _parse_store_path(
    path: Union[str, os.PathLike],
) -> Tuple[str, pathlib.Path]:
    """(backend name, filesystem path) for a store path or URL.

    ``sqlite://`` / ``json://`` URLs select explicitly (``sqlite:///x/y.db``
    keeps the absolute path ``/x/y.db``); bare paths select by suffix —
    ``.db``/``.sqlite``/``.sqlite3`` means SQLite, anything else is the
    sharded-JSON directory layout.
    """
    text = os.fspath(path)
    for scheme, backend in (("sqlite://", "sqlite"), ("json://", "json")):
        if text.startswith(scheme):
            # URL authority is always empty (local files): "sqlite:///a/b"
            # is the absolute path /a/b, "sqlite://rel/c" the relative c.
            rest = text[len(scheme):]
            return backend, pathlib.Path(rest or ".")
    head, sep, _ = text.partition("://")
    if sep and head.isalnum():
        from repro.common.errors import ConfigurationError

        raise ConfigurationError(
            f"unknown result-store scheme {head!r} in {text!r}: "
            "use sqlite://, json://, or a bare path "
            "(.db/.sqlite/.sqlite3 selects SQLite)"
        )
    suffix = pathlib.Path(text).suffix.lower()
    if suffix in _SQLITE_SUFFIXES:
        return "sqlite", pathlib.Path(text)
    return "json", pathlib.Path(text)


#: Name prefix of a write's temp file (an orphan of a killed writer is
#: not an entry).
_TMP_PREFIX = ".tmp-"


class BlobDir:
    """Keyed blobs in one directory: ``<root>/<key[:2]>/<key><suffix>``.

    The on-disk layout of both persistent stores: the json result backend
    and each fingerprint directory of the trace store.  A write goes to a
    temp file in the key's shard and moves into place with ``os.replace``,
    so concurrent writers of one key are safe and a reader sees no entry
    or a whole one.  Creating a ``BlobDir`` touches nothing on disk.
    """

    def __init__(self, root: pathlib.Path, suffix: str) -> None:
        self.root = root
        self.suffix = suffix

    def path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}{self.suffix}"

    def read(self, key: str) -> Optional[bytes]:
        """The entry's bytes; None when it does not exist.  Any other
        ``OSError`` is raised."""
        try:
            with open(self.path(key), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def write(self, key: str, data: bytes) -> None:
        """Store ``data`` atomically.  On ``OSError`` the temp file is
        removed and the error raised."""
        entry = self.path(key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=entry.parent, prefix=_TMP_PREFIX, suffix=self.suffix
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, entry)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def delete(self, key: str) -> None:
        try:
            self.path(key).unlink()
        except OSError:
            pass

    def _files(self) -> List[pathlib.Path]:
        """Entries plus orphaned temp files."""
        return list(self.root.glob(f"??/*{self.suffix}"))

    def entries(self) -> Iterator[Tuple[str, int]]:
        """(key, size) of every entry."""
        for entry in self._files():
            if entry.name.startswith(_TMP_PREFIX):
                continue
            try:
                yield entry.name[: -len(self.suffix)], entry.stat().st_size
            except OSError:  # Entry vanished under a racing clear.
                continue

    def clear(self) -> int:
        """Delete every entry, orphaned temp files and empty shards;
        returns how many entries were removed."""
        removed = 0
        for entry in self._files():
            try:
                entry.unlink()
            except OSError:
                continue
            removed += not entry.name.startswith(_TMP_PREFIX)
        for shard in list(self.root.glob("??")):
            try:
                shard.rmdir()
            except OSError:
                pass
        return removed


class _SqliteBackend:
    """One WAL-mode SQLite database holding every entry.

    WAL mode is the concurrency contract: readers never block writers,
    writers never block readers, and concurrent writers from *different
    processes* serialize on the database lock (with a generous busy
    timeout) instead of corrupting each other — the property the campaign
    server relies on when many clients share one store.  Every statement
    runs in autocommit (``isolation_level=None``), so an entry write is a
    single atomic transaction, the analogue of :class:`BlobDir`'s atomic
    replace.
    """

    def __init__(self, path: pathlib.Path, readonly: bool) -> None:
        self.path = path
        self.readonly = readonly
        self._conn: Optional[sqlite3.Connection] = None
        if not readonly and self.path.parent != self.path:
            self.path.parent.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------ connection

    def _connect(self) -> Optional[sqlite3.Connection]:
        """The lazily-opened connection; None when a readonly store's
        database does not exist (every read is then a miss)."""
        if self._conn is not None:
            return self._conn
        if self.readonly:
            if not self.path.exists():
                return None
            # mode=ro refuses writes at the SQLite level, so readonly is
            # enforced even against bugs in this class.
            uri = f"file:{self.path.as_posix()}?mode=ro"
            conn = sqlite3.connect(
                uri,
                uri=True,
                timeout=_SQLITE_BUSY_TIMEOUT,
                isolation_level=None,
                check_same_thread=False,
            )
        else:
            conn = sqlite3.connect(
                os.fspath(self.path),
                timeout=_SQLITE_BUSY_TIMEOUT,
                isolation_level=None,
                check_same_thread=False,
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                "key TEXT PRIMARY KEY, payload TEXT NOT NULL)"
            )
        self._conn = conn
        return conn

    def _reset_corrupt(self) -> None:
        """Self-heal a corrupt database the way the JSON backend heals a
        corrupt entry: drop it (plus WAL side files) so the next write
        starts a fresh database.  Readonly stores must not heal."""
        self.close()
        if self.readonly:
            return
        for side in ("", "-wal", "-shm"):
            try:
                os.unlink(f"{self.path}{side}")
            except OSError:
                pass

    # ---------------------------------------------------------------- access

    def read(self, key: str) -> Optional[str]:
        try:
            conn = self._connect()
            if conn is None:
                return None
            row = conn.execute(
                "SELECT payload FROM entries WHERE key = ?", (key,)
            ).fetchone()
        except sqlite3.DatabaseError as error:
            if _is_lock_error(error):
                return None  # Losing a read race is just a miss.
            self._reset_corrupt()
            return None
        return row[0] if row is not None else None

    def write(self, key: str, data: bytes) -> None:
        payload = data.decode()
        try:
            conn = self._connect()
            if conn is None:
                return
            conn.execute(
                "INSERT OR REPLACE INTO entries (key, payload) VALUES (?, ?)",
                (key, payload),
            )
        except sqlite3.DatabaseError as error:
            if _is_lock_error(error):
                raise  # Transient: the caller's retry policy handles it.
            self._reset_corrupt()
            conn = self._connect()
            if conn is not None:
                conn.execute(
                    "INSERT OR REPLACE INTO entries (key, payload) "
                    "VALUES (?, ?)",
                    (key, payload),
                )

    def delete(self, key: str) -> None:
        try:
            conn = self._connect()
            if conn is not None:
                conn.execute("DELETE FROM entries WHERE key = ?", (key,))
        except sqlite3.DatabaseError as error:
            if not _is_lock_error(error):
                self._reset_corrupt()

    def entries(self) -> Iterator[Tuple[str, int]]:
        try:
            conn = self._connect()
            if conn is None:
                return
            rows = conn.execute(
                "SELECT key, length(payload) FROM entries"
            ).fetchall()
        except sqlite3.DatabaseError as error:
            if not _is_lock_error(error):
                self._reset_corrupt()
            return
        yield from rows

    def clear(self) -> int:
        try:
            conn = self._connect()
            if conn is None:
                return 0
            cursor = conn.execute("DELETE FROM entries")
            return cursor.rowcount
        except sqlite3.DatabaseError as error:
            if not _is_lock_error(error):
                self._reset_corrupt()
            return 0

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover - teardown best effort
                pass
            self._conn = None


class ResultStore:
    """On-disk RunSpec-content → RunResult cache (backend-agnostic)."""

    #: Kept as a class attribute for backwards compatibility; the canonical
    #: constant is module-level :data:`STORE_SCHEMA_VERSION`.
    SCHEMA_VERSION = STORE_SCHEMA_VERSION

    def __init__(
        self, path: Union[str, os.PathLike], readonly: bool = False
    ) -> None:
        """``path`` selects the backend: a ``sqlite://``/``json://`` URL or
        a bare path (``.db``/``.sqlite``/``.sqlite3`` suffix → SQLite,
        anything else → sharded-JSON directory).

        ``readonly=True`` opts out of every write: :meth:`put` becomes a
        no-op, corrupt entries are not self-healed, and nothing is created
        on disk.  The verification CLI (``repro fuzz`` /
        ``repro conformance``) opens the user's ``$REPRO_RESULT_CACHE``
        this way so throwaway verification runs can never mutate the
        persistent store (they re-simulate instead of serving from it —
        a store hit would verify the cache, not the code)."""
        backend_name, fs_path = _parse_store_path(path)
        self.path = fs_path
        self.readonly = readonly
        #: The backend's name: ``"json"`` or ``"sqlite"``.
        self.backend = backend_name
        if backend_name == "sqlite":
            self._backend = _SqliteBackend(fs_path, readonly)
        else:
            self._backend = BlobDir(fs_path, ".json")
            if not readonly:
                fs_path.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.write_retries = 0

    # ---------------------------------------------------------------- keys

    def key(self, spec: RunSpec) -> str:
        """Content hash of everything the cell's result depends on
        (see :func:`content_key`; identical across backends)."""
        return content_key(spec)

    def _entry_path(self, key: str) -> pathlib.Path:
        """JSON-backend entry location (test/debug hook; the SQLite backend
        has no per-entry files)."""
        return self._backend.path(key)

    # -------------------------------------------------------------- access

    def get(self, spec: RunSpec) -> Optional[RunResult]:
        """The cached result for ``spec``'s content, or None (a miss)."""
        key = content_key(spec)
        try:
            payload = self._backend.read(key)
            if payload is None:
                self.misses += 1
                return None
            result = RunResult.from_dict(json.loads(payload)["result"])
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupt/truncated entry (e.g. a crashed writer predating the
            # atomic-replace protocol): drop it and recompute.  A readonly
            # store must not self-heal — deleting is a write too.
            if not self.readonly:
                self._backend.delete(key)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, spec: RunSpec, result: RunResult) -> None:
        """Persist one cell atomically (tmp file + rename, or one SQLite
        transaction).

        Transient write failures — ENOSPC races, SQLite lock contention —
        are retried with bounded exponential backoff; only a persistently
        failing store propagates the error.  A *torn* write (a crashed or
        fault-injected writer truncating the payload) is not an error
        here: the corrupt entry reads as a miss later and is deleted, so
        the next computation heals it.

        A result with a non-finite metric is refused with a
        :class:`~repro.common.errors.SimulationError` naming the field.
        """
        if self.readonly:
            return
        key = content_key(spec)
        try:
            payload = json.dumps(
                {"key": key, "spec": spec.to_dict(), "result": result.to_dict()},
                sort_keys=True,
                allow_nan=False,
            )
        except ValueError:
            check_finite(result)
            raise

        def _write_once() -> None:
            # Fault seam: store_write_fault may raise a transient error
            # (exercised by the retry below) or tear the payload.
            self._backend.write(key, store_write_fault(payload).encode())

        def _count_retry(attempt: int, error: BaseException) -> None:
            self.write_retries += 1

        STORE_WRITE_POLICY.call(
            _write_once,
            retry_on=(OSError, sqlite3.OperationalError),
            on_retry=_count_retry,
        )

    # ---------------------------------------------------------- management

    def stats(self) -> Dict[str, object]:
        """Aggregate plus per-shard entry counts and bytes.

        A shard is the key's first two hex digits — the JSON backend's
        subdirectory fan-out, applied to SQLite keys too so the shape of
        the output (and of ``repro cache stats --json`` / the server's
        ``/stats`` endpoint) is backend-independent.
        """
        shards: Dict[str, Dict[str, int]] = {}
        entries = 0
        total_bytes = 0
        for key, size in self._backend.entries():
            shard = shards.setdefault(key[:2], {"entries": 0, "bytes": 0})
            shard["entries"] += 1
            shard["bytes"] += size
            entries += 1
            total_bytes += size
        return {
            "path": str(self.path),
            "backend": self.backend,
            "entries": entries,
            "bytes": total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "write_retries": self.write_retries,
            "shards": {name: shards[name] for name in sorted(shards)},
        }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        if self.readonly:
            return 0
        return self._backend.clear()

    def close(self) -> None:
        """Release backend resources (the SQLite connection).  Using the
        store afterwards transparently reopens them."""
        if isinstance(self._backend, _SqliteBackend):
            self._backend.close()

    def __len__(self) -> int:
        return sum(1 for _ in self._backend.entries())

    def __repr__(self) -> str:
        return f"ResultStore({str(self.path)!r}, backend={self.backend!r})"
