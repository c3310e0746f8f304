"""The SQLite backend of :class:`~repro.api.store.ResultStore`.

A module of its own so that ``sqlite3`` is imported only when a SQLite
store is opened: a json store, or a run with no store, never loads it.
"""

from __future__ import annotations

import os
import pathlib
import sqlite3
from typing import Iterator, Optional, Tuple

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


class SqliteBackend:
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

    #: Write errors a retry may cure: a full disk or a lost lock race
    #: (:meth:`~repro.api.store.ResultStore.put`).
    transient_errors: Tuple[type, ...] = (OSError, sqlite3.OperationalError)

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

