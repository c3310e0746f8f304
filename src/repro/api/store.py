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
* the trace-column schema version and the store schema version — any
  change to trace encoding or result serialisation retires the whole cache.

Keying is over *inputs*, never over wall-clock or host state, so a store
hit returns a ``RunResult`` bit-identical to recomputation (round-tripped
through the same ``to_dict``/``from_dict`` pair the ResultSet save/load
path uses; proven by tests/test_store.py).  Each call hashes afresh: the
campaign server keys each distinct request spec text once, and a runner
keys a cell once per read and once per write.

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
  It lives in :mod:`repro.api.sqlite_store`, imported when such a store
  is opened, so no other process loads ``sqlite3``.

Monitors edited *in place* (same class name, new behaviour) are the one
invalidation the key cannot see; ``repro cache clear`` is the escape hatch
(documented in DESIGN.md).
"""

from __future__ import annotations

import collections
import hashlib
import json
import math
import os
import pathlib
import tempfile
from typing import (
    TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple, Union,
)

from repro.common.errors import SimulationError
from repro.faults.injector import store_write_fault
from repro.faults.retry import STORE_WRITE_POLICY

# Opening, listing and clearing a store loads no simulator: keys, results
# and specs import the layers they read where they use them.
if TYPE_CHECKING:
    from repro.api.spec import RunSpec
    from repro.system.results import RunResult

#: Version of the store's on-disk entry format *and* of the RunResult
#: semantics it captures.  Bump whenever RunResult serialisation or the
#: simulation's meaning changes in a way the spec content cannot express.
#: Shared by every backend — the key (and therefore the cache identity) is
#: backend-independent.
STORE_SCHEMA_VERSION = 1

#: How many validated entries a :class:`ResultStore` remembers
#: (:meth:`ResultStore.lookup`).  An entry holds one payload and its
#: result's text: a few KB.
_VALIDATED_MEMO_SIZE = 4096

#: Path suffixes that select the SQLite backend without an explicit scheme.
_SQLITE_SUFFIXES = (".db", ".sqlite", ".sqlite3")


def content_key(spec: RunSpec) -> str:
    """Content hash of everything a cell's result depends on.

    Module-level (not a store method) because the key is a property of the
    *spec content*, shared by every backend and by store-less consumers:
    the campaign server single-flights identical in-flight specs by this
    key even when it runs without a persistent store.  It keeps no memo:
    the server keys each distinct request spec text once
    (``CampaignServer._parse``).
    """
    from repro.system.config import field_dict

    registered, factory, store_schema, trace_schema = key_inputs(spec)
    # An inline profile is part of the spec; a registered one is keyed by
    # its field values.
    profile = spec.profile if registered is None else registered
    payload = {
        "store_schema": store_schema,
        "trace_schema": trace_schema,
        "spec": spec.to_dict(),
        "profile": field_dict(profile),
        "monitor_impl": (
            f"{getattr(factory, '__module__', '?')}."
            f"{getattr(factory, '__qualname__', repr(factory))}"
        ),
    }
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def key_inputs(spec: RunSpec) -> Tuple[object, ...]:
    """What :func:`content_key` reads besides ``spec`` itself, as this
    process has it now: the registered profile (None for an inline one),
    the registered monitor factory and the store and trace schema
    versions.  A caller that holds a spec's key may reuse it while every
    one of these is the same object.  Raises ``ConfigurationError`` for a
    name the registries do not hold."""
    from repro.monitors import MONITOR_REGISTRY
    from repro.workload.trace import TRACE_SCHEMA_VERSION

    return (
        spec.resolved_profile() if spec.profile is None else None,
        MONITOR_REGISTRY.get(spec.monitor),
        STORE_SCHEMA_VERSION,
        TRACE_SCHEMA_VERSION,
    )


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


def result_json(result: RunResult) -> str:
    """``result``'s canonical JSON text: the form a store entry holds and
    the campaign server streams, encoded once per computed result.

    A result with a NaN or infinite metric must never be stored or served
    as a valid cell: it raises
    :class:`~repro.common.errors.SimulationError` naming the first such
    field.
    """
    try:
        return json.dumps(result.to_dict(), sort_keys=True, allow_nan=False)
    except ValueError:
        field = _non_finite_field(result.to_dict(), "")
        if field is None:
            raise
        raise SimulationError(
            f"result metric {field!r} is not finite; refusing to store it"
        ) from None


#: An entry payload is ``json.dumps({"key": K, "result": R, "spec": S},
#: sort_keys=True)``: this head, R, the separator, S and ``}`` (a content
#: key is a hex digest, so it needs no escaping).
_ENTRY_HEAD = '{{"key": "{}", "result": '
_ENTRY_SPEC = ', "spec": '


def _refuse_constant(name: str) -> float:
    """``parse_constant`` hook: ``NaN`` and ``Infinity`` are no JSON, and
    no stored metric may be non-finite (:func:`result_json`)."""
    raise ValueError(f"non-finite number {name} in a stored entry")


_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def _entry_result(
    payload: Union[bytes, str], key: str
) -> Tuple[object, Optional[str]]:
    """An entry payload's decoded result and its JSON text as stored.

    A payload in the layout :meth:`ResultStore.put` writes is decoded
    piecewise by ``json``'s decoder: one pass over the whole payload that
    also yields where the result's text starts and ends.  Any
    other payload goes through ``json.loads`` (a hand-edited entry, say),
    and its text is None.  Raises ``ValueError``, ``KeyError`` or
    ``TypeError`` for a payload that is no entry, or that holds ``NaN`` or
    ``Infinity``.
    """
    try:
        text = payload.decode() if isinstance(payload, bytes) else payload
        head = _ENTRY_HEAD.format(key)
        if text.startswith(head):
            result, end = _DECODER.raw_decode(text, len(head))
            if text.startswith(_ENTRY_SPEC, end):
                _, spec_end = _DECODER.raw_decode(
                    text, end + len(_ENTRY_SPEC)
                )
                if spec_end == len(text) - 1 and text.endswith("}"):
                    return result, text[len(head):end]
    except ValueError:
        pass
    return json.loads(payload, parse_constant=_refuse_constant)["result"], None


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

    #: Write errors a retry may cure (:meth:`ResultStore.put`).
    transient_errors: Tuple[type, ...] = (OSError,)

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
            from repro.api.sqlite_store import SqliteBackend

            self._backend = SqliteBackend(fs_path, readonly)
        else:
            self._backend = BlobDir(fs_path, ".json")
            if not readonly:
                fs_path.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.write_retries = 0
        #: Content key -> (payload bytes, result text) of the entries
        #: :meth:`lookup` last validated, least recently used first.
        self._validated: collections.OrderedDict[
            str, Tuple[Union[bytes, str], str]
        ] = collections.OrderedDict()

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
        """The cached result for ``spec``'s content, or None (a miss).
        Each call returns a new ``RunResult``."""
        text = self.lookup(content_key(spec))
        if text is None:
            return None
        from repro.system.results import RunResult

        return RunResult.from_dict(json.loads(text))

    def lookup(self, key: str) -> Optional[str]:
        """The JSON text of the result stored under content ``key``, or
        None (a miss).

        The one read-and-validate path (:meth:`get` wraps it).  It reads
        the entry once per call.  Bytes this store has not validated
        before must decode as a whole payload whose result rebuilds a
        ``RunResult``; a corrupt entry is deleted and reads as a miss.
        Bytes equal to the ones it last validated under ``key`` get that
        validation's verdict and text again without decoding anything:
        the same bytes decode the same way, so the answer is the one a
        full validation would give.  The text is the entry's own, which
        :meth:`put` wrote as :func:`result_json`, so a server can stream
        it without encoding the result again; an entry in any other
        layout has its result re-encoded once, on first sight.  The memo
        holds bytes and text only, never a result.
        """
        memo = self._validated
        try:
            payload = self._backend.read(key)
            if payload is None:
                memo.pop(key, None)
                self.misses += 1
                return None
            seen = memo.get(key)
            if seen is not None and seen[0] == payload:
                memo.move_to_end(key)
                self.hits += 1
                return seen[1]
            from repro.system.results import RunResult

            data, text = _entry_result(payload, key)
            result = RunResult.from_dict(data)
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupt/truncated entry (e.g. a crashed writer predating the
            # atomic-replace protocol): drop it and recompute.  A readonly
            # store must not self-heal — deleting is a write too.
            memo.pop(key, None)
            if not self.readonly:
                self._backend.delete(key)
            self.misses += 1
            return None
        if text is None:
            text = json.dumps(result.to_dict(), sort_keys=True)
        memo[key] = (payload, text)
        memo.move_to_end(key)
        if len(memo) > _VALIDATED_MEMO_SIZE:
            memo.popitem(last=False)
        self.hits += 1
        return text

    def put(self, spec: RunSpec, result: RunResult) -> None:
        """Persist one cell atomically (tmp file + rename, or one SQLite
        transaction).

        Transient write failures — ENOSPC races, SQLite lock contention —
        are retried with bounded exponential backoff; only a persistently
        failing store propagates the error, always as an ``OSError`` (a
        lock error that outlasts the retries is chained onto one), so
        callers catch one type whatever the backend.  A *torn* write (a
        crashed or fault-injected writer truncating the payload) is not an
        error here: the corrupt entry reads as a miss later and is
        deleted, so the next computation heals it.

        A result with a non-finite metric is refused with a
        :class:`~repro.common.errors.SimulationError` naming the field.
        """
        if self.readonly:
            return
        self.put_text(content_key(spec), spec, result_json(result))

    def put_text(self, key: str, spec: RunSpec, result_text: str) -> None:
        """:meth:`put` for a result already encoded by :func:`result_json`
        under its content ``key``: the payload is byte-identical to the
        one :meth:`put` writes, without encoding the result again."""
        if self.readonly:
            return
        spec_text = json.dumps(spec.to_dict(), sort_keys=True, allow_nan=False)
        payload = (
            f"{_ENTRY_HEAD.format(key)}{result_text}{_ENTRY_SPEC}{spec_text}}}"
        )

        def _write_once() -> None:
            # Fault seam: store_write_fault may raise a transient error
            # (exercised by the retry below) or tear the payload.
            self._backend.write(key, store_write_fault(payload).encode())

        def _count_retry(attempt: int, error: BaseException) -> None:
            self.write_retries += 1

        transient = self._backend.transient_errors
        try:
            STORE_WRITE_POLICY.call(
                _write_once, retry_on=transient, on_retry=_count_retry
            )
        except transient as error:
            if isinstance(error, OSError):
                raise
            raise OSError(f"result store write failed: {error}") from error

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
        self._validated.clear()
        if self.readonly:
            return 0
        return self._backend.clear()

    def close(self) -> None:
        """Release backend resources (the SQLite connection).  Using the
        store afterwards transparently reopens them."""
        if self.backend == "sqlite":
            self._backend.close()

    def __len__(self) -> int:
        return sum(1 for _ in self._backend.entries())

    def __repr__(self) -> str:
        return f"ResultStore({str(self.path)!r}, backend={self.backend!r})"
