"""Per-machine store of trace columns, retire schedules and warm states.

Every new process used to synthesize each trace it ran, that trace's
retire schedules and the state its warmup leaves behind, from scratch:
each ``repro run``, each pool worker.  A :class:`TraceStore` keeps those
three artifacts on disk once per machine, behind
:class:`~repro.api.cache.RunnerCache`'s ``trace``, ``schedule`` and
``warm_state`` lookups, so a process that needs one this machine has
already built loads it instead: a 20k trace in about 1.3 ms on a 2-CPU
container against 25-40 ms to synthesize it, a warm state in about 0.5 ms
against about 14 ms of warmup.

* **Location.** ``$REPRO_TRACE_STORE``, else
  ``$XDG_CACHE_HOME/repro/traces``, else ``~/.cache/repro/traces``;
  ``REPRO_TRACE_STORE=off`` turns the store off.
* **Key.** A SHA-256 over canonical JSON of the artifact kind,
  ``TRACE_SCHEMA_VERSION``, the resolved profile's fields, the length and
  seed, (for schedules) the core type and hierarchy config, (for warm
  states) the monitor name, the FADE configuration and the warmup item
  count, and a fingerprint of the source files that compute them
  (:data:`FINGERPRINT_PACKAGES`).  The fingerprint means code edited in
  place can never be served an artifact it would not build.  A process
  whose fingerprinted sources were modified after ``repro`` was loaded
  (:data:`repro.LOADED_AT`; forked workers inherit it) may be running
  code that no longer matches them, so its store is off.
* **Blob.** One file per key in a :class:`~repro.api.store.BlobDir` (the
  json result backend's layout) named for the fingerprint:
  ``<dir>/<fingerprint[:16]>/<key[:2]>/<key>.blob``, a JSON header line
  (which carries the SHA-256 of the body), then the zlib level-1 body.
  ``BlobDir`` writes atomically, so concurrent writers of one key are
  safe.
* **Warm states.** The ``(monitor, fade)`` pair after the warmup, pickled
  as one graph so FADE's metadata stays the monitor's own.  Loading it
  admits only an allow-list of classes (:func:`load_warm_state`): a
  pickle naming anything else, a function included, is a bad blob.
* **Eviction.** A process's first write marks its fingerprint directory
  as the most recently written and deletes all but the
  :data:`KEEP_FINGERPRINTS` most recently written, so editing the
  fingerprinted code does not grow the store without bound (a process
  still running evicted code rebuilds what it needs).
* **Degradation.** A blob that is truncated, fails its digest, cannot be
  decoded or has the wrong schema or length is deleted and regenerated; a
  directory that cannot be read or written turns the store off.  Nothing
  here ever raises.

Callers skip the store for specs carrying an inline profile, so fuzzing
does not fill the disk with one-off traces, and ``repro serve``'s
long-lived workers skip it altogether (``RunnerCache(persist=False)``), so
a request's latency does not depend on what other processes left here.
Creating a store neither touches the disk nor computes the fingerprint;
both happen on first use.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import pathlib
import shutil
import zlib
from array import array
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

import repro
from repro.api.store import BlobDir
from repro.cores.base import CoreType
from repro.fade.accelerator import Fade, FadeConfig
from repro.mem.hierarchy import HierarchyConfig
from repro.monitors.base import Monitor
from repro.system.config import field_dict
from repro.workload.trace import COLUMN_SPEC, TRACE_SCHEMA_VERSION, Trace
from repro.workload.profile import BenchmarkProfile

#: Environment variable naming the store directory (``off`` disables it).
TRACE_STORE_ENV = "REPRO_TRACE_STORE"

#: Version of the blob layout (header fields and body encoding).
BLOB_FORMAT = 1

#: Packages whose sources decide what a trace, a schedule or a warm state
#: contains (``system`` holds the warmup itself).
FINGERPRINT_PACKAGES = ("workload", "common", "isa", "cores", "mem",
                        "metadata", "monitors", "fade", "system")

_PACKAGE_ROOT = pathlib.Path(__file__).parent.parent

_ROW_BYTES = sum(array(code).itemsize for _, code in COLUMN_SPEC)

#: How many fingerprint directories (this process's included) survive a
#: write: enough for a checkout and its parent measured side by side.
KEEP_FINGERPRINTS = 3

#: Leading fingerprint digits naming a blob directory, and their glob.
_FINGERPRINT_DIGITS = 16
_FINGERPRINT_GLOB = "[0-9a-f]" * _FINGERPRINT_DIGITS

#: This process's fingerprint; None until computed, "" when unusable.
_fingerprint: Optional[str] = None

#: How many distinct profiles :func:`_profile_json` remembers per process.
_PROFILE_MEMO_SIZE = 256


def fingerprint_sources(root: pathlib.Path, loaded_at: float
                        ) -> Optional[str]:
    """SHA-256 over the :data:`FINGERPRINT_PACKAGES` sources under
    ``root``; None when one was modified after ``loaded_at`` (the loaded
    code may predate it) or cannot be read."""
    digest = hashlib.sha256()
    try:
        for package in FINGERPRINT_PACKAGES:
            for path in sorted((root / package).rglob("*.py")):
                digest.update(path.relative_to(root).as_posix().encode())
                digest.update(b"\0")
                digest.update(path.read_bytes())
                digest.update(b"\0")
                # Checked after the read, so an edit racing it is caught.
                if path.stat().st_mtime > loaded_at:
                    return None
    except OSError:
        return None
    return digest.hexdigest()


def _import_fingerprinted_modules() -> None:
    """Import every module of :data:`FINGERPRINT_PACKAGES`.

    Modules load lazily, so one this process has not imported yet would
    otherwise load after the hash, from a file edited since.  Imported
    first, every module the process can run predates the hash, and the
    hash's ``LOADED_AT`` check covers any edit made before it.
    """
    for package in FINGERPRINT_PACKAGES:
        for path in sorted((_PACKAGE_ROOT / package).rglob("*.py")):
            parts = path.relative_to(_PACKAGE_ROOT).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            importlib.import_module(".".join(("repro",) + parts))


def source_fingerprint() -> Optional[str]:
    """The fingerprint of the front-end sources this process loaded,
    computed once per process; None when they cannot vouch for it."""
    global _fingerprint
    if _fingerprint is None:
        try:
            _import_fingerprinted_modules()
        except Exception:  # A source that will not import vouches for nothing.
            _fingerprint = ""
        else:
            _fingerprint = fingerprint_sources(_PACKAGE_ROOT,
                                               repro.LOADED_AT) or ""
    return _fingerprint or None


def _canonical(value: object) -> str:
    return json.dumps(value, sort_keys=True, default=str)


@functools.lru_cache(maxsize=_PROFILE_MEMO_SIZE)
def _profile_json(profile: BenchmarkProfile, profile_id: int) -> str:
    """The canonical JSON of a profile's fields, memoized by identity: the
    entry holds the profile, so its id cannot be reused while it lives,
    and an equal profile that is another object (``7 == 7.0``) gets an
    entry of its own."""
    return _canonical(field_dict(profile))


def default_trace_store_path() -> Optional[pathlib.Path]:
    """The configured store directory, or None when the store is off."""
    configured = os.environ.get(TRACE_STORE_ENV, "")
    if configured.strip().lower() == "off":
        return None
    if configured:
        return pathlib.Path(configured)
    cache_home = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return pathlib.Path(cache_home) / "repro" / "traces"


_DEFAULT_STORES: Dict[Optional[pathlib.Path], "TraceStore"] = {}


def default_trace_store() -> "TraceStore":
    """The process's store for the configured location (one instance per
    location, so its counters and off switch are shared)."""
    path = default_trace_store_path()
    store = _DEFAULT_STORES.get(path)
    if store is None:
        store = _DEFAULT_STORES[path] = TraceStore(path)
    return store


def _encode_trace(trace: Trace) -> Tuple[bytes, dict]:
    meta, payload = trace.to_payload()
    return payload, {"name": meta["name"], "seed": meta["seed"],
                     "count": meta["count"]}


def _decode_trace(header: dict, body: bytes) -> Optional[Trace]:
    if (
        len(body) != _ROW_BYTES * header["count"]
        or not isinstance(header.get("name"), str)
        or not isinstance(header.get("seed"), int)
    ):
        return None
    return Trace.from_buffer(
        {**header, "schema": header["trace_schema"]}, body
    )


def _encode_schedule(schedule: List[float]) -> Tuple[bytes, dict]:
    return array("d", schedule).tobytes(), {"count": len(schedule)}


def _decode_schedule(header: dict, body: bytes) -> Optional[List[float]]:
    if len(body) != 8 * header["count"]:
        return None
    times = array("d")
    times.frombytes(body)
    return times.tolist()


class WarmState(NamedTuple):
    """A functionally warmed monitor and its FADE (None unaccelerated),
    with the pickle of the pair."""

    monitor: Monitor
    fade: Optional[Fade]
    body: bytes


#: Pickle protocol of warm states: the first with an opcode for
#: ``bytearray`` (older ones name a global for it), fixed so a blob's bytes
#: do not depend on the writing interpreter.
_WARM_PROTOCOL = 5

#: The only globals outside ``repro`` a warm state's pickle may name.
_WARM_STDLIB_GLOBALS = frozenset({
    ("collections", "OrderedDict"),
    ("operator", "itemgetter"),
})


def encode_warm_state(monitor: Monitor, fade: Optional[Fade]) -> WarmState:
    """``(monitor, fade)`` with their pickle: one dump, so the metadata
    FADE shares with the monitor stays shared when it is loaded."""
    import pickle

    return WarmState(monitor, fade,
                     pickle.dumps((monitor, fade), protocol=_WARM_PROTOCOL))


#: The classes :func:`_warm_class` has admitted, by (module, name).
_ADMITTED: Dict[Tuple[str, str], type] = {}


def _warm_class(module: str, name: str) -> type:
    """The class a warm state's pickle names, if the allow-list admits it:
    a class defined in a fingerprinted ``repro`` package (whose code the
    key vouches for) or one of :data:`_WARM_STDLIB_GLOBALS`."""
    admitted = _ADMITTED.get((module, name))
    if admitted is not None:
        return admitted
    package = module.split(".")
    if (module, name) in _WARM_STDLIB_GLOBALS or (
        len(package) > 1 and package[0] == "repro"
        and package[1] in FINGERPRINT_PACKAGES and name.isidentifier()
    ):
        value = getattr(importlib.import_module(module), name, None)
        if isinstance(value, type) and (
            value.__module__ == module or package[0] != "repro"
        ):
            _ADMITTED[(module, name)] = value
            return value
    import pickle

    raise pickle.UnpicklingError(f"a warm state may not load {module}.{name}")


def load_warm_state(body: bytes) -> WarmState:
    """The warm state pickled in ``body``.  The pickle may construct only
    the classes :func:`_warm_class` admits, never call a function; raises
    on any other pickle."""
    import io
    import pickle

    class Unpickler(pickle.Unpickler):
        def find_class(self, module: str, name: str) -> type:
            return _warm_class(module, name)

    loaded = Unpickler(io.BytesIO(body)).load()
    if not (
        type(loaded) is tuple and len(loaded) == 2
        and isinstance(loaded[0], Monitor)
        and (loaded[1] is None or isinstance(loaded[1], Fade))
    ):
        raise pickle.UnpicklingError("not a (monitor, FADE) warm state")
    return WarmState(loaded[0], loaded[1], body)


def _encode_warm(state: WarmState) -> Tuple[bytes, dict]:
    return state.body, {"count": len(state.body)}


def _decode_warm(header: dict, body: bytes) -> Optional[WarmState]:
    if len(body) != header["count"]:
        return None
    try:
        return load_warm_state(body)
    except Exception:  # Whatever a bad pickle raises, it is healed.
        return None


class TraceStore:
    """Content-keyed on-disk traces, schedules and warm states
    (``path=None``: off)."""

    def __init__(self, path: Union[str, os.PathLike, None]) -> None:
        self.path = pathlib.Path(path) if path is not None else None
        self.enabled = self.path is not None
        self.healed = 0
        #: Whether this store has created its fingerprint directory.
        self._claimed = False

    # ---------------------------------------------------------- artifacts

    def trace(
        self,
        profile: BenchmarkProfile,
        num_instructions: int,
        seed: int,
        build: Callable[[], Trace],
    ) -> Tuple[Trace, bool]:
        """(trace, loaded): the stored trace, else ``build()``'s, which is
        then stored."""
        key = self.trace_key(profile, num_instructions, seed)
        return self._load_or_build("trace", key, _decode_trace, _encode_trace,
                                   build)

    def schedule(
        self,
        profile: BenchmarkProfile,
        num_instructions: int,
        seed: int,
        core: CoreType,
        hierarchy: HierarchyConfig,
        build: Callable[[], List[float]],
    ) -> Tuple[List[float], bool]:
        """(schedule, loaded): the stored retire schedule, else
        ``build()``'s, which is then stored."""
        key = self.schedule_key(profile, num_instructions, seed, core,
                                hierarchy)
        return self._load_or_build("schedule", key, _decode_schedule,
                                   _encode_schedule, build)

    def warm(self, key: Optional[str], build: Callable[[], WarmState]
             ) -> Tuple[WarmState, bool]:
        """(state, loaded): the warm state stored under ``key`` (a
        :meth:`warm_key`), else ``build()``'s, which is then stored."""
        return self._load_or_build("warm", key, _decode_warm, _encode_warm,
                                   build)

    def _load_or_build(self, kind, key, decode, encode, build):
        """(value, loaded); a blob that does not decode is deleted, and the
        built value replaces it."""
        if key is not None:
            blob = self._read(key, kind)
            if blob is not None:
                value = decode(*blob)
                if value is not None:
                    return value, True
                self._heal(key)
        value = build()
        if key is not None:
            body, fields = encode(value)
            self._write(key, kind, body, **fields)
        return value, False

    # ----------------------------------------------------------------- keys

    def trace_key(
        self, profile: BenchmarkProfile, num_instructions: int, seed: int
    ) -> Optional[str]:
        """The trace's store key; None while the store is off."""
        return self._key("trace", profile, num_instructions, seed)

    def schedule_key(
        self,
        profile: BenchmarkProfile,
        num_instructions: int,
        seed: int,
        core: CoreType,
        hierarchy: HierarchyConfig,
    ) -> Optional[str]:
        """The schedule's store key; None while the store is off."""
        return self._key(
            "schedule", profile, num_instructions, seed,
            core=core.value, hierarchy=field_dict(hierarchy),
        )

    def warm_key(
        self,
        profile: BenchmarkProfile,
        num_instructions: int,
        seed: int,
        monitor: str,
        fade: Optional[FadeConfig],
        warmup: int,
    ) -> Optional[str]:
        """The key of the state ``warmup`` items of the trace leave in
        ``monitor`` and its FADE (``fade`` None: unaccelerated); None
        while the store is off."""
        return self._key(
            "warm", profile, num_instructions, seed, monitor=monitor,
            fade=None if fade is None else field_dict(fade), warmup=warmup,
        )

    def _key(self, kind: str, profile: BenchmarkProfile,
             num_instructions: int, seed: int, **extra: object
             ) -> Optional[str]:
        if not self.enabled:
            return None
        fingerprint = source_fingerprint()
        if fingerprint is None:
            # Sources that cannot vouch for the loaded code key nothing.
            self.enabled = False
            return None
        members = {
            name: _canonical(value) for name, value in {
                "kind": kind,
                "trace_schema": TRACE_SCHEMA_VERSION,
                "num_instructions": num_instructions,
                "seed": seed,
                "source": fingerprint,
                **extra,
            }.items()
        }
        members["profile"] = _profile_json(profile, id(profile))
        # Exactly the text json.dumps(..., sort_keys=True) gives for the
        # whole payload, with the profile's part taken from the memo.
        canonical = "{%s}" % ", ".join(
            f"{json.dumps(name)}: {members[name]}" for name in sorted(members)
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    def blob_dir(self) -> BlobDir:
        """The directory holding this process's blobs (store on)."""
        fingerprint = source_fingerprint()
        assert self.path is not None and fingerprint is not None
        return BlobDir(self.path / fingerprint[:_FINGERPRINT_DIGITS], ".blob")

    # ----------------------------------------------------------------- blobs

    def _read(self, key: str, kind: str) -> Optional[tuple]:
        """(header, decompressed body) of a valid blob, else None (a miss;
        an invalid blob is deleted)."""
        if not self.enabled:
            return None
        try:
            data = self.blob_dir().read(key)
        except OSError:
            self.enabled = False
            return None
        if data is None:
            return None
        try:
            newline = data.index(b"\n")
            header = json.loads(data[:newline])
            compressed = data[newline + 1 :]
            if (
                header.get("format") != BLOB_FORMAT
                or header.get("kind") != kind
                or header.get("key") != key
                or header.get("trace_schema") != TRACE_SCHEMA_VERSION
                or not isinstance(header.get("count"), int)
                or header.get("sha256")
                != hashlib.sha256(compressed).hexdigest()
            ):
                self._heal(key)
                return None
            return header, zlib.decompress(compressed)
        except (ValueError, TypeError, AttributeError, zlib.error):
            self._heal(key)
            return None

    def _heal(self, key: str) -> None:
        """Drop an invalid blob; the caller regenerates (and rewrites) it."""
        self.healed += 1
        self.blob_dir().delete(key)

    def _write(self, key: str, kind: str, body: bytes, **fields) -> None:
        if not self.enabled:
            return
        compressed = zlib.compress(body, 1)
        header = json.dumps({
            "format": BLOB_FORMAT,
            "kind": kind,
            "key": key,
            "trace_schema": TRACE_SCHEMA_VERSION,
            "sha256": hashlib.sha256(compressed).hexdigest(),
            **fields,
        }, sort_keys=True).encode()
        try:
            if not self._claimed:
                self._claim()
            self.blob_dir().write(key, header + b"\n" + compressed)
        except OSError:
            self.enabled = False

    def _claim(self) -> None:
        """Mark this fingerprint's directory as the most recently written
        (its mtime) and delete all but the :data:`KEEP_FINGERPRINTS` most
        recently written fingerprint directories."""
        own = self.blob_dir().root
        own.mkdir(parents=True, exist_ok=True)
        os.utime(own)

        def written(directory: pathlib.Path) -> float:
            try:
                return directory.stat().st_mtime
            except OSError:  # Removed by a racing claim.
                return float("-inf")

        others = sorted(
            (d for d in self.path.glob(_FINGERPRINT_GLOB) if d != own),
            key=written, reverse=True,
        )
        for stale in others[KEEP_FINGERPRINTS - 1 :]:
            shutil.rmtree(stale, ignore_errors=True)
        self._claimed = True

    # ------------------------------------------------------------ management

    def _blob_dirs(self) -> List[BlobDir]:
        """Every fingerprint's blobs, this process's and others'."""
        if self.path is None:
            return []
        return [BlobDir(directory, ".blob")
                for directory in self.path.glob(_FINGERPRINT_GLOB)]

    def stats(self) -> Dict[str, object]:
        """Location, whether the store is on, blob count and bytes."""
        sizes = [size for blobs in self._blob_dirs()
                 for _, size in blobs.entries()]
        return {
            "path": str(self.path) if self.path is not None else None,
            "enabled": self.enabled,
            "blobs": len(sizes),
            "bytes": sum(sizes),
        }

    def clear(self) -> int:
        """Delete every blob; returns how many were removed."""
        removed = 0
        for blobs in self._blob_dirs():
            removed += blobs.clear()
            try:
                blobs.root.rmdir()
            except OSError:
                pass
        self._claimed = False
        return removed

    def __repr__(self) -> str:
        return f"TraceStore({str(self.path) if self.path else None!r})"
