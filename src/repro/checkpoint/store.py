"""Persistent content-addressed checkpoint store.

A :class:`CheckpointStore` maps a :class:`~repro.api.RunSpec`'s content key
(the *same* :func:`~repro.api.store.content_key` the result store uses, so
a checkpoint can never outlive the inputs it was computed from) to its
newest mid-run checkpoint blob.  It reuses the result store's two on-disk
backends verbatim — sharded atomic-write JSON directories and WAL-mode
SQLite — selected by the same path/URL grammar, so operators point both
stores at whatever storage they already trust.

Lifecycle (one live checkpoint per key):

* :meth:`put` replaces the key's blob — writing checkpoint *N+1* is what
  garbage-collects checkpoint *N*, so the newest valid checkpoint is never
  at risk from its own supersession;
* :meth:`get` fully validates (schema, key, content hash, unpickle) and
  treats anything invalid as a miss, deleting it so the next write starts
  clean — a torn checkpoint degrades to a cold recompute, never an error;
* :meth:`complete` discards the blob once the spec's result exists — the
  checkpoint is scaffolding, not an artifact;
* :meth:`gc` sweeps leftovers: invalid blobs and blobs whose spec already
  has a result in a given :class:`~repro.api.store.ResultStore`.  It never
  deletes a valid checkpoint for an unfinished spec.

Every transition is journalled (:mod:`repro.checkpoint.journal`), which is
how multi-process counters and the chaos harness's recompute-fraction
assertions work.
"""

from __future__ import annotations

import os
import sqlite3
from typing import Dict, List, Optional, Union

from repro.faults.injector import checkpoint_write_fault
from repro.faults.retry import STORE_WRITE_POLICY

from repro.api.store import (
    ResultStore,
    _JsonDirBackend,
    _parse_store_path,
    _SqliteBackend,
    content_key,
)
from repro.checkpoint.journal import CheckpointJournal, journal_path_for
from repro.checkpoint.state import (
    HEADER_READ_BYTES,
    decode_checkpoint,
    decode_meta,
    encode_checkpoint,
)

class CheckpointStore:
    """On-disk RunSpec-content → newest-checkpoint store."""

    def __init__(
        self, path: Union[str, os.PathLike], readonly: bool = False
    ) -> None:
        backend_name, fs_path = _parse_store_path(path)
        self.path = fs_path
        self.readonly = readonly
        if backend_name == "sqlite":
            self._backend = _SqliteBackend(fs_path, readonly)
        else:
            self._backend = _JsonDirBackend(fs_path, readonly)
        self.journal = CheckpointJournal(
            journal_path_for(fs_path, backend_name)
        )
        self.write_retries = 0

    @property
    def backend(self) -> str:
        return self._backend.name

    def key(self, spec) -> str:
        """Identical to the result store's key for the same spec."""
        return content_key(spec)

    # -------------------------------------------------------------- access

    def put(self, spec, sim_state: dict) -> None:
        """Persist the spec's newest checkpoint (replacing any older one).

        Transient write failures retry like result writes; a torn write
        (crash or injected ``checkpoint_torn`` fault) is silently tolerated
        — the blob reads as invalid later and recomputation covers it."""
        if self.readonly:
            return
        key = content_key(spec)
        payload = encode_checkpoint(key, sim_state)

        def _write_once() -> None:
            self._backend.write(key, checkpoint_write_fault(payload))

        def _count_retry(attempt: int, error: BaseException) -> None:
            self.write_retries += 1

        STORE_WRITE_POLICY.call(
            _write_once,
            retry_on=(OSError, sqlite3.OperationalError),
            on_retry=_count_retry,
        )
        self.journal.record(
            "written",
            key,
            app_index=sim_state.get("app_index"),
            cycle=sim_state.get("now"),
        )

    def get(self, spec) -> Optional[dict]:
        """The spec's validated checkpoint record — ``{"state", "app_index",
        "cycle", "engine", "state_hash"}`` — or None.  Invalid blobs are
        deleted (journalled ``discarded``) so corruption never persists."""
        key = content_key(spec)
        payload = self._backend.read(key)
        if payload is None:
            return None
        record = decode_checkpoint(payload, key=key)
        if record is None:
            if not self.readonly:
                # Compare-and-delete: a live worker's put may have replaced
                # the invalid payload since we read it — never delete a
                # blob we did not judge.
                if self._backend.delete_if(key, payload):
                    self.journal.record("discarded", key, reason="invalid")
            return None
        return record

    def note_restored(
        self, spec, record: dict, recompute_fraction: Optional[float] = None
    ) -> None:
        """Journal a successful restore (the runner calls this only after
        ``MonitoringSimulation.restore`` accepted the state)."""
        self.journal.record(
            "restored",
            content_key(spec),
            app_index=record.get("app_index"),
            resumed_from_cycle=record.get("cycle"),
            recompute_fraction=recompute_fraction,
        )

    def discard(self, spec, reason: str = "discarded") -> None:
        """Drop the spec's checkpoint (e.g. a restore that failed late)."""
        if self.readonly:
            return
        key = content_key(spec)
        self._backend.delete(key)
        self.journal.record("discarded", key, reason=reason)

    def complete(self, spec) -> None:
        """The spec finished and its result is persisted elsewhere: the
        checkpoint is superseded scaffolding — delete it."""
        if self.readonly:
            return
        key = content_key(spec)
        self._backend.delete(key)
        self.journal.record("completed", key)

    # ---------------------------------------------------------- management

    def entries(self) -> List[Dict[str, object]]:
        """Envelope metadata of every stored checkpoint (``repro checkpoint
        ls``): key, engine, app_index, cycle, bytes, validity.

        Header-only: each entry costs one :data:`HEADER_READ_BYTES` read,
        never the multi-MB blob, so listing a large store stays cheap.
        ``valid`` therefore means "the header decodes under the current
        schema and names this key" — a blob whose *body* is torn still
        lists as valid and degrades to a cold recompute at restore time
        (``get`` fully validates; so does ``gc``)."""
        out: List[Dict[str, object]] = []
        for key, size in sorted(self._backend.entry_sizes()):
            prefix = self._backend.read_prefix(key, HEADER_READ_BYTES)
            meta = decode_meta(prefix) if prefix is not None else None
            valid = meta is not None and meta.get("key") == key
            out.append(
                {
                    "key": key,
                    "bytes": size,
                    "valid": valid,
                    "engine": meta.get("engine") if meta else None,
                    "app_index": meta.get("app_index") if meta else None,
                    "cycle": meta.get("cycle") if meta else None,
                }
            )
        return out

    def gc(self, result_store: Optional[ResultStore] = None) -> Dict[str, int]:
        """Sweep invalid and superseded checkpoints.

        ``result_store`` (sharing this store's keying) marks a checkpoint
        superseded when its spec already has a persisted result.  Valid
        checkpoints of unfinished specs are always kept — in particular the
        newest (only) checkpoint of an in-progress spec.

        Every delete is a *compare-and-delete* against the exact payload gc
        judged: a live worker's ``put`` landing between gc's read and its
        delete wins the race and the fresh blob survives — without the
        guard, gc could sweep the newest valid checkpoint of an unfinished
        spec through that window."""
        removed_invalid = 0
        removed_completed = 0
        kept = 0
        if self.readonly:
            return {"removed_invalid": 0, "removed_completed": 0, "kept": 0}
        for key, _size in list(self._backend.entry_sizes()):
            payload = self._backend.read(key)
            if payload is None:
                continue
            if decode_checkpoint(payload, key=key) is None:
                if self._backend.delete_if(key, payload):
                    self.journal.record("discarded", key, reason="gc-invalid")
                    removed_invalid += 1
                else:
                    kept += 1  # A racing writer replaced it: spare it.
                continue
            if (
                result_store is not None
                and result_store._backend.read(key) is not None
            ):
                if self._backend.delete_if(key, payload):
                    self.journal.record(
                        "discarded", key, reason="gc-completed"
                    )
                    removed_completed += 1
                else:
                    kept += 1
                continue
            kept += 1
        return {
            "removed_invalid": removed_invalid,
            "removed_completed": removed_completed,
            "kept": kept,
        }

    def stats(self) -> Dict[str, object]:
        """Entry totals plus journal-aggregated lifecycle counters (the
        counters see every process that shared this store)."""
        entries = 0
        total_bytes = 0
        for _key, size in self._backend.entry_sizes():
            entries += 1
            total_bytes += size
        payload: Dict[str, object] = {
            "path": str(self.path),
            "backend": self.backend,
            "entries": entries,
            "bytes": total_bytes,
            "write_retries": self.write_retries,
        }
        payload.update(self.journal.counters())
        return payload

    def clear(self) -> int:
        if self.readonly:
            return 0
        removed = self._backend.clear()
        self.journal.clear()
        return removed

    def close(self) -> None:
        self._backend.close()

    def __len__(self) -> int:
        return sum(1 for _ in self._backend.entry_sizes())

    def __repr__(self) -> str:
        return f"CheckpointStore({str(self.path)!r}, backend={self.backend!r})"
