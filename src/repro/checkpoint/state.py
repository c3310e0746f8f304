"""Versioned, content-hashed checkpoint blobs.

A checkpoint payload is two lines of text:

1. a compact JSON **header** — everything ``repro checkpoint ls`` needs,
   readable without touching the (multi-MB) state:

   * ``schema`` — :data:`CHECKPOINT_SCHEMA_VERSION`; any layout change
     bumps it and retires every existing checkpoint (they decode as
     invalid and degrade to cold recomputes, never errors);
   * ``key`` — the blob's storage key (the spec's
     :func:`~repro.api.store.content_key`), so a blob can never be
     restored into a different spec's simulation;
   * ``state_hash`` — SHA-256 of the pickled state, verified on full
     decode, so a torn or bit-rotted blob reads as invalid rather than
     restoring garbage;
   * ``app_index`` / ``cycle`` / ``engine`` — cheap progress metadata;

2. the base64 of the pickled
   :meth:`~repro.system.simulator.MonitoringSimulation.snapshot` dict.

The two-line split is what makes :func:`decode_meta` a *header-only*
operation: backends read just the first :data:`HEADER_READ_BYTES` bytes
(``read_prefix``) and listing a store of gigabyte blobs costs kilobytes.
Version-1 payloads (a single JSON envelope embedding the blob) decode as
invalid under this schema and are swept by ``get``/``gc`` — by design, a
schema bump retires the cache rather than migrating it.

Pickle (protocol 4) is the state serialisation because snapshot payloads
contain monitor state (sets, tuple-keyed dicts, enum values) that JSON
cannot represent; base64 keeps checkpoint entries riding the same text
backends as result-store entries.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import pickle
from typing import Optional

#: On-disk checkpoint schema version.  Bump on any change to the envelope
#: *or* to what simulations snapshot (see also
#: :data:`repro.system.simulator.SIM_STATE_VERSION`, which guards the inner
#: state layout independently).
CHECKPOINT_SCHEMA_VERSION = 2

#: How many leading bytes of a payload are guaranteed to contain the whole
#: header line (including its newline).  Headers are a few hundred bytes —
#: bounded key + hash + scalar metadata — so 4 KiB leaves generous slack.
HEADER_READ_BYTES = 4096


def state_hash(blob: bytes) -> str:
    """Content hash of a pickled snapshot (the torn-write detector)."""
    return hashlib.sha256(blob).hexdigest()


def encode_checkpoint(key: str, sim_state: dict) -> str:
    """Serialize one snapshot into its two-line payload."""
    blob = pickle.dumps(sim_state, protocol=4)
    header = json.dumps(
        {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "key": key,
            "engine": sim_state.get("engine"),
            "app_index": sim_state.get("app_index"),
            "cycle": sim_state.get("now"),
            "state_hash": state_hash(blob),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return header + "\n" + base64.b64encode(blob).decode("ascii")


def split_payload(payload: str) -> Optional[tuple]:
    """``(header line, blob text)`` of a payload, or None when the payload
    has no complete header line.  Works on a *prefix* of a payload as long
    as the prefix reaches the first newline (see :data:`HEADER_READ_BYTES`)
    — the blob text is then truncated, which only :func:`decode_checkpoint`
    cares about."""
    if not isinstance(payload, str) or "\n" not in payload:
        return None
    header, _, blob_text = payload.partition("\n")
    return header, blob_text


def decode_meta(payload: str) -> Optional[dict]:
    """The header metadata (no blob read, no unpickling), or None when the
    payload does not start with a valid current-schema header line.  Accepts
    full payloads *and* ``read_prefix`` prefixes that cover the header.  The
    state hash is *not* verified here — use :func:`decode_checkpoint` before
    restoring."""
    parts = split_payload(payload)
    if parts is None:
        return None
    try:
        record = json.loads(parts[0])
        if not isinstance(record, dict):
            return None
        if record.get("schema") != CHECKPOINT_SCHEMA_VERSION:
            return None
        return {
            "key": record["key"],
            "engine": record.get("engine"),
            "app_index": record.get("app_index"),
            "cycle": record.get("cycle"),
            "state_hash": record["state_hash"],
        }
    except (ValueError, TypeError, KeyError):
        return None


def decode_checkpoint(payload: str, key: Optional[str] = None) -> Optional[dict]:
    """Decode and fully validate one checkpoint payload.

    Returns ``{"state", "app_index", "cycle", "engine", "state_hash"}`` or
    None for *anything* invalid — wrong schema, wrong key, torn base64,
    hash mismatch, unpicklable state.  Callers treat None as a cold
    recompute; a checkpoint is an optimisation, never a correctness
    dependency.
    """
    parts = split_payload(payload)
    if parts is None:
        return None
    header_line, blob_text = parts
    try:
        record = json.loads(header_line)
    except (ValueError, TypeError):
        return None
    if not isinstance(record, dict):
        return None
    if record.get("schema") != CHECKPOINT_SCHEMA_VERSION:
        return None
    if key is not None and record.get("key") != key:
        return None
    try:
        blob = base64.b64decode(blob_text.strip(), validate=True)
    except (TypeError, ValueError, binascii.Error):
        return None
    if state_hash(blob) != record.get("state_hash"):
        return None
    try:
        state = pickle.loads(blob)
    except Exception:  # Unpickling torn/hostile data fails arbitrarily.
        return None
    if not isinstance(state, dict):
        return None
    return {
        "state": state,
        "app_index": record.get("app_index"),
        "cycle": record.get("cycle"),
        "engine": record.get("engine"),
        "state_hash": record["state_hash"],
    }
