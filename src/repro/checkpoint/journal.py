"""Append-only checkpoint journal.

One JSONL file per checkpoint store records every lifecycle transition —
``written``, ``restored``, ``discarded``, ``completed`` — across *all*
processes sharing the store (pool workers append through ``O_APPEND``, and
records are far below the atomic-append pipe-buffer bound, so concurrent
writers never interleave bytes).

The journal is how recovery work is *witnessed*: the chaos harness asserts
a killed-then-resumed spec journalled a ``restored`` record with a nonzero
resume point and a recompute fraction below its bound, and the runner/
service surface ``checkpoints_written/restored/discarded`` counters by
aggregating it.  Records are diagnostics — a corrupt or missing journal
never affects simulation results.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Dict, List, Union

_JOURNAL_SUFFIX = ".journal.jsonl"


class CheckpointJournal:
    """Shared append-only record of checkpoint lifecycle events."""

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = pathlib.Path(path)

    def record(self, action: str, key: str, **fields) -> None:
        """Append one record; best effort (an unwritable journal is noted
        nowhere — journalling must never fail a run)."""
        entry = {"action": action, "key": key}
        entry.update(fields)
        line = json.dumps(entry, sort_keys=True) + "\n"
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(
                os.fspath(self.path),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
            try:
                os.write(fd, line.encode())
            finally:
                os.close(fd)
        except OSError:
            pass

    def records(self) -> List[Dict[str, object]]:
        """Every parseable record, in append order (torn trailing lines —
        a writer killed mid-append — are skipped)."""
        try:
            text = self.path.read_text()
        except OSError:
            return []
        out: List[Dict[str, object]] = []
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                out.append(record)
        return out

    def counters(self) -> Dict[str, int]:
        """Lifecycle totals, shaped for the ``/stats`` endpoint."""
        counts = {
            "checkpoints_written": 0,
            "checkpoints_restored": 0,
            "checkpoints_discarded": 0,
            "checkpoints_completed": 0,
        }
        for record in self.records():
            name = f"checkpoints_{record.get('action')}"
            if name in counts:
                counts[name] += 1
        return counts

    def clear(self) -> None:
        try:
            self.path.unlink()
        except OSError:
            pass


def journal_path_for(store_path: pathlib.Path, backend: str) -> pathlib.Path:
    """Where a store's journal lives: inside a JSON store directory (its
    ``??/*.json`` entry glob never matches it), or as a sibling file of a
    SQLite database."""
    if backend == "json":
        return store_path / f"journal{_JOURNAL_SUFFIX}"
    return pathlib.Path(f"{store_path}{_JOURNAL_SUFFIX}")
