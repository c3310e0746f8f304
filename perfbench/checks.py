"""The correctness gate: every result against the naive reference stepper.

A result is correct when the canonical JSON of its ``to_dict()`` hashes to
the digest of the naive engine's result for the same spec.  References are
computed untimed, after the measured window, and persisted per source tree
under ``.bench_cache/`` so later runs (and other seeds drawing from the
same spec pools) reuse them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.api import RunnerCache, RunSpec, content_key, execute_spec

CACHE_DIR = pathlib.Path(".bench_cache")


def result_digest(result_dict: Mapping[str, object]) -> str:
    """Digest of one result's ``to_dict()`` (or its JSON round trip, as the
    service streams it: floats survive ``json`` exactly)."""
    canonical = json.dumps(result_dict, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def source_digest(root: pathlib.Path = pathlib.Path("src/repro")) -> str:
    """Digest of the program's sources: keys the reference cache, so edited
    code never meets references of the code before the edit."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class References:
    """Naive-stepper reference digests keyed by spec content key."""

    def __init__(self) -> None:
        self.path = path = CACHE_DIR / f"refs-{source_digest()}.json"
        self.digests: Dict[str, str] = {}
        if path.exists():
            try:
                self.digests = json.loads(path.read_text())
            except ValueError:
                self.digests = {}
        self._dirty = False

    def ensure(self, specs: Iterable[RunSpec]) -> None:
        """Compute the missing references with the naive engine, grouping
        specs that share a trace so functional work is done once."""
        missing: Dict[str, RunSpec] = {}
        for spec in specs:
            key = content_key(spec)
            if key not in self.digests:
                missing[key] = spec
        cache = RunnerCache()
        for key, spec in sorted(
            missing.items(),
            key=lambda item: (
                item[1].benchmark,
                item[1].settings.seed,
                item[1].settings.num_instructions,
            ),
        ):
            naive = spec.replace(
                config=dataclasses.replace(spec.config, engine="naive")
            )
            self.digests[key] = result_digest(
                execute_spec(naive, cache).to_dict()
            )
            self._dirty = True

    def save(self) -> None:
        if not self._dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.digests, sort_keys=True))
        os.replace(tmp, self.path)
        self._dirty = False


def count_mismatches(
    outcomes: List[Tuple[RunSpec, Optional[Mapping[str, object]]]],
    references: Mapping[str, str],
) -> Tuple[int, List[str]]:
    """How many outcomes fail the gate, with one line per failure.

    An outcome is ``(spec, result_dict)``; ``None`` stands for an operation
    that raised or errored.  Never raises: a missing reference is a
    failure like any other.
    """
    failed = 0
    notes: List[str] = []
    for spec, result in outcomes:
        if result is None:
            failed += 1
            notes.append(f"no result: {spec.describe()}")
            continue
        expected = references.get(content_key(spec))
        if expected is None or result_digest(result) != expected:
            failed += 1
            notes.append(f"differs from naive reference: {spec.describe()}")
    return failed, notes
