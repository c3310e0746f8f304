"""The golden conformance corpus (``repro conformance run|bless``).

A committed set of small result digests under ``tests/golden/``: one JSON
file per corpus cell holding the full :class:`~repro.api.RunSpec` (inline
profiles included — the synthetic cells need no registration) and the
SHA-256 digest of the canonical serialized
:class:`~repro.system.results.RunResult`.  ``conformance run`` re-simulates
every cell and fails on any digest drift; it is the cross-PR complement of
the in-PR differential oracle — the oracle proves today's configurations
agree with *each other*, the corpus proves today's code agrees with the
*blessed history*.

Blessing policy (see DESIGN.md §8): digests are keyed by the trace-column
schema version and the result-store schema version.  A version bump is the
one legitimate reason to re-bless wholesale (``repro conformance bless``);
any other drift means a semantics change that must be either fixed or
consciously blessed cell-by-cell in review.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Dict, List, Optional, Tuple

from repro.api.cache import RunnerCache
from repro.common.errors import ConfigurationError
from repro.api.runner import execute_spec
from repro.api.spec import ExperimentSettings, RunSpec
from repro.api.store import STORE_SCHEMA_VERSION
from repro.system.config import SystemConfig, Topology
from repro.cores.base import CoreType
from repro.workload.trace import TRACE_SCHEMA_VERSION
from repro.workload.profile import BenchmarkProfile

from repro.verify.oracle import result_digest


def default_corpus_dir() -> pathlib.Path:
    """``tests/golden/`` relative to the repository root (this file lives
    at ``src/repro/verify/corpus.py``)."""
    return pathlib.Path(__file__).resolve().parents[3] / "tests" / "golden"


#: Settings shared by all corpus cells: small enough that the whole corpus
#: re-simulates in seconds, long enough to exercise queue dynamics.
CORPUS_SETTINGS = ExperimentSettings(num_instructions=3000, seed=13)


def _synthetic_profiles() -> Dict[str, BenchmarkProfile]:
    """Hand-pinned adversarial profiles (inline in their specs, not
    registered): the corpus keeps the fuzzer's degenerate regimes covered
    even when no fuzz campaign runs."""
    return {
        # Every instruction touches memory; the event queue never drains.
        "golden/mem-all": BenchmarkProfile(
            name="golden/mem-all",
            load_weight=0.55, store_weight=0.45, alu1_weight=0.0,
            alu2_weight=0.0, move_weight=0.0, fp_weight=0.0,
            branch_weight=0.0, nop_weight=0.0, dep_prob=0.3,
            hot_set_words=256, locality=0.9,
        ),
        # A four-word hot set: maximal aliasing and memo churn.
        "golden/alias-dense": BenchmarkProfile(
            name="golden/alias-dense",
            hot_set_words=4, locality=1.0, page_locality=1.0,
            stream_fraction=0.0, stack_access_fraction=0.1,
            malloc_rate=0.002, pointer_store_fraction=0.5,
        ),
        # Tiny time slices: INV reprogramming storms under AtomCheck.
        "golden/inv-storm": BenchmarkProfile(
            name="golden/inv-storm",
            parallel=True, num_threads=4, thread_switch_period=120,
            shared_fraction=0.5, shared_words=8, interleave_prob=0.4,
            dep_prob=0.2,
        ),
    }


def conformance_specs() -> List[Tuple[str, RunSpec]]:
    """The corpus cells, in deterministic order: every monitor on its
    natural benchmark, the headline system variants, and the pinned
    synthetic (inline-profile) workloads."""
    cells: List[Tuple[str, RunSpec]] = []

    def add(name: str, spec: RunSpec) -> None:
        cells.append((name, spec))

    for monitor, benchmark in (
        ("addrcheck", "astar"),
        ("memcheck", "gcc"),
        ("taintcheck", "omnetpp"),
        ("memleak", "mcf"),
        ("atomcheck", "water"),
    ):
        add(
            f"{monitor}-{benchmark}-default",
            RunSpec(benchmark, monitor, SystemConfig(), CORPUS_SETTINGS),
        )

    variants: List[Tuple[str, SystemConfig]] = [
        ("naive-engine", SystemConfig(engine="naive")),
        ("blocking", SystemConfig(non_blocking=False)),
        ("no-fade", SystemConfig(fade_enabled=False)),
        ("two-core", SystemConfig(topology=Topology.TWO_CORE)),
        ("inorder", SystemConfig(core_type=CoreType.INORDER)),
        (
            "tiny-queues",
            SystemConfig(
                event_queue_capacity=4,
                unfiltered_queue_capacity=2,
                fsq_capacity=2,
            ),
        ),
        ("infinite-eq", SystemConfig(event_queue_capacity=None)),
    ]
    for name, config in variants:
        add(
            f"memleak-astar-{name}",
            RunSpec("astar", "memleak", config, CORPUS_SETTINGS),
        )

    synthetic_monitors = {
        "golden/mem-all": "addrcheck",
        "golden/alias-dense": "memcheck",
        "golden/inv-storm": "atomcheck",
    }
    for name, profile in _synthetic_profiles().items():
        add(
            name.replace("golden/", "synthetic-"),
            RunSpec(
                benchmark=name,
                monitor=synthetic_monitors[name],
                config=SystemConfig(),
                settings=CORPUS_SETTINGS,
                profile=profile,
            ),
        )
    return cells


@dataclasses.dataclass
class ConformanceFailure:
    name: str
    kind: str  # "schema", "digest", "missing", "corrupt"
    detail: str

    def describe(self) -> str:
        return f"{self.name}: [{self.kind}] {self.detail}"


@dataclasses.dataclass
class ConformanceReport:
    checked: int
    failures: List[ConformanceFailure]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.ok:
            return f"conformance: {self.checked} golden cell(s) OK"
        lines = [
            f"conformance: {len(self.failures)} of {self.checked} golden "
            f"cell(s) FAILED:"
        ]
        lines.extend("  " + failure.describe() for failure in self.failures)
        return "\n".join(lines)


class ConformanceCorpus:
    """Reads, checks and (re-)blesses the golden corpus directory."""

    def __init__(self, path: Optional[pathlib.Path] = None) -> None:
        self.path = pathlib.Path(path) if path is not None else default_corpus_dir()
        self._cache = RunnerCache()

    # ---------------------------------------------------------------- files

    def _entry_path(self, name: str) -> pathlib.Path:
        return self.path / f"{name}.json"

    def entry_files(self) -> List[pathlib.Path]:
        return sorted(self.path.glob("*.json"))

    def _compute_digest(self, spec: RunSpec) -> str:
        return result_digest(execute_spec(spec, self._cache))

    # ---------------------------------------------------------------- bless

    def bless(self) -> List[str]:
        """Simulate every corpus cell and (over)write its golden entry;
        prunes entry files for cells no longer in the corpus.  Returns the
        blessed names."""
        self.path.mkdir(parents=True, exist_ok=True)
        names = []
        for name, spec in conformance_specs():
            entry = {
                "name": name,
                "trace_schema": TRACE_SCHEMA_VERSION,
                "store_schema": STORE_SCHEMA_VERSION,
                "spec": spec.to_dict(),
                "digest": self._compute_digest(spec),
            }
            self._entry_path(name).write_text(
                json.dumps(entry, indent=2, sort_keys=True) + "\n"
            )
            names.append(name)
        current = set(names)
        for stale in self.entry_files():
            if stale.stem in current:
                continue
            # Prune only files that really are golden entries: blessing a
            # directory that happens to hold unrelated JSON (a results
            # export, a fuzz report) must not delete it.
            try:
                content = json.loads(stale.read_text())
            except (OSError, ValueError):
                continue
            if isinstance(content, dict) and "digest" in content and "spec" in content:
                stale.unlink()
        return names

    # ------------------------------------------------------------------ run

    def run(self) -> ConformanceReport:
        """Re-simulate every committed golden entry and diff digests."""
        failures: List[ConformanceFailure] = []
        files = self.entry_files()
        if not files:
            return ConformanceReport(
                checked=0,
                failures=[
                    ConformanceFailure(
                        name=str(self.path),
                        kind="missing",
                        detail="no golden entries; run `repro conformance "
                        "bless` and commit tests/golden/",
                    )
                ],
            )
        for entry_file in files:
            name = entry_file.stem
            try:
                entry = json.loads(entry_file.read_text())
                spec = RunSpec.from_dict(entry["spec"])
                expected = entry["digest"]
            except (
                OSError, ValueError, KeyError, TypeError, ConfigurationError
            ) as error:
                failures.append(
                    ConformanceFailure(name, "corrupt", str(error))
                )
                continue
            if (
                entry.get("trace_schema") != TRACE_SCHEMA_VERSION
                or entry.get("store_schema") != STORE_SCHEMA_VERSION
            ):
                failures.append(
                    ConformanceFailure(
                        name,
                        "schema",
                        f"blessed for trace/store schema "
                        f"{entry.get('trace_schema')}/"
                        f"{entry.get('store_schema')}, code is "
                        f"{TRACE_SCHEMA_VERSION}/{STORE_SCHEMA_VERSION}"
                        f"; re-bless with `repro conformance bless`",
                    )
                )
                continue
            actual = self._compute_digest(spec)
            if actual != expected:
                failures.append(
                    ConformanceFailure(
                        name,
                        "digest",
                        f"result drifted: expected {expected[:16]}…, "
                        f"got {actual[:16]}… — a semantics change; fix it "
                        f"or consciously re-bless this cell",
                    )
                )
        return ConformanceReport(checked=len(files), failures=failures)
