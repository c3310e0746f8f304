"""Deterministic fault injection: install a plan, probe at the seams.

The injector is process-global and **free when off**: every hook site calls
:func:`probe`, which is a two-comparison no-op unless a plan is installed
(or ``$REPRO_FAULT_DIR`` points at one).  The environment gate is what
makes fork-pool workers inject faults too — they inherit both the module
global and the variable, and spawn-started workers discover the plan
lazily through the variable alone.

Cross-process exactly-once semantics come from **claim files**: before an
event fires, the firing process creates ``claims/<event_id>`` with
``O_CREAT | O_EXCL`` inside the plan's root directory.  Exactly one
process wins; every later probe of the same event (a retried spec landing
on a fresh worker, a second write at the same ordinal) sees the claim and
stays silent.  The winner then records the firing in ``journal/`` — one
JSON file per fired event, the chaos harness's audit trail.  Without a
root directory (a plan installed purely in-memory, e.g. unit tests) claims
and journal fall back to in-process structures.

:func:`suppress_faults` is the verification escape hatch: the differential
oracle and chaos baselines run inside it, so fault-free reference results
really are fault-free even while a plan is installed (the context also
hides ``$REPRO_FAULT_DIR`` from any pool workers forked inside it).
"""

from __future__ import annotations

import errno
import json
import os
import pathlib
import signal
import sqlite3
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Set

from repro.faults.plan import FaultEvent, FaultPlan

#: Environment variable naming the fault-plan root directory (containing
#: ``plan.json``; ``claims/`` and ``journal/`` are created on demand).
FAULT_DIR_ENV = "REPRO_FAULT_DIR"

_PLAN_FILENAME = "plan.json"
_CLAIMS_DIRNAME = "claims"
_JOURNAL_DIRNAME = "journal"


def spec_fault_key(spec) -> str:
    """The stable identity keyed fault events target (cheap — attribute
    reads only, no hashing): unique across any chaos batch because fuzz
    specs carry unique seeds and grid specs differ in benchmark/monitor."""
    return (
        f"{spec.benchmark}|{spec.monitor}|{spec.settings.seed}"
        f"|{spec.settings.num_instructions}"
    )


class FaultInjector:
    """One installed plan: probe-site matching, claims, and the journal."""

    def __init__(
        self, plan: FaultPlan, root: Optional[pathlib.Path] = None
    ) -> None:
        self.plan = plan
        self.root = pathlib.Path(root) if root is not None else None
        self._lock = threading.Lock()
        self._ordinals: Dict[str, int] = {}
        self._memory_claims: Set[str] = set()
        self._memory_journal: List[Dict[str, object]] = []
        # site -> events, split by trigger style, for O(events-at-site)
        # probing.
        self._keyed: Dict[str, List[FaultEvent]] = {}
        self._ordinal: Dict[str, List[FaultEvent]] = {}
        for event in plan.events:
            bucket = self._keyed if event.key is not None else self._ordinal
            bucket.setdefault(event.site, []).append(event)
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            (self.root / _CLAIMS_DIRNAME).mkdir(exist_ok=True)
            (self.root / _JOURNAL_DIRNAME).mkdir(exist_ok=True)

    # ---------------------------------------------------------- persistence

    @classmethod
    def from_dir(cls, root: os.PathLike) -> "FaultInjector":
        root = pathlib.Path(root)
        plan = FaultPlan.load(root / _PLAN_FILENAME)
        return cls(plan, root=root)

    def save(self) -> None:
        if self.root is not None:
            self.plan.save(self.root / _PLAN_FILENAME)

    # -------------------------------------------------------------- probing

    def maybe_fire(
        self, site: str, key: Optional[str] = None
    ) -> Optional[FaultEvent]:
        """The event firing at this probe, or None.  At most one event
        fires per probe; firing claims the event across processes."""
        with self._lock:
            ordinal = self._ordinals.get(site, 0)
            self._ordinals[site] = ordinal + 1
        if key is not None:
            for event in self._keyed.get(site, ()):
                if event.key == key and self._claim(event):
                    self._journal(event, key=key, ordinal=ordinal)
                    return event
        for event in self._ordinal.get(site, ()):
            if event.at == ordinal and self._claim(event):
                self._journal(event, key=key, ordinal=ordinal)
                return event
        return None

    def _claim(self, event: FaultEvent) -> bool:
        if self.root is None:
            with self._lock:
                if event.event_id in self._memory_claims:
                    return False
                self._memory_claims.add(event.event_id)
                return True
        path = self.root / _CLAIMS_DIRNAME / event.event_id
        try:
            fd = os.open(os.fspath(path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            return False  # Claims dir unwritable: fail silent, never fire.
        with os.fdopen(fd, "w") as handle:
            handle.write(str(os.getpid()))
        return True

    def _journal(
        self, event: FaultEvent, key: Optional[str], ordinal: int
    ) -> None:
        record = {
            "event": event.to_dict(),
            "pid": os.getpid(),
            "probe_key": key,
            "probe_ordinal": ordinal,
        }
        if self.root is None:
            with self._lock:
                self._memory_journal.append(record)
            return
        path = self.root / _JOURNAL_DIRNAME / f"{event.event_id}.json"
        try:
            path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        except OSError:  # pragma: no cover - journalling is best effort
            pass

    # -------------------------------------------------------------- reading

    def fired_events(self) -> List[Dict[str, object]]:
        """Journal records of every event that fired (any process)."""
        if self.root is None:
            with self._lock:
                return list(self._memory_journal)
        records = []
        journal = self.root / _JOURNAL_DIRNAME
        if journal.is_dir():
            for path in sorted(journal.glob("*.json")):
                try:
                    records.append(json.loads(path.read_text()))
                except (OSError, ValueError):
                    continue
        return records

    def summary(self) -> Dict[str, object]:
        fired = self.fired_events()
        by_kind: Dict[str, int] = {}
        for record in fired:
            kind = record["event"]["kind"]
            by_kind[kind] = by_kind.get(kind, 0) + 1
        return {
            "planned": len(self.plan),
            "fired": len(fired),
            "by_kind": dict(sorted(by_kind.items())),
            "pending": sorted(
                event.event_id
                for event in self.plan.events
                if event.event_id
                not in {record["event"]["event_id"] for record in fired}
            ),
        }


# --- process-global installation ---------------------------------------------

_INJECTOR: Optional[FaultInjector] = None
_ENV_CHECKED = False
_SUPPRESS_DEPTH = 0
_STATE_LOCK = threading.Lock()


def install_plan(
    plan: FaultPlan, root: Optional[os.PathLike] = None
) -> FaultInjector:
    """Activate a plan process-wide.  With ``root``, the plan is written to
    ``root/plan.json`` and ``$REPRO_FAULT_DIR`` is exported so worker
    processes forked (or spawned) afterwards inject from the same plan with
    shared exactly-once claims."""
    global _INJECTOR, _ENV_CHECKED
    injector = FaultInjector(plan, root=root)
    injector.save()
    with _STATE_LOCK:
        _INJECTOR = injector
        _ENV_CHECKED = True
        if injector.root is not None:
            os.environ[FAULT_DIR_ENV] = os.fspath(injector.root)
    return injector


def uninstall_plan() -> None:
    """Deactivate fault injection and clear the environment gate."""
    global _INJECTOR, _ENV_CHECKED
    with _STATE_LOCK:
        _INJECTOR = None
        _ENV_CHECKED = False
        os.environ.pop(FAULT_DIR_ENV, None)


def active_injector() -> Optional[FaultInjector]:
    """The installed injector, loading lazily from ``$REPRO_FAULT_DIR``
    the first time a hook probes (how pool workers find the plan)."""
    global _INJECTOR, _ENV_CHECKED
    if _INJECTOR is not None:
        return _INJECTOR
    if _ENV_CHECKED:
        return None
    with _STATE_LOCK:
        if _ENV_CHECKED:
            return _INJECTOR
        _ENV_CHECKED = True
        root = os.environ.get(FAULT_DIR_ENV)
        if root:
            try:
                _INJECTOR = FaultInjector.from_dir(root)
            except (OSError, ValueError, KeyError):
                _INJECTOR = None
        return _INJECTOR


@contextmanager
def suppress_faults():
    """No injections inside this context (re-entrant), and workers forked
    inside it never discover the plan: the environment gate is hidden for
    the duration.  The oracle's legs and chaos baselines run under this."""
    global _SUPPRESS_DEPTH
    with _STATE_LOCK:
        _SUPPRESS_DEPTH += 1
        hidden = os.environ.pop(FAULT_DIR_ENV, None)
    try:
        yield
    finally:
        with _STATE_LOCK:
            _SUPPRESS_DEPTH -= 1
            if hidden is not None and FAULT_DIR_ENV not in os.environ:
                os.environ[FAULT_DIR_ENV] = hidden


def probe(site: str, key: Optional[str] = None) -> Optional[FaultEvent]:
    """The hook-site entry point: the event firing here, or None.

    The off path costs one function call and two global reads — cheap
    enough to sit on the store-write and spec-execution seams permanently
    (the BENCH_service regression gate holds it to that).
    """
    if _INJECTOR is None and _ENV_CHECKED:
        return None
    if _SUPPRESS_DEPTH > 0:
        return None
    injector = active_injector()
    if injector is None or _SUPPRESS_DEPTH > 0:
        return None
    return injector.maybe_fire(site, key)


# --- enactment helpers (called by the hook sites) ----------------------------


def worker_fault(spec) -> None:
    """The :func:`repro.api.runner._worker_run` hook: crash or hang this
    worker if the plan targets ``spec``."""
    event = probe("worker", spec_fault_key(spec))
    if event is None:
        return
    if event.kind == "worker_crash":
        # SIGKILL, not sys.exit: the point is an abrupt death the pool can
        # only observe as a broken worker, exactly like an OOM kill.
        os.kill(os.getpid(), signal.SIGKILL)
    elif event.kind == "worker_hang":
        time.sleep(event.param or 30.0)


def store_write_fault(payload: str) -> str:
    """The :meth:`repro.api.store.ResultStore.put` hook: raise a transient
    write error, or return a (possibly torn) payload to write."""
    event = probe("store.write")
    if event is None:
        return payload
    if event.kind == "store_enospc":
        raise OSError(errno.ENOSPC, "injected fault: no space left on device")
    if event.kind == "sqlite_busy":
        raise sqlite3.OperationalError("injected fault: database is locked")
    if event.kind == "store_torn":
        return payload[: max(1, int(len(payload) * (event.param or 0.33)))]
    return payload
