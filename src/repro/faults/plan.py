"""Seeded, serializable fault schedules.

A :class:`FaultPlan` is to fault injection what a
:class:`~repro.api.RunSpec` is to simulation: a frozen, JSON-round-trippable
description of *exactly* which faults will be injected, derived purely from
a seed.  Two runs with the same plan inject the same faults; the plan file
is the repro artifact when a chaos campaign finds a divergence.

Each :class:`FaultEvent` names

* a **kind** — what goes wrong (see :data:`FAULT_KINDS`);
* a **site** — which injection hook enacts it (the hooks live at the
  existing seams: ``worker`` in :func:`repro.api.runner._worker_run`,
  ``scheduler.submit`` in :class:`repro.service.scheduler.SpecScheduler`,
  ``store.write`` in :meth:`repro.api.store.ResultStore.put`,
  ``server.stream`` in the campaign server's NDJSON writer);
* a **trigger** — either a ``key`` (fire when the hook is probed with that
  key, e.g. a specific spec's identity) or an ordinal ``at`` (fire on the
  N-th probe of the site);
* an optional ``param`` — kind-specific magnitude (hang seconds, slow-down
  seconds, torn-write fraction).

Every event fires **exactly once** per installation, across processes (the
injector claims events through ``O_EXCL`` marker files, so a fork-pool
worker and the server never double-fire one event, and a retried spec does
not re-crash forever).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from random import Random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.common.errors import ConfigurationError

#: kind -> injection site.  Keyed kinds target one spec; ordinal kinds
#: target the N-th probe of their site.
FAULT_KINDS: Dict[str, str] = {
    "worker_crash": "worker",            # SIGKILL the pool worker mid-spec
    "worker_hang": "worker",             # worker sleeps past the deadline
    "pool_broken": "scheduler.submit",   # BrokenProcessPool at submit time
    "scheduler_slow": "scheduler.submit",  # slow future: delay the result
    "store_enospc": "store.write",       # ENOSPC on the entry write
    "store_torn": "store.write",         # truncated (torn) entry payload
    "sqlite_busy": "store.write",        # 'database is locked' on write
    "server_disconnect": "server.stream",  # cut the connection mid-NDJSON
}

#: Kinds whose trigger is a spec key (vs a site-probe ordinal).
KEYED_KINDS = frozenset(
    kind for kind, site in FAULT_KINDS.items()
    if site in ("worker", "scheduler.submit")
)


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: fire ``kind`` at ``site`` when triggered."""

    event_id: str
    kind: str
    site: str
    key: Optional[str] = None  # Keyed trigger: probe key must match.
    at: int = 0                # Ordinal trigger: N-th probe of the site.
    param: float = 0.0         # Kind-specific magnitude.

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; known kinds: "
                f"{', '.join(sorted(FAULT_KINDS))}"
            )
        if self.site != FAULT_KINDS[self.kind]:
            raise ConfigurationError(
                f"fault kind {self.kind!r} belongs to site "
                f"{FAULT_KINDS[self.kind]!r}, not {self.site!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "event_id": self.event_id,
            "kind": self.kind,
            "site": self.site,
            "key": self.key,
            "at": self.at,
            "param": self.param,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultEvent":
        return cls(
            event_id=str(data["event_id"]),
            kind=str(data["kind"]),
            site=str(data["site"]),
            key=(None if data.get("key") is None else str(data["key"])),
            at=int(data.get("at", 0)),
            param=float(data.get("param", 0.0)),
        )


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of fault events (plus its provenance seed)."""

    events: Sequence[FaultEvent]
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        ids = [event.event_id for event in self.events]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(
                "fault plan has duplicate event ids; each event must be "
                "individually claimable"
            )

    def __len__(self) -> int:
        return len(self.events)

    def kinds(self) -> List[str]:
        return sorted({event.kind for event in self.events})

    # ------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultPlan":
        return cls(
            events=tuple(
                FaultEvent.from_dict(entry) for entry in data["events"]
            ),
            seed=(None if data.get("seed") is None else int(data["seed"])),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, pathlib.Path]) -> None:
        pathlib.Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "FaultPlan":
        return cls.from_json(pathlib.Path(path).read_text())


def generate_plan(
    seed: int,
    spec_keys: Sequence[str],
    kinds: Optional[Iterable[str]] = None,
    writes_expected: Optional[int] = None,
    stream_lines_expected: Optional[int] = None,
    hang_seconds: float = 8.0,
    slow_seconds: float = 1.0,
    id_prefix: str = "",
) -> FaultPlan:
    """A deterministic plan covering every requested fault kind.

    ``spec_keys`` are the fault keys of the specs the campaign will submit
    (see :func:`repro.faults.injector.spec_fault_key`); keyed events pick
    victims from them with a seeded RNG.  Ordinal events are placed early
    enough to be guaranteed reachable: store-write ordinals within
    ``writes_expected`` (default: one write per spec), stream ordinals
    within ``stream_lines_expected`` (default: specs + the ``accepted``
    line).  One event per kind — a chaos round covering K kinds injects
    exactly K faults, every one of which must fire.
    """
    if not spec_keys:
        raise ConfigurationError("generate_plan needs at least one spec key")
    requested = list(kinds) if kinds is not None else sorted(FAULT_KINDS)
    unknown = sorted(set(requested) - set(FAULT_KINDS))
    if unknown:
        raise ConfigurationError(
            f"unknown fault kind(s) {', '.join(unknown)}; known kinds: "
            f"{', '.join(sorted(FAULT_KINDS))}"
        )
    rng = Random(seed)
    writes = writes_expected if writes_expected else len(spec_keys)
    lines = (
        stream_lines_expected
        if stream_lines_expected
        else len(spec_keys) + 1
    )
    # Keyed kinds draw distinct victims where possible so one spec does not
    # absorb every fault (a crash and a hang on the same spec both still
    # resolve, but distinct victims exercise more concurrent recovery).
    keyed_requested = [kind for kind in requested if kind in KEYED_KINDS]
    pool = list(spec_keys)
    rng.shuffle(pool)
    victims: Dict[str, str] = {}
    for index, kind in enumerate(keyed_requested):
        victims[kind] = pool[index % len(pool)]
    # Ordinal events sharing a site must not share an ordinal: a site probe
    # fires at most one event, so a collision would leave one event
    # permanently unfired.  Sample distinct ordinals per site.
    store_kinds = [
        kind for kind in requested if FAULT_KINDS[kind] == "store.write"
    ]
    stream_kinds = [
        kind for kind in requested if FAULT_KINDS[kind] == "server.stream"
    ]
    store_ordinals = dict(
        zip(
            store_kinds,
            rng.sample(
                range(max(1, writes)), k=min(len(store_kinds), max(1, writes))
            ),
        )
    )
    # Ordinal 0 is the 'accepted' line; land on a spec line when there is
    # one so the client has partial progress to resume after the cut.
    stream_low = 1 if lines > 1 else 0
    stream_ordinals = dict(
        zip(
            stream_kinds,
            rng.sample(
                range(stream_low, max(stream_low + 1, lines)),
                k=min(len(stream_kinds), max(1, lines - stream_low)),
            ),
        )
    )
    events: List[FaultEvent] = []
    for index, kind in enumerate(requested):
        site = FAULT_KINDS[kind]
        event_id = f"{id_prefix}{index}-{kind}"
        if kind in KEYED_KINDS:
            param = 0.0
            if kind == "worker_hang":
                param = hang_seconds
            elif kind == "scheduler_slow":
                param = slow_seconds
            events.append(
                FaultEvent(
                    event_id=event_id,
                    kind=kind,
                    site=site,
                    key=victims[kind],
                    param=param,
                )
            )
        elif site == "store.write":
            events.append(
                FaultEvent(
                    event_id=event_id,
                    kind=kind,
                    site=site,
                    at=store_ordinals.get(kind, 0),
                    param=0.33 if kind == "store_torn" else 0.0,
                )
            )
        else:  # server.stream
            events.append(
                FaultEvent(
                    event_id=event_id,
                    kind=kind,
                    site=site,
                    at=stream_ordinals.get(kind, stream_low),
                )
            )
    return FaultPlan(events=tuple(events), seed=seed)
