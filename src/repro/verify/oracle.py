"""The differential oracle: all execution configurations must agree.

For one :class:`~repro.api.RunSpec` the oracle runs the cross-product

    {event, naive engine} x {serial, parallel execution}
    x {store-cold, store-warm}

and diffs the *serialized* :class:`~repro.system.results.RunResult`\\ s
byte-for-byte (canonical sorted-key JSON, SHA-256 digests).  The simulator's
contract is that every leg is bit-identical; any disagreement is a bug in
one of the optimised paths (cycle skipping, the filter memo, pool
dispatch, or store round-tripping).  The engine alone picks the filter
path: the event engine memoizes filter decisions, the naive reference
walks every one inline, so the engine axis covers the filter memo too.

On a mismatch the oracle *shrinks*: it re-runs the two disagreeing legs at
geometrically smaller instruction counts and reports the smallest spec that
still disagrees, so the repro attached to a failing fuzz campaign is
minutes — not hours — of single-stepping away from a root cause.

Seven legs execute per spec, each defined once in :data:`SERIAL_LEGS` or
:data:`PARALLEL_LEGS` (the sweep and the shrinker both read them): the two
serial-cold engines, two store round-trips of the reference result (one per
:class:`~repro.api.ResultStore` backend — sharded JSON and SQLite — so
the store axis covers both persistence formats), one event run from a
warm state written to and loaded from a throwaway
:class:`~repro.api.trace_store.TraceStore` (whatever the spec's scope:
fuzzed inline profiles included), and — in thorough mode — the two
parallel-cold engines, sharing one process pool.  The remaining corners of
the product (warm round-trips of the non-reference legs) are implied: every
leg must equal the reference byte-for-byte, and the store round-trip is a
pure serialization identity, so one warm leg witnesses it for all.

Every run also checks the simulator's conservation laws when it
finalizes; a leg that breaks one raises :class:`SimulationError`, and the
oracle records the error as that leg's digest, so it disagrees with the
legs that finished and shrinks like any other mismatch.  When every leg
raises the same error there is nothing to diff, so :meth:`check` raises
it: a break in code all legs share fails as loudly as a disagreement.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from typing import Callable, Dict, Optional, Tuple, Union

from repro.api.cache import RunnerCache
from repro.api.runner import ParallelRunner, build_simulation, execute_spec
from repro.api.spec import RunSpec
from repro.api.store import ResultStore
from repro.api.trace_store import TraceStore
from repro.common.errors import SimulationError
from repro.faults.injector import suppress_faults
from repro.system.results import RunResult

#: The reference leg every other leg is diffed against.
REFERENCE_LEG = "event/serial/cold"

#: The leg that runs from a stored warm state (write, then load).
WARM_STATE_LEG = "event/serial/warm-state"

#: Below this instruction count the shrinker stops descending: tiny traces
#: are already single-steppable.
_SHRINK_FLOOR = 16

#: Probe budget per shrink: each probe re-simulates the two disagreeing
#: legs, so shrinking stays a bounded fraction of campaign time.
_SHRINK_PROBES = 12


def serialize_result(result: RunResult) -> str:
    """The canonical byte form the oracle compares: sorted-key compact
    JSON of the full result dict (the exact content the result store and
    ``ResultSet.save`` persist)."""
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


def result_digest(result: RunResult) -> str:
    return hashlib.sha256(serialize_result(result).encode()).hexdigest()


def _error_digest(error: SimulationError) -> str:
    """The digest of a leg that raised instead of finishing."""
    return f"<{type(error).__name__}: {error}>"


def first_divergence(a: RunResult, b: RunResult) -> str:
    """Dotted path of the first differing field between two results
    (deterministic: sorted key order), or '' when they are equal."""

    def walk(x, y, path: str) -> Optional[str]:
        if type(x) is not type(y):
            return path or "<root>"
        if isinstance(x, dict):
            for key in sorted(set(x) | set(y)):
                if key not in x or key not in y:
                    return f"{path}.{key}" if path else str(key)
                found = walk(x[key], y[key], f"{path}.{key}" if path else str(key))
                if found:
                    return found
            return None
        if isinstance(x, list):
            if len(x) != len(y):
                return f"{path}.len"
            for index, (xi, yi) in enumerate(zip(x, y)):
                found = walk(xi, yi, f"{path}[{index}]")
                if found:
                    return found
            return None
        return None if x == y else (path or "<root>")

    return walk(a.to_dict(), b.to_dict(), "") or ""


#: What a leg computes: its result, or a marker digest (``"<...>"``) when
#: it has no result to compare field by field.
Outcome = Union[RunResult, str]

#: The engines the parallel legs run, through one pool.
_ENGINES = ("event", "naive")


class _Case:
    """The work the legs of one spec share.

    Each engine's serial run happens once (the store legs reuse the
    reference's), and one process pool runs both engines' parallel legs.
    A run that raised raises again for every leg that reads it."""

    def __init__(self, spec: RunSpec, cache: RunnerCache, jobs: int) -> None:
        self.spec = spec
        self.cache = cache
        self.jobs = jobs
        self._serial: Dict[str, Union[RunResult, SimulationError]] = {}
        self._parallel: Optional[Dict[str, RunResult]] = None

    def on(self, engine: str) -> RunSpec:
        """The case's spec, run by ``engine``."""
        return self.spec.replace(
            config=dataclasses.replace(self.spec.config, engine=engine)
        )

    def serial(self, engine: str) -> RunResult:
        if engine not in self._serial:
            try:
                self._serial[engine] = execute_spec(self.on(engine), self.cache)
            except SimulationError as error:
                self._serial[engine] = error
        outcome = self._serial[engine]
        if isinstance(outcome, SimulationError):
            raise outcome
        return outcome

    def parallel(self, engine: str) -> RunResult:
        runner = ParallelRunner(jobs=self.jobs, cache=self.cache)
        if self._parallel is None:
            try:
                outcome = runner.run([self.on(name) for name in _ENGINES])
                self._parallel = dict(zip(_ENGINES, outcome.results))
            except SimulationError:
                self._parallel = {}  # One engine raised: run each alone.
        if engine not in self._parallel:
            # Two copies, so the pool (not this process) runs the spec.
            return runner.run([self.on(engine)] * 2).results[0]
        return self._parallel[engine]


def _store_round_trip(case: _Case, sqlite: bool) -> Outcome:
    """The reference result after a put and get through a throwaway
    result store — never the user's persistent cache (see
    ``ResultStore(readonly=...)``): a warm hit must be byte-identical to
    the cold computation that produced it."""
    cold = case.serial("event")
    spec = case.on("event")
    with tempfile.TemporaryDirectory(prefix="repro-oracle-") as tmp:
        store = ResultStore(os.path.join(tmp, "store.db") if sqlite else tmp)
        store.put(spec, cold)
        warm = store.get(spec)
        store.close()
    return "<store-miss-after-put>" if warm is None else warm


def _stored_warm_state(case: _Case) -> Outcome:
    """The event engine's result from its warm state after a round trip
    through a throwaway trace store: the first build warms and writes it,
    the second loads it.  A store that cannot be used (sources edited
    since load) leaves a plain run."""
    spec = case.on("event")
    with tempfile.TemporaryDirectory(prefix="repro-oracle-") as tmp:
        store = TraceStore(tmp)
        written = build_simulation(spec, case.cache, store)
        if (store.enabled and written.warmup_items
                and store.stats()["blobs"] != 1):
            return "<warm-state-not-written>"
        simulation = build_simulation(spec, case.cache, store)
        if store.healed:
            return "<warm-state-not-loaded>"
        return simulation.run()


Leg = Callable[[_Case], Outcome]

#: The legs every check runs, in sweep order.
SERIAL_LEGS: Dict[str, Leg] = {
    REFERENCE_LEG: lambda case: case.serial("event"),
    "naive/serial/cold": lambda case: case.serial("naive"),
    "event/serial/warm": lambda case: _store_round_trip(case, sqlite=False),
    "event/serial/warm-sqlite": lambda case: _store_round_trip(case, sqlite=True),
    WARM_STATE_LEG: _stored_warm_state,
}

#: The process-pool legs a thorough check adds.
PARALLEL_LEGS: Dict[str, Leg] = {
    "event/parallel/cold": lambda case: case.parallel("event"),
    "naive/parallel/cold": lambda case: case.parallel("naive"),
}


def _run_leg(leg: Leg, case: _Case) -> Tuple[str, Optional[RunResult]]:
    """``leg``'s digest on ``case`` and its result (None for a marker or a
    raised :class:`SimulationError`, whose :func:`_error_digest` is the
    digest)."""
    try:
        outcome = leg(case)
    except SimulationError as error:
        return _error_digest(error), None
    if isinstance(outcome, str):
        return outcome, None
    return result_digest(outcome), outcome


@dataclasses.dataclass
class Mismatch:
    """One confirmed differential disagreement, shrunk to a minimal spec."""

    spec: RunSpec
    leg_a: str
    leg_b: str
    digest_a: str
    digest_b: str
    divergence: str  # Dotted path of the first differing result field.
    shrunk_spec: RunSpec
    shrink_probes: int

    @property
    def shrunk_instructions(self) -> int:
        return self.shrunk_spec.settings.num_instructions

    def describe(self) -> str:
        return (
            f"{self.spec.benchmark}/{self.spec.monitor}: "
            f"{self.leg_a} != {self.leg_b} at '{self.divergence}' "
            f"(shrunk to n={self.shrunk_instructions} from "
            f"n={self.spec.settings.num_instructions})"
        )

    def to_dict(self) -> Dict[str, object]:
        """The repro artifact ``repro fuzz --report`` writes on failure."""
        return {
            "spec": self.spec.to_dict(),
            "shrunk_spec": self.shrunk_spec.to_dict(),
            "leg_a": self.leg_a,
            "leg_b": self.leg_b,
            "digest_a": self.digest_a,
            "digest_b": self.digest_b,
            "divergence": self.divergence,
            "shrink_probes": self.shrink_probes,
        }


class DifferentialOracle:
    """Runs the leg cross-product for specs and reports shrunken mismatches.

    One oracle owns one bounded :class:`RunnerCache`, so the legs of a case
    (and consecutive cases sharing a benchmark) reuse traces, schedules and
    plans; every leg still simulates independently.

    ``thorough=False`` drops the parallel (process-pool) legs — the serial
    engine/store product only — for unit tests and tight budgets.
    """

    def __init__(self, thorough: bool = True, jobs: int = 2) -> None:
        self.thorough = thorough
        self.jobs = max(2, jobs)
        self._cache = RunnerCache()

    # ---------------------------------------------------------------- legs

    def _legs(self) -> Dict[str, Leg]:
        """Every leg a check runs: leg name -> its definition."""
        if self.thorough:
            return {**SERIAL_LEGS, **PARALLEL_LEGS}
        return SERIAL_LEGS

    def _leg_runner(self, leg: str) -> Callable[[RunSpec], str]:
        """A digest function for one leg name (used by the shrinker): the
        leg alone, on a case of its own."""
        definition = self._legs()[leg]
        return lambda spec: _run_leg(
            definition, _Case(spec, self._cache, self.jobs)
        )[0]

    def _all_legs(
        self, spec: RunSpec
    ) -> Tuple[Dict[str, str], Dict[str, RunResult]]:
        """Digest every leg for ``spec``, on one shared case.

        Returns (leg name -> digest, leg name -> result) — results are kept
        for every leg that has one, to print the divergence path without
        re-simulating.
        """
        case = _Case(spec, self._cache, self.jobs)
        digests: Dict[str, str] = {}
        results: Dict[str, RunResult] = {}
        for name, leg in self._legs().items():
            digests[name], result = _run_leg(leg, case)
            if result is not None:
                results[name] = result
        return digests, results

    # -------------------------------------------------------------- shrink

    def _shrink(
        self,
        spec: RunSpec,
        run_a: Callable[[RunSpec], str],
        run_b: Callable[[RunSpec], str],
    ) -> Tuple[RunSpec, int]:
        """The smallest instruction count (geometric descent, bounded
        probes) at which the two legs still disagree."""

        def with_n(n: int) -> RunSpec:
            return spec.replace(
                settings=dataclasses.replace(
                    spec.settings, num_instructions=n
                )
            )

        def disagrees(candidate: RunSpec) -> bool:
            return run_a(candidate) != run_b(candidate)

        best = spec
        n = spec.settings.num_instructions
        probes = 0
        while probes < _SHRINK_PROBES:
            candidate_n = n // 2
            if candidate_n < _SHRINK_FLOOR:
                break
            probes += 1
            candidate = with_n(candidate_n)
            if disagrees(candidate):
                best, n = candidate, candidate_n
                continue
            # Halving lost the repro: try a gentler 3/4 cut once, then stop.
            candidate_n = (n * 3) // 4
            if candidate_n >= n or candidate_n < _SHRINK_FLOOR:
                break
            probes += 1
            candidate = with_n(candidate_n)
            if disagrees(candidate):
                best, n = candidate, candidate_n
                continue
            break
        return best, probes

    # --------------------------------------------------------------- check

    def check(self, spec: RunSpec) -> Optional[Mismatch]:
        """Run the cross-product; None when every leg agrees, otherwise the
        shrunken mismatch against the reference leg.  Raises
        :class:`SimulationError` when every leg raised the same error.

        Every leg (and the shrinker's probes) runs under
        :func:`~repro.faults.injector.suppress_faults`: when a chaos plan
        is installed, the oracle's reference computations must stay
        fault-free — otherwise a mismatch could be an artefact of an
        injected fault in a *leg* rather than a bug under test."""
        with suppress_faults():
            digests, results = self._all_legs(spec)
            reference = digests[REFERENCE_LEG]
            if REFERENCE_LEG not in results and set(digests.values()) == {
                reference
            }:
                raise SimulationError(f"every oracle leg raised {reference}")
            for leg, digest in digests.items():
                if digest == reference:
                    continue
                if leg in results and REFERENCE_LEG in results:
                    divergence = first_divergence(
                        results[REFERENCE_LEG], results[leg]
                    )
                else:
                    # A leg without a result (it raised, or its store
                    # missed): its marker is where the two legs part.
                    divergence = digest if digest.startswith("<") else reference
                shrunk, probes = self._shrink(
                    spec,
                    self._leg_runner(REFERENCE_LEG),
                    self._leg_runner(leg),
                )
                return Mismatch(
                    spec=spec,
                    leg_a=REFERENCE_LEG,
                    leg_b=leg,
                    digest_a=reference,
                    digest_b=digest,
                    divergence=divergence,
                    shrunk_spec=shrunk,
                    shrink_probes=probes,
                )
            return None
