"""The differential oracle: all execution configurations must agree.

For one :class:`~repro.api.RunSpec` the oracle runs the cross-product

    {event, naive engine} x {memoized, forced-inline filtering}
    x {serial, parallel execution} x {store-cold, store-warm}

and diffs the *serialized* :class:`~repro.system.results.RunResult`\\ s
byte-for-byte (canonical sorted-key JSON, SHA-256 digests).  The simulator's
contract is that every leg is bit-identical; any disagreement is a bug in
one of the optimised paths (cycle skipping, the filter memo, pool
dispatch, or store round-tripping).

On a mismatch the oracle *shrinks*: it re-runs the two disagreeing legs at
geometrically smaller instruction counts and reports the smallest spec that
still disagrees, so the repro attached to a failing fuzz campaign is
minutes — not hours — of single-stepping away from a root cause.

Ten legs execute per spec: the four serial-cold engine × filter-mode
combinations over {event, naive} (the naive engine ignores the filter
memo by construction, but runs under both settings anyway, so the
forced-inline environment path cannot rot unnoticed), two store
round-trips of the reference result (one per
:class:`~repro.api.ResultStore` backend — sharded JSON and SQLite — so
the store axis covers both persistence formats), and — in thorough mode —
the four parallel-cold combinations.  The remaining corners of the
product (warm round-trips of the non-reference legs) are implied: every
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
from contextlib import contextmanager
from typing import Callable, Dict, Optional, Tuple

from repro.api.cache import RunnerCache
from repro.api.runner import ParallelRunner, execute_spec
from repro.api.spec import RunSpec
from repro.api.store import ResultStore
from repro.common.errors import SimulationError
from repro.faults.injector import suppress_faults
from repro.system.results import RunResult

#: The reference leg every other leg is diffed against.
REFERENCE_LEG = "event/serial/memo/cold"

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


def _guarded(run: Callable[[RunSpec], str], spec: RunSpec) -> str:
    """``run(spec)``, or the :func:`_error_digest` of the error it raised."""
    try:
        return run(spec)
    except SimulationError as error:
        return _error_digest(error)


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


@contextmanager
def forced_inline(active: bool):
    """Set ``REPRO_FORCE_INLINE_FADE`` for the duration (restoring the
    previous value) — the knob the filter memo keys its enablement on."""
    if not active:
        yield
        return
    previous = os.environ.get("REPRO_FORCE_INLINE_FADE")
    os.environ["REPRO_FORCE_INLINE_FADE"] = "1"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_FORCE_INLINE_FADE", None)
        else:
            os.environ["REPRO_FORCE_INLINE_FADE"] = previous


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
    engine/filter/store product only — for unit tests and tight budgets.
    """

    def __init__(self, thorough: bool = True, jobs: int = 2) -> None:
        self.thorough = thorough
        self.jobs = max(2, jobs)
        self._cache = RunnerCache()

    # ---------------------------------------------------------------- legs

    def _serial_result(
        self, spec: RunSpec, engine: str, inline: bool
    ) -> RunResult:
        leg_spec = spec.replace(
            config=dataclasses.replace(spec.config, engine=engine)
        )
        with forced_inline(inline):
            return execute_spec(leg_spec, self._cache)

    def _leg_runner(self, leg: str) -> Callable[[RunSpec], str]:
        """A digest function for one leg name (used by the shrinker)."""
        engine = leg.split("/", 1)[0]
        inline = "/inline/" in leg
        if leg.endswith("/warm") or leg.endswith("/warm-sqlite"):
            sqlite_leg = leg.endswith("/warm-sqlite")

            def run_warm(spec: RunSpec) -> str:
                leg_spec = spec.replace(
                    config=dataclasses.replace(spec.config, engine=engine)
                )
                cold = self._serial_result(spec, engine, inline)
                with tempfile.TemporaryDirectory(
                    prefix="repro-oracle-"
                ) as tmp:
                    target = (
                        os.path.join(tmp, "store.db") if sqlite_leg else tmp
                    )
                    store = ResultStore(target)
                    store.put(leg_spec, cold)
                    warm = store.get(leg_spec)
                    store.close()
                if warm is None:
                    return "<store-miss-after-put>"
                return result_digest(warm)

            return run_warm
        if "/parallel/" in leg:

            def run_parallel(spec: RunSpec) -> str:
                with forced_inline(inline):
                    runner = ParallelRunner(jobs=self.jobs, cache=self._cache)
                    results = runner.run(
                        [
                            spec.replace(
                                config=dataclasses.replace(
                                    spec.config, engine=engine
                                )
                            )
                        ]
                        * 2
                    )
                return result_digest(results.results[0])

            return run_parallel

        def run_serial(spec: RunSpec) -> str:
            return result_digest(self._serial_result(spec, engine, inline))

        return run_serial

    def _all_legs(
        self, spec: RunSpec
    ) -> Tuple[Dict[str, str], Dict[str, RunResult]]:
        """Digest every leg of the cross-product for ``spec``.

        Returns (leg name -> digest, leg name -> result) — results are kept
        only for serial legs, to print the divergence path without
        re-simulating.
        """
        digests: Dict[str, str] = {}
        results: Dict[str, RunResult] = {}
        serial_specs: Dict[str, RunSpec] = {}
        for engine in ("event", "naive"):
            for mode, inline in (("memo", False), ("inline", True)):
                leg = f"{engine}/serial/{mode}/cold"
                serial_specs[leg] = spec.replace(
                    config=dataclasses.replace(spec.config, engine=engine)
                )
                try:
                    result = self._serial_result(spec, engine, inline)
                except SimulationError as error:
                    digests[leg] = _error_digest(error)
                    continue
                digests[leg] = result_digest(result)
                results[leg] = result

        # Store round-trip: a warm hit must be byte-identical to the cold
        # computation that produced it.  A throwaway temp store — never the
        # user's persistent cache (see ResultStore(readonly=...)).
        with tempfile.TemporaryDirectory(prefix="repro-oracle-") as tmp:
            reference_spec = serial_specs[REFERENCE_LEG]
            for leg, target in (
                ("event/serial/memo/warm", tmp),
                (
                    "event/serial/memo/warm-sqlite",
                    os.path.join(tmp, "store.db"),
                ),
            ):
                if REFERENCE_LEG not in results:
                    break  # The reference raised: nothing to round-trip.
                store = ResultStore(target)
                store.put(reference_spec, results[REFERENCE_LEG])
                warm = store.get(reference_spec)
                store.close()
                if warm is None:
                    digests[leg] = "<store-miss-after-put>"
                else:
                    digests[leg] = result_digest(warm)
                    results[leg] = warm

        if self.thorough:
            # Both engines share one pool per filter mode (two pools per
            # case instead of four): the pool startup dominates these legs.
            for mode, inline in (("memo", False), ("inline", True)):
                pair = [
                    spec.replace(
                        config=dataclasses.replace(spec.config, engine=engine)
                    )
                    for engine in ("event", "naive")
                ]
                try:
                    with forced_inline(inline):
                        runner = ParallelRunner(jobs=self.jobs, cache=self._cache)
                        outcome = runner.run(pair)
                except SimulationError:
                    # One engine raised: run each leg alone to tell which.
                    for engine in ("event", "naive"):
                        leg = f"{engine}/parallel/{mode}/cold"
                        digests[leg] = _guarded(self._leg_runner(leg), spec)
                    continue
                digests[f"event/parallel/{mode}/cold"] = result_digest(
                    outcome.results[0]
                )
                digests[f"naive/parallel/{mode}/cold"] = result_digest(
                    outcome.results[1]
                )
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
            return _guarded(run_a, candidate) != _guarded(run_b, candidate)

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
                divergence = ""
                if leg in results and REFERENCE_LEG in results:
                    divergence = first_divergence(
                        results[REFERENCE_LEG], results[leg]
                    )
                elif digest.startswith("<") or reference.startswith("<"):
                    # A leg without a result (it raised, or the store
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
