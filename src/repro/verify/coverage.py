"""Coverage map over simulator states (the fuzzer's steering signal).

The timing core has a small set of qualitatively distinct regimes — engine
jumps and steps, FADE stall/drain/wait phases, filter-memo hit/miss
classes, FSQ traffic, queue occupancy bands.  A workload that
never enters a regime cannot falsify it, so the differential fuzzer
(:mod:`repro.verify.fuzz`) steers its sampling toward regimes that have not
been observed yet instead of replaying the same shapes.

Instrumentation is a handful of guarded counters on the hot paths of
:mod:`repro.system.simulator`, :mod:`repro.fade.pipeline` and
:mod:`repro.fade.fsq`:

    from repro.verify.coverage import COVERAGE as _COVERAGE
    ...
    if _COVERAGE.enabled:
        _COVERAGE.hit("fade.suu")

With the map disabled (the default) the cost per site is one attribute read
and a branch; nothing is recorded, and results are bit-identical either way
(counters live outside :class:`~repro.system.results.RunResult`).

This module is deliberately dependency-free so the instrumented modules can
import it without cycles.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

#: The canonical set of tracked states — the denominator of
#: :func:`coverage_fraction`.  Sites may record states outside this tuple
#: (they show up in snapshots and help debugging) but only these count
#: toward the fuzzer's coverage target.  When adding an engine path or a new
#: stall source, add its state here and hit it at the new site (DESIGN.md
#: §8 documents the workflow).
TRACKED_STATES: Tuple[str, ...] = (
    # --- engine regimes (system/simulator.py) ---------------------------
    "engine.skip",          # A quiet interval was jumped in one step.
    "engine.step",          # A reference stepper cycle ran.
    # --- FADE stall phases (stepper path) -------------------------------
    "stall.wq_full",        # Unfiltered queue full: FADE cannot dequeue.
    "stall.fsq_full",       # FSQ full: instruction events stall.
    "fade.drain",           # SUU drain-before-stack-update cycles.
    "fade.wait",            # Blocking-mode wait-for-handler cycles.
    "fade.suu",             # A stack update reached the SUU.
    "fade.high_level",      # A high-level event was forwarded.
    # --- filter-memo classes (fade/pipeline.py) -------------------------
    "memo.value_hit",       # Value-keyed decision replayed.
    "memo.miss",            # Inline walk (no valid cached decision).
    "memo.unfiltered",      # Inline walk ended unfiltered (never cached).
    # --- FSQ lifecycle (fade/fsq.py) ------------------------------------
    "fsq.insert",           # Non-blocking critical update queued.
    "fsq.forward",          # Younger event forwarded an in-flight value.
    "fsq.release",          # Handler completion discarded entries.
    "fsq.saturated",        # The FSQ reached capacity.
    # --- queue occupancy bands (derived at run finalize) ----------------
    "eq.empty",
    "eq.partial",
    "eq.full",              # Bounded event queue hit capacity.
    "eq.deep",              # Occupancy beyond 64 (unbounded-queue tail).
    "wq.empty",
    "wq.partial",
    "wq.full",              # Unfiltered queue hit capacity.
    # --- run-level phases (derived at run finalize) ---------------------
    "run.app_blocked",      # The application spent cycles backpressured.
    "run.fade_drain",
    "run.fade_wait",
    "run.eq_rejected",      # The event queue rejected a retirement.
    "run.warmup",           # The run used a non-zero functional warmup.
    "run.unaccelerated",    # FADE-less topology exercised.
)

_TRACKED_SET = frozenset(TRACKED_STATES)


class CoverageMap:
    """A process-wide bag of named state counters, off by default."""

    __slots__ = ("enabled", "counters")

    def __init__(self) -> None:
        self.enabled = False
        self.counters: Dict[str, int] = {}

    # ------------------------------------------------------------ recording

    def hit(self, state: str, count: int = 1) -> None:
        """Record ``count`` occurrences of ``state`` (callers guard on
        :attr:`enabled`; calling while disabled records anyway)."""
        counters = self.counters
        counters[state] = counters.get(state, 0) + count

    # ----------------------------------------------------------- management

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.counters.clear()

    def snapshot(self) -> Dict[str, int]:
        """A copy of every counter (tracked and extra), sorted by name."""
        return dict(sorted(self.counters.items()))

    # ------------------------------------------------------------- analysis

    def hit_states(self) -> List[str]:
        """Tracked states observed at least once, in canonical order."""
        counters = self.counters
        return [state for state in TRACKED_STATES if counters.get(state)]

    def missing_states(self) -> List[str]:
        """Tracked states not observed yet, in canonical order."""
        counters = self.counters
        return [state for state in TRACKED_STATES if not counters.get(state)]

    def fraction(self) -> float:
        """Hit tracked states / all tracked states, in [0, 1]."""
        return len(self.hit_states()) / len(TRACKED_STATES)

    def new_states(self, before: Optional[Iterable[str]]) -> List[str]:
        """Tracked states hit now that were absent from ``before`` (an
        earlier :meth:`hit_states` result) — the fuzzer's per-case reward."""
        seen = set(before or ())
        return [state for state in self.hit_states() if state not in seen]


#: The process-wide coverage map every instrumentation site feeds.
COVERAGE = CoverageMap()
