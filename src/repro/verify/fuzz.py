"""Seeded, coverage-guided workload fuzzer.

Samples randomized :class:`~repro.workload.profile.BenchmarkProfile`\\ s far
outside the registered benchmark set — degenerate instruction mixes (0% /
100% memory ops), pathological alias density (a handful of hot words taking
every access), burst/gap trains tuned to alternate the event engine's
quiet-interval jumps with dense stepped stretches, INV-reprogramming storms (parallel profiles with tiny time
slices), SMT handler-budget edge cases, saturated and infinite queues —
and packages each one as a *self-contained* :class:`~repro.api.RunSpec`
(the profile travels inline in the spec, no runtime registration), so
fuzzed workloads flow through the exact execution path every real grid
uses, serial or parallel, spawn or fork.

Sampling is steered by the coverage map (:mod:`repro.verify.coverage`):
each regime's selection weight grows when its cases reach simulator states
not seen before in the campaign and decays when they only replay known
regimes — a small multiplicative bandit, deterministic per seed.

The :func:`fuzz_campaign` driver pairs the sampler with the differential
oracle (:mod:`repro.verify.oracle`) and implements ``repro fuzz``.
"""

from __future__ import annotations

import dataclasses
import time
from random import Random
from typing import Callable, Dict, List, Optional, Tuple

from repro.cores.base import CoreType
from repro.common.errors import ConfigurationError
from repro.system.config import SystemConfig, Topology
from repro.api.spec import ExperimentSettings, RunSpec
from repro.workload.profile import BenchmarkProfile

from repro.verify.coverage import COVERAGE

MONITORS: Tuple[str, ...] = (
    "addrcheck", "memcheck", "taintcheck", "memleak", "atomcheck",
)

#: Bounds of the fuzzed trace length.  Small enough that one case simulates
#: in tens of milliseconds; large enough to fill queues, saturate the FSQ
#: and cross many quiet-interval jumps.
MIN_INSTRUCTIONS = 400
MAX_INSTRUCTIONS = 2600

#: Bandit dynamics: regimes yielding new coverage are boosted, stale ones
#: decay toward (but never reach) extinction — every regime stays sampled.
_BOOST = 1.6
_DECAY = 0.9
_WEIGHT_CAP = 8.0
_WEIGHT_FLOOR = 0.15


@dataclasses.dataclass(frozen=True)
class FuzzCase:
    """One sampled workload: a self-contained spec plus its provenance."""

    index: int
    regime: str
    spec: RunSpec

    def describe(self) -> str:
        return (
            f"case {self.index} [{self.regime}] "
            f"{self.spec.benchmark}/{self.spec.monitor} "
            f"n={self.spec.settings.num_instructions} "
            f"seed={self.spec.settings.seed}"
        )


def _mix(rng: Random, **fixed: float) -> Dict[str, float]:
    """A random instruction mix; ``fixed`` pins chosen weights (e.g. 0.0)."""
    weights = {
        "load_weight": rng.uniform(0.05, 0.35),
        "store_weight": rng.uniform(0.05, 0.25),
        "alu1_weight": rng.uniform(0.02, 0.25),
        "alu2_weight": rng.uniform(0.02, 0.25),
        "move_weight": rng.uniform(0.0, 0.12),
        "fp_weight": rng.uniform(0.0, 0.1),
        "branch_weight": rng.uniform(0.02, 0.25),
        "nop_weight": rng.uniform(0.0, 0.3),
    }
    weights.update(fixed)
    if sum(weights.values()) <= 0.0:
        weights["nop_weight"] = 1.0  # Keep the mix non-empty.
    return weights


# --- regimes -----------------------------------------------------------------
#
# Each regime returns (profile overrides, config overrides, monitor or None).
# Shared axes (core, topology, settings) are sampled by the fuzzer after the
# regime has spoken; a regime's config overrides win.

def _regime_baseline(rng: Random):
    return _mix(rng), {}, None


def _regime_mem_all(rng: Random):
    # 100% memory ops: every instruction is a monitored event for the
    # memory-tracking monitors — the event queue can never drain ahead.
    load = rng.uniform(0.3, 0.7)
    profile = _mix(
        rng, load_weight=load, store_weight=1.0 - load, alu1_weight=0.0,
        alu2_weight=0.0, move_weight=0.0, fp_weight=0.0, branch_weight=0.0,
        nop_weight=0.0,
    )
    return profile, {}, None


def _regime_mem_none(rng: Random):
    # 0% memory ops: monitors see only calls/returns and high-level events.
    profile = _mix(rng, load_weight=0.0, store_weight=0.0)
    profile["call_rate"] = rng.uniform(0.0, 0.08)
    return profile, {}, None


def _regime_alias_dense(rng: Random):
    # A handful of hot words absorb every access: maximal memo reuse and
    # maximal metadata churn under the same memo keys.
    profile = _mix(rng)
    profile.update(
        hot_set_words=rng.choice([1, 2, 4, 8]),
        locality=1.0,
        page_locality=1.0,
        stream_fraction=0.0,
        stack_access_fraction=rng.uniform(0.0, 0.2),
    )
    return profile, {}, None


def _regime_burst_gap(rng: Random):
    # Long dispatch gaps + allocation-init bursts: starved stretches the
    # event engine jumps across, then dense filtered runs it steps through.
    profile = _mix(rng, nop_weight=rng.uniform(0.2, 0.5))
    profile.update(
        bubble_prob=rng.uniform(0.15, 0.6),
        bubble_mean=rng.uniform(10.0, 80.0),
        malloc_rate=rng.uniform(0.005, 0.05),
        init_burst_fraction=1.0,
        init_burst_intensity=rng.uniform(0.7, 1.0),
        dep_prob=rng.uniform(0.0, 1.0),
    )
    return profile, {}, None


def _regime_inv_storm(rng: Random):
    # Parallel profile with a tiny time slice: THREAD_SWITCH high-level
    # events reprogram the INV RF constantly (AtomCheck), re-keying the
    # value memo.
    profile = _mix(rng)
    profile.update(
        parallel=True,
        num_threads=rng.randint(2, 4),
        thread_switch_period=rng.randint(40, 400),
        shared_fraction=rng.uniform(0.2, 0.8),
        shared_words=rng.choice([2, 8, 24, 64]),
        interleave_prob=rng.uniform(0.0, 0.8),
    )
    return profile, {}, "atomcheck"


def _regime_smt_edge(rng: Random):
    # Single-core SMT with extreme serialisation: the half-share handler
    # budget and the app's progress-freeze interact at window boundaries.
    profile = _mix(rng)
    profile["dep_prob"] = rng.choice([0.0, 1.0])
    profile["bubble_prob"] = 0.0
    config = {
        "topology": Topology.SINGLE_CORE_SMT,
        "core_type": rng.choice(
            [CoreType.INORDER, CoreType.OOO2, CoreType.OOO4]
        ),
    }
    return profile, config, None


def _regime_queue_tiny(rng: Random):
    # Capacity-1/2 queues: constant backpressure, rejections and stalls.
    config = {
        "event_queue_capacity": rng.choice([1, 2]),
        "unfiltered_queue_capacity": rng.choice([1, 2]),
        "fsq_capacity": rng.choice([1, 2]),
    }
    return _mix(rng), config, None


def _regime_queue_infinite(rng: Random):
    # The Section 3.2 infinite queue: occupancy runs deep instead of
    # blocking the application.
    return _mix(rng), {"event_queue_capacity": None}, None


def _regime_stack_storm(rng: Random):
    # Call/return dense: SUU traffic and drain-before-stack-update phases.
    profile = _mix(rng, branch_weight=rng.uniform(0.1, 0.3))
    profile.update(
        call_rate=rng.uniform(0.1, 0.4),
        frame_size_mean=rng.choice([16, 64, 256]),
        max_call_depth=rng.choice([4, 16, 64]),
    )
    config = {"stack_update_drain": rng.random() < 0.8}
    return profile, config, None


def _regime_alloc_storm(rng: Random):
    # malloc/free floods: high-level events and MemLeak handler pressure.
    profile = _mix(rng)
    profile.update(
        malloc_rate=rng.uniform(0.02, 0.15),
        alloc_size_mean=rng.choice([16, 128, 1024]),
        free_fraction=1.0,
        pointer_store_fraction=rng.uniform(0.2, 0.9),
        pointer_load_bias=rng.uniform(0.2, 0.9),
        pointer_alu_fraction=rng.uniform(0.1, 0.6),
    )
    return profile, {}, rng.choice(["memleak", "memcheck", "addrcheck"])


def _regime_taint_flood(rng: Random):
    profile = _mix(rng)
    profile.update(
        taint_source_fraction=rng.uniform(0.5, 1.0),
        taint_source_rate=rng.uniform(0.01, 0.2),
        taint_load_bias=rng.uniform(0.5, 1.0),
        taint_alu_fraction=rng.uniform(0.3, 1.0),
        malloc_rate=rng.uniform(0.001, 0.02),
    )
    return profile, {}, "taintcheck"


def _regime_blocking(rng: Random):
    # Blocking-mode FADE: every unfiltered event opens a wait phase.
    return _mix(rng), {"non_blocking": False}, None


def _regime_no_fade(rng: Random):
    # Unaccelerated topology: the single-queue delivery path.
    return _mix(rng), {"fade_enabled": False}, None


REGIME_SAMPLERS: Dict[str, Callable] = {
    "baseline": _regime_baseline,
    "mem_all": _regime_mem_all,
    "mem_none": _regime_mem_none,
    "alias_dense": _regime_alias_dense,
    "burst_gap": _regime_burst_gap,
    "inv_storm": _regime_inv_storm,
    "smt_edge": _regime_smt_edge,
    "queue_tiny": _regime_queue_tiny,
    "queue_infinite": _regime_queue_infinite,
    "stack_storm": _regime_stack_storm,
    "alloc_storm": _regime_alloc_storm,
    "taint_flood": _regime_taint_flood,
    "blocking": _regime_blocking,
    "no_fade": _regime_no_fade,
}

REGIMES: Tuple[str, ...] = tuple(REGIME_SAMPLERS)


class WorkloadFuzzer:
    """Deterministic sampler of adversarial run specs.

    The same ``seed`` always yields the same case sequence *given the same
    coverage feedback*; with feedback disabled (never calling
    :meth:`observe`) the sequence is a pure function of the seed.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = Random(seed)
        self._weights: Dict[str, float] = {regime: 1.0 for regime in REGIMES}
        self._index = 0
        self.cases_sampled = 0
        self.regime_counts: Dict[str, int] = {regime: 0 for regime in REGIMES}

    # ------------------------------------------------------------- sampling

    def _pick_regime(self) -> str:
        weights = self._weights
        total = sum(weights.values())
        point = self._rng.random() * total
        cumulative = 0.0
        for regime, weight in weights.items():
            cumulative += weight
            if point <= cumulative:
                return regime
        return REGIMES[-1]

    def next_case(self) -> FuzzCase:
        """Sample the next case (resampling invalid profiles, which the
        frozen-profile validation rejects deterministically)."""
        rng = self._rng
        while True:
            regime = self._pick_regime()
            index = self._index
            self._index += 1
            sampler = REGIME_SAMPLERS[regime]
            profile_fields, config_fields, monitor = sampler(rng)
            name = f"fuzz/{regime}/{index}"
            config = dict(config_fields)
            config.setdefault(
                "core_type",
                rng.choice([CoreType.INORDER, CoreType.OOO2, CoreType.OOO4]),
            )
            config.setdefault(
                "topology",
                rng.choice([Topology.SINGLE_CORE_SMT, Topology.TWO_CORE]),
            )
            if "event_queue_capacity" not in config:
                config["event_queue_capacity"] = rng.choice(
                    [4, 8, 32, 32, None]
                )
            if "unfiltered_queue_capacity" not in config:
                config["unfiltered_queue_capacity"] = rng.choice([2, 4, 16])
            if "fsq_capacity" not in config:
                config["fsq_capacity"] = rng.choice([1, 4, 16])
            settings = ExperimentSettings(
                num_instructions=rng.randint(
                    MIN_INSTRUCTIONS, MAX_INSTRUCTIONS
                ),
                seed=rng.randrange(1 << 30),
                warmup_fraction=rng.choice([0.0, 0.25, 0.5, 0.9]),
            )
            if monitor is None:
                monitor = rng.choice(MONITORS)
            try:
                profile = BenchmarkProfile(name=name, **profile_fields)
                spec = RunSpec(
                    benchmark=name,
                    monitor=monitor,
                    config=SystemConfig(**config),
                    settings=settings,
                    profile=profile,
                )
            except ConfigurationError:
                continue  # Invalid sample: draw again (deterministic).
            self.cases_sampled += 1
            self.regime_counts[regime] += 1
            return FuzzCase(index=index, regime=regime, spec=spec)

    # ------------------------------------------------------------- steering

    def observe(self, case: FuzzCase, new_states: List[str]) -> None:
        """Coverage feedback: boost the regime if the case reached tracked
        states the campaign had not seen, decay it otherwise."""
        weight = self._weights[case.regime]
        if new_states:
            weight = min(_WEIGHT_CAP, weight * _BOOST)
        else:
            weight = max(_WEIGHT_FLOOR, weight * _DECAY)
        self._weights[case.regime] = weight

    def weights(self) -> Dict[str, float]:
        return dict(self._weights)


@dataclasses.dataclass
class CampaignReport:
    """Outcome of one ``repro fuzz`` campaign."""

    seed: int
    cases_run: int
    elapsed_seconds: float
    mismatches: list  # List[repro.verify.oracle.Mismatch]
    coverage_fraction: float
    hit_states: List[str]
    missing_states: List[str]
    regime_counts: Dict[str, int]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        lines = [
            f"fuzz campaign: {self.cases_run} case(s), seed {self.seed}, "
            f"{self.elapsed_seconds:.1f}s",
            f"coverage: {100.0 * self.coverage_fraction:.1f}% "
            f"({len(self.hit_states)} of "
            f"{len(self.hit_states) + len(self.missing_states)} tracked "
            f"states)",
        ]
        if self.missing_states:
            lines.append("missing: " + " ".join(self.missing_states))
        if self.mismatches:
            lines.append(f"{len(self.mismatches)} DIFFERENTIAL MISMATCH(ES):")
            for mismatch in self.mismatches:
                lines.append("  " + mismatch.describe())
        else:
            lines.append("zero differential mismatches")
        return "\n".join(lines)


def fuzz_campaign(
    budget: int = 50,
    seed: int = 0,
    seconds: Optional[float] = None,
    thorough: bool = True,
    max_mismatches: int = 3,
    checkpoint_every: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignReport:
    """Run a fuzz campaign: sample cases, run each through the differential
    oracle, steer by coverage, and stop after ``budget`` cases (or after
    ``seconds`` wall-clock seconds, whichever comes first when given).

    ``thorough`` forwards to the oracle: the full cross-product including
    the parallel legs per case, versus the serial-only legs.
    ``checkpoint_every`` pins the checkpointed leg's cadence (default: a
    third of each case's instruction count).  Campaigns abort early after
    ``max_mismatches`` shrunken mismatches — each shrink is itself
    simulation work, and one mismatch already fails the run.
    """
    from repro.verify.oracle import DifferentialOracle

    # The process-wide map: the instrumentation sites in the simulator,
    # pipeline and FSQ are hardwired to it, so it is not a parameter.
    coverage = COVERAGE
    fuzzer = WorkloadFuzzer(seed)
    oracle = DifferentialOracle(
        thorough=thorough, checkpoint_every=checkpoint_every
    )
    was_enabled = coverage.enabled
    coverage.reset()
    coverage.enable()
    mismatches = []
    cases_run = 0
    start = time.monotonic()
    try:
        while cases_run < budget:
            elapsed = time.monotonic() - start
            if seconds is not None and elapsed >= seconds:
                break
            case = fuzzer.next_case()
            seen_before = coverage.hit_states()
            mismatch = oracle.check(case.spec)
            cases_run += 1
            new_states = coverage.new_states(seen_before)
            fuzzer.observe(case, new_states)
            if progress is not None and (
                mismatch is not None or new_states or cases_run % 25 == 0
            ):
                if seconds is not None:  # Time-budgeted: count never binds.
                    position = f"[{cases_run} @ {elapsed:.0f}/{seconds:.0f}s]"
                else:
                    position = f"[{cases_run}/{budget}]"
                note = f"+{len(new_states)} new states" if new_states else ""
                progress(
                    f"{position} {case.describe()} "
                    f"coverage={100.0 * coverage.fraction():.0f}% {note}"
                )
            if mismatch is not None:
                mismatches.append(mismatch)
                if progress is not None:
                    progress("MISMATCH " + mismatch.describe())
                if len(mismatches) >= max_mismatches:
                    break
    finally:
        if not was_enabled:
            coverage.disable()
    return CampaignReport(
        seed=seed,
        cases_run=cases_run,
        elapsed_seconds=time.monotonic() - start,
        mismatches=mismatches,
        coverage_fraction=coverage.fraction(),
        hit_states=coverage.hit_states(),
        missing_states=coverage.missing_states(),
        regime_counts=dict(fuzzer.regime_counts),
    )
