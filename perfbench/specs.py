"""Seeded spec generators: the only inputs the benchmark hands the program.

Every generator is a pure function of its seed.  Specs are drawn from
fixed finite pools (the paper's 33 monitor/benchmark pairs, FADE off and
non-blocking FADE on, a few trace seeds), so runs under different seeds
share cells and the naive reference digests of one run serve the next.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional, Tuple

from repro.analysis.experiments import MONITOR_NAMES, benchmarks_for
from repro.api import ExperimentSettings, RunSpec
from repro.system import SystemConfig

#: The Figure 9 configurations: unaccelerated and non-blocking FADE.
UNACCEL = SystemConfig(fade_enabled=False)
FADE = SystemConfig(fade_enabled=True, non_blocking=True)

#: Every (benchmark, monitor) pair of the paper's evaluation (Section 6).
PAIRS: Tuple[Tuple[str, str], ...] = tuple(
    (benchmark, monitor)
    for monitor in MONITOR_NAMES
    for benchmark in benchmarks_for(monitor)
)

COLD_INSTRUCTIONS = 20_000
COLD_TRACE_SEEDS = (1, 2, 3)
FIG9_INSTRUCTIONS = 4_000
FIG9_TRACE_SEEDS = (1, 2, 3)
SERVICE_INSTRUCTIONS = 2_000
SERVICE_TRACE_SEEDS = tuple(range(1, 25))

#: Service traffic follows the repo's own clients of ``repro serve``:
#: ``campaign run --server`` submits a whole campaign as one batch, and
#: ``repro chaos`` submits a batch cold and then re-submits it warm.  So a
#: client runs campaigns: it submits each one cold (``new``, or ``shared``
#: when every client submits it at once, as overlapping campaigns do) and
#: then re-runs finished campaigns warm.  The campaign size, the number of
#: warm re-runs per campaign and the share of shared campaigns are chosen,
#: not observed: campaigns are small, as the benchmark's batches are meant
#: to be, and seven re-runs per campaign make seven requests in eight warm,
#: so the median request is a warm one and the tail a computed one, while
#: the workers stay below saturation.
SERVICE_CAMPAIGN = 4
SERVICE_RERUNS = 7
#: The kinds of one block of campaign rounds.
SERVICE_ROUNDS = ("new", "new", "new", "shared")


def _spec(benchmark: str, monitor: str, config: SystemConfig,
          instructions: int, trace_seed: int) -> RunSpec:
    return RunSpec(
        benchmark,
        monitor,
        config,
        ExperimentSettings(num_instructions=instructions, seed=trace_seed),
    )


def cold_cell_specs(seed: int, blocks: int = 100) -> List[RunSpec]:
    """Blocks of ten cold cells: every monitor once with FADE off and once
    with it on, each on a seeded benchmark of the monitor's suite and a
    seeded trace seed, shuffled within the block.  Blocking keeps the cost
    mix of any prefix close to that of every other seed."""
    rng = random.Random(f"cold_cell:{seed}")
    specs: List[RunSpec] = []
    for _ in range(blocks):
        block = [
            _spec(
                rng.choice(benchmarks_for(monitor)),
                monitor,
                config,
                COLD_INSTRUCTIONS,
                rng.choice(COLD_TRACE_SEEDS),
            )
            for monitor in MONITOR_NAMES
            for config in (UNACCEL, FADE)
        ]
        rng.shuffle(block)
        specs.extend(block)
    return specs


def fig9_specs(seed: int) -> List[RunSpec]:
    """The Figure 9 grid (66 cells) on a seeded trace seed, in seeded
    order."""
    rng = random.Random(f"fig9_grid:{seed}")
    trace_seed = rng.choice(FIG9_TRACE_SEEDS)
    specs = [
        _spec(benchmark, monitor, config, FIG9_INSTRUCTIONS, trace_seed)
        for benchmark, monitor in PAIRS
        for config in (UNACCEL, FADE)
    ]
    rng.shuffle(specs)
    return specs


@dataclasses.dataclass(frozen=True)
class Batch:
    """One service request: its kind (``new``, ``shared`` or ``warm``) and
    its specs, a whole campaign.  ``shared`` batches are submitted by every
    client at once."""

    kind: str
    specs: Tuple[RunSpec, ...]


def service_plan(seed: int, clients: int = 2,
                 blocks: Optional[int] = None) -> List[List[Batch]]:
    """One batch sequence per client, in campaign rounds.  A round submits
    one campaign cold and then re-runs finished campaigns warm: first the
    one just finished, then seeded picks among the client's earlier ones.
    All clients follow the same kind sequence, so ``shared`` campaigns line
    up by position; ``new`` campaigns hold specs no other batch has used.
    By default the plan runs as many blocks of rounds as the spec pool
    has fresh specs for."""
    rng = random.Random(f"service_mix:{seed}")
    pool = [
        _spec(benchmark, monitor, config, SERVICE_INSTRUCTIONS, trace_seed)
        for benchmark, monitor in PAIRS
        for config in (UNACCEL, FADE)
        for trace_seed in SERVICE_TRACE_SEEDS
    ]
    rng.shuffle(pool)
    fresh = iter(pool)
    if blocks is None:
        shared_rounds = SERVICE_ROUNDS.count("shared")
        per_block = SERVICE_CAMPAIGN * (
            shared_rounds + clients * (len(SERVICE_ROUNDS) - shared_rounds)
        )
        blocks = len(pool) // per_block

    def campaign() -> Tuple[RunSpec, ...]:
        return tuple(next(fresh) for _ in range(SERVICE_CAMPAIGN))

    kinds: List[str] = []
    for _ in range(blocks):
        block = list(SERVICE_ROUNDS)
        rng.shuffle(block)
        kinds.extend(block)
    plans: List[List[Batch]] = [[] for _ in range(clients)]
    finished: List[List[Tuple[RunSpec, ...]]] = [[] for _ in range(clients)]
    for kind in kinds:
        shared = campaign() if kind == "shared" else None
        for client in range(clients):
            cold = shared or campaign()
            finished[client].append(cold)
            plans[client].append(Batch(kind, cold))
            plans[client].append(Batch("warm", cold))
            for _ in range(SERVICE_RERUNS - 1):
                plans[client].append(
                    Batch("warm", rng.choice(finished[client]))
                )
    return plans
