"""Shared settings and result recording for the benchmark harness.

Each ``bench_*`` file regenerates one of the paper's tables or figures and
writes the formatted rows to ``results/<name>.txt`` in addition to timing
the regeneration under pytest-benchmark.  All benches execute through one
shared :class:`repro.api.Runner`, so traces and retire schedules are cached
across benches (same settings) and the timed work is the simulation itself.
Set ``REPRO_BENCH_JOBS=N`` to fan the experiment grids out over N worker
processes, and ``REPRO_RESULT_CACHE=PATH`` to give every bench a persistent
content-addressed result store (re-running the suite recomputes only cells
whose inputs changed).
"""

from __future__ import annotations

import os
import pathlib

from repro.analysis import ExperimentSettings
from repro.api import ParallelRunner, ResultStore, Runner, SerialRunner

#: Shared experiment scale for the bench suite.  Larger values sharpen the
#: statistics at proportional cost; the shapes are stable from ~10k up.
BENCH_SETTINGS = ExperimentSettings(num_instructions=12_000, seed=7)

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def make_store() -> "ResultStore | None":
    """The shared persistent result store, when ``REPRO_RESULT_CACHE`` is
    set; None otherwise (benches recompute every cell)."""
    path = os.environ.get("REPRO_RESULT_CACHE", "")
    return ResultStore(path) if path else None


def make_runner() -> Runner:
    """Serial by default; ``REPRO_BENCH_JOBS=N`` (N > 1) runs grids on a
    process pool.  Results are identical either way — only wall-clock
    changes."""
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "0") or 0)
    store = make_store()
    if jobs > 1:
        return ParallelRunner(jobs=jobs, store=store)
    return SerialRunner(store=store)


#: The runner every bench passes to its harness call.
BENCH_RUNNER = make_runner()


def record(name: str, text: str) -> str:
    """Write an experiment's formatted output under results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
    return text
