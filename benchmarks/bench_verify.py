"""Verification-subsystem bench: coverage-counter overhead + fuzz throughput.

Two numbers keep the verify subsystem honest:

* **Counter overhead** — the coverage instrumentation sits on the
  simulator's hottest paths behind an ``enabled`` guard; this bench times a
  FADE-active cell with the map disabled and enabled and *gates the
  enabled overhead* (exit non-zero past the bound).  The disabled-path
  cost cannot be judged here (there is no uninstrumented build to compare
  against at runtime) — that is what CI's paired perfbench gate against
  the base commit (``benchmarks/perf_gate.py``) catches; this payload
  records the disabled seconds so the trend is visible.
* **Fuzz throughput** — cases/second of a small serial-leg campaign,
  the figure that sizes CI's ``repro fuzz --budget 60s`` smoke budget.

Runnable as a script (``PYTHONPATH=src python benchmarks/bench_verify.py``;
exits non-zero if the enabled-map slowdown exceeds the bound) or under
pytest.  Writes ``BENCH_verify.json`` next to the repo's other bench
payloads.

Environment knobs:

* ``REPRO_BENCH_VERIFY_ROUNDS`` — timing rounds (best counts; default 3).
* ``REPRO_BENCH_VERIFY_MAX_OVERHEAD`` — fail when the *enabled* coverage
  map slows the cell by more than this fraction over the disabled run
  (default 0.5; measured ~6%, the headroom absorbs shared-runner noise).
  The gate is skipped when the disabled-vs-disabled timer noise exceeds
  half the bound (the machine is too noisy to judge).
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

from repro.api import ExperimentSettings, RunSpec, execute_spec
from repro.api.cache import RunnerCache
from repro.system.config import SystemConfig
from repro.verify.coverage import COVERAGE
from repro.verify.fuzz import fuzz_campaign

ROUNDS = int(os.environ.get("REPRO_BENCH_VERIFY_ROUNDS", "3") or 3)
MAX_OVERHEAD = float(
    os.environ.get("REPRO_BENCH_VERIFY_MAX_OVERHEAD", "0.5") or 0.5
)
PAYLOAD_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_verify.json"

#: A FADE-active, memo-heavy cell: the worst case for counter overhead.
CELL = RunSpec(
    "astar",
    "memleak",
    SystemConfig(),
    ExperimentSettings(num_instructions=12_000, seed=7),
)


def _time_cell(cache: RunnerCache) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        execute_spec(CELL, cache)
        best = min(best, time.perf_counter() - start)
    return best


def measure() -> dict:
    cache = RunnerCache()
    execute_spec(CELL, cache)  # Warm trace/schedule/plan once.

    COVERAGE.disable()
    disabled_a = _time_cell(cache)
    disabled_b = _time_cell(cache)  # Noise floor: disabled vs itself.
    COVERAGE.reset()
    COVERAGE.enable()
    enabled = _time_cell(cache)
    states_hit = len(COVERAGE.hit_states())
    COVERAGE.disable()
    COVERAGE.reset()

    campaign_start = time.perf_counter()
    report = fuzz_campaign(budget=10, seed=7, thorough=False)
    campaign_elapsed = time.perf_counter() - campaign_start

    noise = abs(disabled_a - disabled_b) / max(disabled_a, disabled_b)
    return {
        "cell": CELL.describe(),
        "rounds": ROUNDS,
        "disabled_seconds": disabled_a,
        "noise_fraction": noise,
        "enabled_seconds": enabled,
        "enabled_overhead_fraction": enabled / disabled_a - 1.0,
        "enabled_states_hit": states_hit,
        "fuzz_cases": report.cases_run,
        "fuzz_seconds": campaign_elapsed,
        "fuzz_cases_per_second": report.cases_run / max(campaign_elapsed, 1e-9),
        "fuzz_coverage_fraction": report.coverage_fraction,
        "fuzz_mismatches": len(report.mismatches),
    }


def main() -> int:
    payload = measure()
    PAYLOAD_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    if payload["fuzz_mismatches"]:
        print("FAIL: differential mismatches during the bench campaign",
              file=sys.stderr)
        return 1
    if payload["noise_fraction"] > MAX_OVERHEAD / 2:
        # The machine is too noisy to judge overhead; report, don't fail.
        print(f"note: timer noise {payload['noise_fraction']:.2%} too high "
              f"to judge the {MAX_OVERHEAD:.0%} overhead bound",
              file=sys.stderr)
        return 0
    if payload["enabled_overhead_fraction"] > MAX_OVERHEAD:
        print(
            f"FAIL: enabled coverage map costs "
            f"{payload['enabled_overhead_fraction']:.2%} "
            f"(bound {MAX_OVERHEAD:.0%}) — an instrumentation site is "
            f"doing heavy work per hit",
            file=sys.stderr,
        )
        return 1
    return 0


def test_bench_verify():
    """Pytest entry point: the bench must complete cleanly."""
    assert main() == 0


if __name__ == "__main__":
    sys.exit(main())
