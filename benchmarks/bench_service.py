"""Campaign-service bench: cold / coalesced / warm submission timings.

Times the three scheduler outcomes for one grid submitted through a live
in-process server (Unix socket, SQLite store):

* **cold** — first submission; every spec simulated on the worker pool.
* **coalesced** — a second client submitting the identical batch while the
  first is still in flight; its cost should be protocol + waiting, never a
  second simulation (the single-flight guarantee, here as a wall-clock
  ratio rather than a counter assertion).
* **warm** — resubmission after completion; pure store reads.

It prints a JSON payload of absolute seconds plus the warm/cold and
coalesced-pair ratios, and fails the run if any spec was simulated twice or
if warm answers are not dramatically cheaper than cold computation — the
property that makes the server worth running.  It writes no file.

Runnable as a script (``PYTHONPATH=src python benchmarks/bench_service.py``)
or under pytest.

Environment knobs:

* ``REPRO_BENCH_SERVICE_INSTRUCTIONS`` — per-spec trace length
  (default 12000, the shared bench scale).
* ``REPRO_BENCH_SERVICE_MAX_WARM_FRACTION`` — fail when warm resubmission
  costs more than this fraction of the cold run (default 0.25; measured
  well under 5%, the headroom absorbs shared-machine noise).
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import pathlib
import sys
import tempfile
import time

from repro.api import ExperimentSettings, ResultStore, spec_grid
from repro.service import CampaignServer, ServiceClient
from repro.system.config import SystemConfig

INSTRUCTIONS = int(
    os.environ.get("REPRO_BENCH_SERVICE_INSTRUCTIONS", "12000") or 12000
)
MAX_WARM_FRACTION = float(
    os.environ.get("REPRO_BENCH_SERVICE_MAX_WARM_FRACTION", "0.25") or 0.25
)

GRID = spec_grid(
    ["astar", "mcf", "gcc"],
    ["memleak", "addrcheck"],
    [SystemConfig(), SystemConfig(fade_enabled=False)],
    ExperimentSettings(num_instructions=INSTRUCTIONS, seed=7),
)


def measure() -> dict:
    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as tmp:
        store = ResultStore(pathlib.Path(tmp) / "store.db")
        server = CampaignServer(
            store=store, socket_path=str(pathlib.Path(tmp) / "sock")
        )
        address = server.start_background()
        try:
            client = ServiceClient(address)

            # Cold + coalesced in one round: two clients race the same
            # batch; the slower one's extra cost over the faster is the
            # coalescing overhead (it never simulates anything itself).
            def submit() -> float:
                start = time.perf_counter()
                ServiceClient(address).run_specs(GRID)
                return time.perf_counter() - start

            with concurrent.futures.ThreadPoolExecutor(2) as pool:
                pair = list(pool.map(lambda _: submit(), range(2)))
            cold = max(pair)
            coalesced_overhead = max(pair) - min(pair)

            warm_start = time.perf_counter()
            client.run_specs(GRID)
            warm = time.perf_counter() - warm_start

            stats = client.stats()["server"]
        finally:
            server.stop_background()
    return {
        "specs": len(GRID),
        "instructions": INSTRUCTIONS,
        "cold_seconds": cold,
        "coalesced_overhead_seconds": coalesced_overhead,
        "warm_seconds": warm,
        "warm_fraction_of_cold": warm / max(cold, 1e-9),
        "computed": stats["computed"],
        "coalesced": stats["coalesced"],
        "warm_hits": stats["warm_hits"],
    }


def main() -> int:
    payload = measure()
    print(json.dumps(payload, indent=2, sort_keys=True))
    if payload["computed"] > payload["specs"]:
        print(
            f"FAIL: {payload['computed']} computations for "
            f"{payload['specs']} spec(s) — single-flight dedup broken",
            file=sys.stderr,
        )
        return 1
    if payload["warm_fraction_of_cold"] > MAX_WARM_FRACTION:
        print(
            f"FAIL: warm resubmission costs "
            f"{payload['warm_fraction_of_cold']:.1%} of cold "
            f"(bound {MAX_WARM_FRACTION:.0%})",
            file=sys.stderr,
        )
        return 1
    return 0


def test_bench_service():
    assert main() == 0


if __name__ == "__main__":
    raise SystemExit(main())
