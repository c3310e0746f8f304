"""Measure the benchmark's noise floor and per-layer baseline.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BASELINE.json

Run from the repository root.  For each workload it runs ``run.py`` once
per seed untraced and reports each end-to-end metric's median, quartiles
and spread (quartile distance over median), then alternates two untraced
and two traced runs of the first seed for the per-layer self times, their
shares of the wall time they account for, and the tracing overhead
(traced minus untraced median operation time, in seconds and as a share
of the untraced one).  For ``service_mix`` it also records how the server
answered the specs of each untraced run (warm, computed, coalesced).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, "src")

import specs as specgen  # noqa: E402
import workloads  # noqa: E402
from checks import source_digest  # noqa: E402
WORKLOADS = ("cold_cell", "fig9_grid", "service_mix")

VALIDATION = (
    "The simulator is calibrated to the paper's observables (DESIGN.md "
    "section 2) but not validated against hardware, so no accuracy-error "
    "figure is given; correctness here means bit-identity with the naive "
    "reference stepper."
)

#: Self-time layers per workload, and the wall time they partition.
PROCESS_LAYERS = {
    "cold_cell": ("workload.trace_s", "cores.schedule_s", "system.plan_s",
                  "system.sim_s", "api.execute_spec_s",
                  "bench.unattributed_s"),
    "fig9_grid": ("api.grid.parent_trace_s", "api.grid.pool_s",
                  "bench.unattributed_s"),
    "service_mix": ("service.accept_s", "service.warm_s",
                    "service.coalesced_s", "service.computed_s",
                    "service.request_s", "bench.think_s",
                    "bench.line_up_s", "bench.unattributed_s"),
}

SERVICE_LAYOUT = (
    "The traced service run serves from an in-process CampaignServer, so "
    "its store can be wrapped: the server thread shares the benchmark "
    "process's GIL "
    "with both client threads and the traced median request is slower by "
    "tracing_overhead_frac.  Read the service.* and api.store.* self times "
    "as shares of the traced run, not of the untraced request time."
)

SERVICE_MIX = (
    "Campaign shape (whole-campaign batches, submitted cold then re-run "
    "warm, overlapping campaigns from both clients) follows the repo's "
    "callers of repro serve (campaign run --server, repro chaos). Chosen, "
    f"not observed: {specgen.SERVICE_CAMPAIGN} specs per campaign, "
    f"{specgen.SERVICE_RERUNS} warm re-runs per campaign, one shared round "
    f"in {len(specgen.SERVICE_ROUNDS)}, rounds started together by both "
    f"clients, warm re-runs one at a time once both clients' cold "
    f"campaigns are done, requests back to back within a round and "
    f"{workloads.THINK_S:g} s of think time between rounds (left out of "
    "cells_per_s). spec_mix gives the shares of "
    "served specs they produce; the warm/coalesced split depends on timing."
)


def run(workload: str, seed: int, seconds: int, trace: int) -> Dict:
    """The result line of one run, with its ``mix:`` line (if any) under
    the key ``mix``."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("mix: "):
            result["mix"] = json.loads(line[len("mix: "):])
    return result


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def shares(workload: str, layers: Dict[str, float]) -> Dict[str, object]:
    wall = layers["bench.wall_s"]
    result: Dict[str, object] = {
        "wall_s": wall,
        "process": {name: layers[name] / wall
                   for name in PROCESS_LAYERS[workload]},
    }
    if workload == "fig9_grid":
        # Worker layers partition the pool's capacity (jobs x pool time);
        # the rest of that capacity is idle.
        capacity = (layers["bench.worker_s"]
                    / layers["api.grid.pool_efficiency"])
        worker_trace = (layers["workload.trace_s"]
                        - layers["api.grid.parent_trace_s"])
        result["worker_capacity_s"] = capacity
        result["workers"] = {
            "workload.trace_s": worker_trace / capacity,
            "cores.schedule_s": layers["cores.schedule_s"] / capacity,
            "system.plan_s": layers["system.plan_s"] / capacity,
            "system.sim_s": layers["system.sim_s"] / capacity,
            "idle": 1.0 - layers["api.grid.pool_efficiency"],
        }
    if workload == "service_mix":
        # Server-side store time overlaps the client waits above.
        result["server_overlapping"] = {
            name: layers[name] / wall
            for name in ("api.store.get_s", "api.store.put_s")
        }
    return result


def parse_seeds(text: str) -> List[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bench = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report: Dict[str, object] = {
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "program": source_digest(),
        "run_seconds": seconds,
        "seeds": seeds,
        "model_validation": VALIDATION,
        "workloads": {},
    }
    for workload in args.workloads:
        runs = [run(workload, seed, seconds, 0) for seed in seeds]
        failed = sum(r["failed"] for r in runs)
        metrics = {
            name: summarize([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
        entry: Dict[str, object] = {
            "why": next(w["why"] for w in bench["workloads"]
                        if w["name"] == workload),
            "failed": failed,
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": metrics,
        }
        if runs[0].get("mix"):
            entry["spec_mix"] = {
                kind: summarize([r["mix"][kind] for r in runs])
                for kind in runs[0]["mix"]
            }
            entry["traffic"] = SERVICE_MIX
        for name, stats in metrics.items():
            print(f"{workload:12s} {name:12s} median {stats['median']:.5g} "
                  f"spread {stats['spread']:.3f} "
                  f"(bound {bounds.get(name)})")
        if not args.no_trace:
            # Alternate untraced and traced runs of one seed, so machine
            # drift does not pose as tracing overhead.
            untraced, traced = [], []
            for _ in range(2):
                plain = run(workload, seeds[0], seconds, 0)
                untraced.append(plain["metrics"]["op_s_p50"]["value"])
                traced.append(run(workload, seeds[0], seconds, 1))
            layers = {n: m["value"] for n, m in traced[0]["metrics"].items()}
            entry["traced_seed"] = seeds[0]
            entry["per_layer"] = layers
            entry["self_time_shares"] = shares(workload, layers)
            plain_p50 = statistics.median(untraced)
            entry["tracing_overhead_s"] = statistics.median(
                t["metrics"]["bench.op_s_p50"]["value"] for t in traced
            ) - plain_p50
            entry["tracing_overhead_frac"] = (
                entry["tracing_overhead_s"] / plain_p50
            )
            if workload == "service_mix":
                entry["traced_layout"] = SERVICE_LAYOUT
            print(f"{workload:12s} tracing overhead "
                  f"{entry['tracing_overhead_s']:+.4f} s per op "
                  f"({entry['tracing_overhead_frac']:+.1%})")
        print(f"{workload:12s} failed {failed} of {entry['attempted']}")
        report["workloads"][workload] = entry
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
