"""Paired perfbench runs of a base checkout and this one; fail on a
regression past a metric's bound.

    python3 benchmarks/perf_gate.py BASE_CHECKOUT

The change is the checkout holding this script.  For each workload in
its ``BENCHMARK.json`` it runs ``PAIRS`` pairs of the benchmark
command (``perfbench/run.py --workload W --seed <pair> --seconds
SECONDS``), once in each checkout's root, alternating which side goes
first.  Every run gets its own empty ``REPRO_TRACE_STORE``, so no run
starts from what an earlier one stored.

The rule for each ``end_to_end`` metric is the one the benchmark's bounds
are declared for: the change fails when its median is worse than the
base's by more than the metric's ``bound``.  Both sides run on the same
machine at the same time, so what the gate compares against is the base's
own spread, not a number recorded elsewhere.  When the base's quartile
spread (quartile distance over median) exceeds the bound, the runs
cannot resolve a move of that size: the metric is "unresolved" and fails
only when every change run is worse than every base run.  Any run that is
not ``correct``, or a larger share of failed operations on the change
side, fails the gate too.  Each run's result line is appended, with its
side, workload and seed, to ``RUNS_PATH`` (JSON lines).
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

#: Pairs per workload: the number of pairs a change is accepted on.  With
#: 5, one in five gates on unchanged code failed on a 2-CPU container.
PAIRS = 10
SECONDS = 5
CHANGE_ROOT = pathlib.Path(__file__).resolve().parent.parent
RUNS_PATH = CHANGE_ROOT / ".bench_cache" / "perf-gate-runs.jsonl"


def metric_verdict(metric: dict, base: List[float], change: List[float]
                   ) -> Tuple[bool, str]:
    """(passed, verdict text) for one ``end_to_end`` metric."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    q1, base_median, q3 = statistics.quantiles(base, n=4)
    change_median = statistics.median(change)
    if base_median:
        worse = (change_median - base_median) / base_median
        spread = (q3 - q1) / base_median
    else:
        worse = 0.0 if change_median == base_median else float("inf")
        spread = 0.0
    if not lower:
        worse = -worse
    text = (f"base {base_median:.4g} change {change_median:.4g} "
            f"{metric['unit']}, worse by {worse:+.1%} (bound {bound:.0%}, "
            f"base spread {spread:.1%})")
    if spread > bound:
        every_run_worse = (min(change) > max(base) if lower
                           else max(change) < min(base))
        if every_run_worse:
            return False, text + " unresolved; every change run worse: FAIL"
        return True, text + " unresolved; not every change run worse: ok"
    if worse > bound:
        return False, text + ": FAIL"
    return True, text + ": ok"


def workload_verdicts(metrics: List[dict], base: List[dict],
                      change: List[dict]) -> List[Tuple[bool, str]]:
    """One (passed, line) per check of one workload's paired result lines:
    correctness first, then each ``end_to_end`` metric in order."""
    def failed_share(runs: List[dict]) -> float:
        return (sum(run["failed"] for run in runs)
                / max(1, sum(run["attempted"] for run in runs)))

    incorrect = [f"{side} run {index + 1}"
                 for side, runs in (("base", base), ("change", change))
                 for index, run in enumerate(runs) if not run["correct"]]
    base_share, change_share = failed_share(base), failed_share(change)
    ok = not incorrect and change_share <= base_share
    detail = (f"not correct: {', '.join(incorrect)}; " if incorrect else "")
    verdicts = [(ok, f"correct: {detail}failed share base {base_share:.2%} "
                     f"change {change_share:.2%}: {'ok' if ok else 'FAIL'}")]
    for metric in metrics:
        name = metric["name"]
        passed, text = metric_verdict(
            metric,
            [run["metrics"][name]["value"] for run in base],
            [run["metrics"][name]["value"] for run in change],
        )
        verdicts.append((passed, f"{name} {text}"))
    return verdicts


def run_once(command: List[str], root: pathlib.Path, workload: str,
             seed: int) -> dict:
    """The result line (the last line of standard output) of one run."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    with tempfile.TemporaryDirectory(prefix="perf-gate-store-") as store:
        env["REPRO_TRACE_STORE"] = store
        completed = subprocess.run(
            command + ["--workload", workload, "--seed", str(seed),
                       "--seconds", str(SECONDS)],
            cwd=root, env=env, capture_output=True, text=True,
        )
    if completed.returncode:
        raise SystemExit(f"{workload} seed {seed} in {root} exited "
                         f"{completed.returncode}:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) != 1:
        print("usage: perf_gate.py BASE_CHECKOUT", file=sys.stderr)
        return 2
    base_root = pathlib.Path(argv[0]).resolve()
    if not (base_root / "perfbench" / "run.py").is_file():
        print(f"perf gate skipped: {base_root} has no perfbench/run.py")
        return 0
    bench = json.loads((CHANGE_ROOT / "BENCHMARK.json").read_text())
    RUNS_PATH.parent.mkdir(parents=True, exist_ok=True)
    passed = True
    with RUNS_PATH.open("w") as log:
        for workload in (w["name"] for w in bench["workloads"]):
            runs: Dict[str, List[dict]] = {"base": [], "change": []}
            for seed in range(1, PAIRS + 1):
                sides = (("base", base_root), ("change", CHANGE_ROOT))
                for side, root in sides if seed % 2 else sides[::-1]:
                    result = run_once(bench["command"], root, workload, seed)
                    runs[side].append(result)
                    log.write(json.dumps(dict(
                        result, side=side, workload=workload, seed=seed
                    )) + "\n")
                    log.flush()
            for ok, line in workload_verdicts(
                    bench["end_to_end"], runs["base"], runs["change"]):
                print(f"{workload} {line}", flush=True)
                passed = passed and ok
    print("perf gate passed" if passed else "perf gate FAILED")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
