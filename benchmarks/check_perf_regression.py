"""Compare a freshly generated ``BENCH_perf.json`` against a committed
baseline and fail on a wall-clock throughput regression.

Usage::

    python benchmarks/check_perf_regression.py BASELINE.json FRESH.json \
        [--max-regression 0.10]

Compares ``cycles_per_sec`` (simulated cycles per wall second) for every
engine present in both payloads — for the main fig9 grid and, when both
payloads carry it, the ``fade_active`` engine-loop split.  Exits non-zero
when the fresh run is more than ``--max-regression`` (default 10%) below
the baseline.  Absolute
throughput is machine-specific, so the two payloads should come from the
same machine — CI re-measures the base commit on the runner before
diffing.

Trace-generation throughput (``trace_synthesis.items_per_sec``),
functional-warmup throughput (``warmup.cells_per_sec``), the parallel
fig9 grid's throughput (``parallel_grid.cells_per_sec``, the median of the
bench's rounds) and the rate of `repro run` processes served by the trace
store (``front_end_store.hit_runs_per_sec``) are gated at the same
``--max-regression`` floor; each diff is skipped with a notice when the
baseline predates its section.

The result-store warm-rerun speedup is gated too, but only at half the
baseline: warm reruns take milliseconds, so their ratio is noise-dominated;
halving (e.g. 400x -> <200x) still catches the store actually breaking
(which collapses it to ~1x) without flapping on timer jitter.

Scale guard: the two payloads must have been produced with the same
``num_instructions``; otherwise per-cell fixed costs skew the comparison
and the check is skipped with a notice (exit 0).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def compare(baseline: dict, fresh: dict, max_regression: float) -> int:
    if baseline.get("num_instructions") != fresh.get("num_instructions"):
        print(
            "perf check skipped: baseline was generated at "
            f"n={baseline.get('num_instructions')} but this run used "
            f"n={fresh.get('num_instructions')} (not comparable)"
        )
        return 0
    floor = 1.0 - max_regression
    failures = []
    sections = [("", baseline, fresh)]
    if "fade_active" in baseline and "fade_active" in fresh:
        # The FADE-active engine-loop split is gated exactly like the main
        # grid: its cycles/sec is the headline number the filter memo is
        # responsible for.
        sections.append(
            ("fade_active.", baseline["fade_active"], fresh["fade_active"])
        )
    for prefix, base_section, fresh_section in sections:
        for engine, base_stats in base_section.get("engines", {}).items():
            fresh_stats = fresh_section.get("engines", {}).get(engine)
            if fresh_stats is None:
                continue
            base_rate = base_stats.get("cycles_per_sec", 0.0)
            fresh_rate = fresh_stats.get("cycles_per_sec", 0.0)
            if base_rate <= 0:
                continue
            ratio = fresh_rate / base_rate
            status = "ok" if ratio >= floor else "REGRESSION"
            print(
                f"{prefix}{engine}: cycles/sec {fresh_rate:,.0f} vs baseline "
                f"{base_rate:,.0f} ({100 * ratio:.1f}%) {status}"
            )
            if ratio < floor:
                failures.append(f"{prefix}{engine}")
    # The front end (trace generation: items synthesized per second), the
    # functional warmup (fig9 cells warmed per second), the parallel grid
    # (fig9 cells per second through a cold pool) and the trace store (warm
    # `repro run` processes per second) under the same gate as the engine
    # loop.
    for section, key, label in (
        ("trace_synthesis", "items_per_sec", "items/sec"),
        ("warmup", "cells_per_sec", "cells/sec"),
        ("parallel_grid", "cells_per_sec", "cells/sec"),
        ("front_end_store", "hit_runs_per_sec", "warm runs/sec"),
    ):
        base_section = baseline.get(section)
        fresh_section = fresh.get(section)
        if base_section is None:
            print(f"{section}: baseline lacks the section; diff skipped")
            continue
        if fresh_section is None:
            continue
        base_rate = base_section.get(key, 0.0)
        fresh_rate = fresh_section.get(key, 0.0)
        if base_rate > 0:
            ratio = fresh_rate / base_rate
            status = "ok" if ratio >= floor else "REGRESSION"
            print(
                f"{section}: {label} {fresh_rate:,.0f} vs baseline "
                f"{base_rate:,.0f} ({100 * ratio:.1f}%) {status}"
            )
            if ratio < floor:
                failures.append(section)
    base_store = baseline.get("result_store", {})
    fresh_store = fresh.get("result_store", {})
    if base_store.get("warm_speedup") and fresh_store.get("warm_speedup"):
        # Warm reruns take milliseconds; gate at half the baseline so timer
        # jitter never flaps the check but a broken store (~1x) still fails.
        ratio = fresh_store["warm_speedup"] / base_store["warm_speedup"]
        status = "ok" if ratio >= 0.5 else "REGRESSION"
        print(
            f"result-store warm speedup {fresh_store['warm_speedup']:.0f}x vs "
            f"baseline {base_store['warm_speedup']:.0f}x "
            f"({100 * ratio:.1f}%) {status}"
        )
        if ratio < 0.5:
            failures.append("result_store")
    if failures:
        print(
            f"FAIL: >{100 * max_regression:.0f}% regression in: "
            + ", ".join(failures),
            file=sys.stderr,
        )
        return 1
    print("perf check passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=pathlib.Path)
    parser.add_argument("fresh", type=pathlib.Path)
    parser.add_argument("--max-regression", type=float, default=0.10)
    args = parser.parse_args(argv)
    baseline = json.loads(args.baseline.read_text())
    fresh = json.loads(args.fresh.read_text())
    return compare(baseline, fresh, args.max_regression)


if __name__ == "__main__":
    sys.exit(main())
