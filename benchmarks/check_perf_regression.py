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

Trace-generation throughput (``trace_synthesis.items_per_sec``) and
functional-warmup throughput (``warmup.cells_per_sec``) are gated at the
same ``--max-regression`` floor; each diff is skipped with a notice when
the baseline predates its section.

The result-store warm-rerun speedup is gated too, but only at half the
baseline: warm reruns take milliseconds, so their ratio is noise-dominated;
halving (e.g. 400x -> <200x) still catches the store actually breaking
(which collapses it to ~1x) without flapping on timer jitter.

The ``segmented`` section rides the per-engine throughput gate like the
others, plus an *absolute* floor on the fresh payload's warm-seam-resume
speedup (``REPRO_BENCH_PERF_MIN_SEGMENT_SPEEDUP``, default 1.0): resuming
from a stored seam must never be slower than recomputing the whole cell.

Scale guard: the two payloads must have been produced with the same
``num_instructions``; otherwise per-cell fixed costs skew the comparison
and the check is skipped with a notice (exit 0).
"""

from __future__ import annotations

import argparse
import json
import os
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
        # grid: its cycles/sec is the headline number burst draining and
        # the filter memo are responsible for.
        sections.append(
            ("fade_active.", baseline["fade_active"], fresh["fade_active"])
        )
    if "checkpointing" in baseline and "checkpointing" in fresh:
        # Disabled/armed/snapshotting checkpoint legs ride the same gate:
        # in particular the *disabled* leg regressing means the checkpoint
        # hooks started costing runs that never asked for them.
        sections.append(
            ("checkpointing.", baseline["checkpointing"], fresh["checkpointing"])
        )
    if "segmented" in baseline and "segmented" in fresh:
        # Monolithic/cold-segmented/warm-resume legs of the single-cell
        # segmentation bench: the monolithic leg regressing means segment
        # plumbing started taxing plain runs, the warm leg regressing means
        # seam restore got slower.
        sections.append(
            ("segmented.", baseline["segmented"], fresh["segmented"])
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
    # The front end (trace generation: items synthesized per second) and
    # the functional warmup (fig9 cells warmed per second) under the same
    # gate as the engine loop.
    for section, key, label in (
        ("trace_synthesis", "items_per_sec", "items/sec"),
        ("warmup", "cells_per_sec", "cells/sec"),
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
    fresh_segmented = fresh.get("segmented", {})
    if fresh_segmented.get("warm_speedup"):
        # Absolute floor (not a baseline ratio): a warm seam resume that is
        # not faster than recomputing means segmentation stopped paying for
        # itself.  Overridable per-runner via the same knob the bench uses.
        floor_env = os.environ.get("REPRO_BENCH_PERF_MIN_SEGMENT_SPEEDUP", "1.0")
        segment_floor = float(floor_env)
        warm = fresh_segmented["warm_speedup"]
        status = "ok" if warm >= segment_floor else "REGRESSION"
        print(
            f"segmented warm resume {warm:.2f}x vs monolithic "
            f"(floor {segment_floor:.2f}x) {status}"
        )
        if warm < segment_floor:
            failures.append("segmented.warm_speedup")
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
