"""Run one benchmark workload and print every metric by name and unit.

    python3 perfbench/run.py --workload cold_cell --seed 1 --seconds 25

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` is the separate traced run that measures the
per-layer ones.  Every result is checked bit-identical against the naive
reference stepper.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import pathlib
import signal
import sys
import time

SOURCE = pathlib.Path("src")

#: ``prctl`` option that makes this process adopt its orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36

#: How long processes still running at the end may take to exit before
#: they are killed.
CHILD_GRACE_S = 30.0


def adopt_orphans() -> None:
    """Become a child subreaper (Linux): a process this run starts whose
    parent exits first, such as a pool worker or the shared-memory resource
    tracker of ``repro serve``, is re-parented here, so ``reap_children``
    can wait for it."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _child_pids() -> list:
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == os.getpid():
            pids.append(int(entry))
    return pids


def reap_children() -> None:
    """Stop every process this run started and wait until each has ended.

    multiprocessing's resource tracker (started by the first shared-memory
    segment) otherwise lives until this process exits; it is closed and
    waited for first.  Children and adopted orphans then get
    ``CHILD_GRACE_S`` to exit on their own before they are killed."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        try:
            tracker._resource_tracker._stop()
        except (AttributeError, OSError, ChildProcessError):
            pass
    deadline = time.monotonic() + CHILD_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except OSError:
                    pass
            deadline = float("inf")
        time.sleep(0.01)


def main(argv=None) -> int:
    adopt_orphans()
    try:
        return measure(argv)
    finally:
        reap_children()


def measure(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE.resolve()))
    import checks
    import workloads
    from spans import Tracer

    run = workloads.WORKLOADS.get(args.workload)
    if run is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        out = run(args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    # Untimed: the naive references and the bit-identity gate.
    references = checks.References()
    references.ensure(spec for spec, _ in out.checked)
    references.save()
    mismatched, notes = checks.count_mismatches(out.checked,
                                                references.digests)
    failed = mismatched + out.extra_failures
    attempted = max(1, len(out.checked))
    for note in out.notes + notes:
        print(f"  failure: {note}")
    if out.mix:
        print(f"mix: {json.dumps(out.mix, sort_keys=True)}")

    # BENCHMARK.json names the metrics of each mode and their units.
    bench = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    if tracer is None:
        declared = bench["end_to_end"]
        values = out.end_to_end()
        _, _, percentile, beyond = workloads.median_and_tail(
            out.latencies)
        print(f"{args.workload} seed={args.seed}: {len(out.latencies)} ops, "
              f"{len(out.checked)} cells; tail is p{percentile:.1f} "
              f"({beyond} samples beyond)")
    else:
        declared = bench["per_layer"]
        values = dict(out.layers, failed_frac=failed / attempted)
        spans_path = checks.CACHE_DIR / (
            f"spans-{args.workload}-{args.seed}.json")
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(tracer.spans))
        print(f"{args.workload} seed={args.seed} traced: "
              f"{len(tracer.spans)} spans written to {spans_path}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
