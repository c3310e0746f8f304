"""``repro chaos`` — seeded chaos campaigns with an exactness oracle.

Each chaos **round** derives a small workload batch from the coverage
fuzzer (:class:`~repro.verify.fuzz.WorkloadFuzzer`), computes a fault-free
baseline digest per spec (serial, injection suppressed), then replays the
batch twice under a seeded :class:`~repro.faults.plan.FaultPlan`:

* **runner phase** — :class:`~repro.api.ParallelRunner` over a JSON-dir
  store while workers are SIGKILLed mid-chunk and store writes hit ENOSPC
  or tear: exercises pool-rebuild recovery and corrupt-entry healing.
* **service phase** — a real :class:`~repro.service.CampaignServer` on a
  Unix socket over a SQLite store, driven through
  :class:`~repro.service.ServiceClient`, while workers hang past the
  spec deadline or are SIGKILLed, the pool breaks at submit, futures are
  slowed, SQLite writes go BUSY, entries tear, and the NDJSON stream is
  cut mid-line: exercises deadlines, retry/backoff, pool rebuild, and
  client reconnect-and-resume.  A warm resubmission follows, proving torn
  entries heal and warm answers match too.

A killed worker's spec reruns from its start on the retry; the result
store is the only resume (finished cells are never recomputed).

The verdict is exact, not statistical: every returned result must be
**bit-identical** (sorted-key-JSON SHA-256, the differential oracle's
:func:`~repro.verify.oracle.result_digest`) to its fault-free baseline,
with zero lost or duplicated specs — and every planned fault event must
actually have fired (the journal is the witness).  Fault schedules are a
pure function of ``(seed, round)``; the per-round plan and journal are
left on disk under the campaign root for post-mortems and CI artifacts,
and each phase's summary in ``report.json`` records its wall-clock
``seconds``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from repro.api.results import ResultSet
from repro.api.runner import ParallelRunner
from repro.api.spec import RunSpec
from repro.api.store import ResultStore
from repro.faults.injector import (
    FaultInjector,
    install_plan,
    spec_fault_key,
    suppress_faults,
    uninstall_plan,
)
from repro.faults.plan import generate_plan
from repro.verify.fuzz import WorkloadFuzzer
from repro.verify.oracle import result_digest

#: Fault kinds each phase injects.  Together the two phases cover all
#: eight kinds (and both store backends).
RUNNER_KINDS = ("worker_crash", "store_enospc", "store_torn")
SERVICE_KINDS = (
    "worker_crash",
    "worker_hang",
    "pool_broken",
    "scheduler_slow",
    "sqlite_busy",
    "store_torn",
    "server_disconnect",
)


@dataclasses.dataclass
class ChaosReport:
    """Aggregated campaign outcome (JSON-shaped via :meth:`to_dict`)."""

    seed: int
    root: str
    rounds: int = 0
    specs_checked: int = 0
    faults_planned: int = 0
    faults_fired: int = 0
    kinds_fired: List[str] = dataclasses.field(default_factory=list)
    mismatches: List[Dict[str, object]] = dataclasses.field(
        default_factory=list
    )
    lost: int = 0
    unfired: List[str] = dataclasses.field(default_factory=list)
    errors: List[str] = dataclasses.field(default_factory=list)
    elapsed_seconds: float = 0.0
    round_details: List[Dict[str, object]] = dataclasses.field(
        default_factory=list
    )

    @property
    def ok(self) -> bool:
        return (
            not self.mismatches
            and self.lost == 0
            and not self.unfired
            and not self.errors
            and self.rounds > 0
        )

    def to_dict(self) -> Dict[str, object]:
        data = dataclasses.asdict(self)
        data["ok"] = self.ok
        return data


def _baseline_digests(specs: Sequence[RunSpec]) -> List[str]:
    """Fault-free per-spec digests (in-process, injection suppressed)."""
    with suppress_faults():
        baseline = ParallelRunner(jobs=1).run(specs)
    return [result_digest(record.result) for record in baseline.records]


def _check_results(
    report: ChaosReport,
    phase: str,
    round_index: int,
    specs: Sequence[RunSpec],
    results: ResultSet,
    baseline: Sequence[str],
) -> int:
    """Fold one phase's ResultSet into the report; returns mismatches."""
    found = 0
    if len(results.records) != len(specs):
        report.lost += abs(len(specs) - len(results.records))
    for index, (spec, record) in enumerate(zip(specs, results.records)):
        if record.spec != spec:
            report.lost += 1  # Out of order / substituted: counts as lost.
            continue
        digest = result_digest(record.result)
        if digest != baseline[index]:
            found += 1
            report.mismatches.append(
                {
                    "phase": phase,
                    "round": round_index,
                    "index": index,
                    "spec": spec.describe(),
                    "expected": baseline[index],
                    "actual": digest,
                }
            )
    report.specs_checked += len(specs)
    return found


def _finish_phase(
    report: ChaosReport, injector: FaultInjector, started: float
) -> Dict[str, object]:
    """Uninstall the phase plan and absorb its journal into the report;
    the summary records the phase's wall-clock seconds since ``started``."""
    uninstall_plan()
    summary = injector.summary()
    summary["seconds"] = round(time.monotonic() - started, 3)
    report.faults_planned += summary["planned"]
    report.faults_fired += summary["fired"]
    for kind in summary["by_kind"]:
        if kind not in report.kinds_fired:
            report.kinds_fired.append(kind)
    report.unfired.extend(summary["pending"])
    return summary


def _runner_phase(
    report: ChaosReport,
    round_index: int,
    round_seed: int,
    specs: Sequence[RunSpec],
    baseline: Sequence[str],
    phase_dir: pathlib.Path,
    jobs: int,
) -> Dict[str, object]:
    started = time.monotonic()
    store = ResultStore(phase_dir / "store")
    injector = install_plan(
        generate_plan(
            round_seed,
            [spec_fault_key(spec) for spec in specs],
            kinds=RUNNER_KINDS,
            writes_expected=len(specs),
            id_prefix=f"r{round_index}-runner-",
        ),
        root=phase_dir,
    )
    try:
        faulted = ParallelRunner(jobs=jobs, store=store).run(specs)
        _check_results(
            report, "runner", round_index, specs, faulted, baseline
        )
        # Heal pass: the torn entry reads as corrupt, is deleted, and the
        # recomputation must again match the baseline bit-for-bit.
        healed = ParallelRunner(jobs=1, store=store).run(specs)
        _check_results(
            report, "runner-heal", round_index, specs, healed, baseline
        )
    finally:
        summary = _finish_phase(report, injector, started)
        store.close()
    return summary


def _service_phase(
    report: ChaosReport,
    round_index: int,
    round_seed: int,
    specs: Sequence[RunSpec],
    baseline: Sequence[str],
    phase_dir: pathlib.Path,
    workers: int,
    spec_timeout: float,
    hang_seconds: float,
    slow_seconds: float,
) -> Dict[str, object]:
    started = time.monotonic()
    # Imported here: repro.faults must stay import-light (see package
    # docstring); only the chaos harness needs the service stack.
    from repro.service.client import ServiceClient
    from repro.service.scheduler import SpecScheduler
    from repro.service.server import CampaignServer

    store = ResultStore(phase_dir / "store.sqlite3")
    scheduler = SpecScheduler(
        store=store, workers=workers, spec_timeout=spec_timeout
    )
    server = CampaignServer(
        store=store,
        socket_path=str(phase_dir / "serve.sock"),
        scheduler=scheduler,
    )
    injector = install_plan(
        generate_plan(
            round_seed + 1,
            [spec_fault_key(spec) for spec in specs],
            kinds=SERVICE_KINDS,
            writes_expected=len(specs),
            stream_lines_expected=len(specs) + 1,
            hang_seconds=hang_seconds,
            slow_seconds=slow_seconds,
            id_prefix=f"r{round_index}-service-",
        ),
        root=phase_dir,
    )
    stats: Dict[str, object] = {}
    try:
        address = server.start_background()
        client = ServiceClient(address, timeout=60.0)
        try:
            cold = client.run_specs(specs)
            _check_results(
                report, "service", round_index, specs, cold, baseline
            )
            # Warm resubmission: every spec answers from the store (the
            # torn entry heals via delete-and-recompute) and must still be
            # bit-identical.
            warm = client.run_specs(specs)
            _check_results(
                report, "service-warm", round_index, specs, warm, baseline
            )
            stats = client.stats()
        finally:
            server.stop_background()
    finally:
        summary = _finish_phase(report, injector, started)
        store.close()
    scheduler_stats = (
        stats.get("server", {}) if isinstance(stats, dict) else {}
    )
    summary["scheduler"] = scheduler_stats
    return summary


def run_chaos(
    seed: int = 0,
    rounds: Optional[int] = None,
    seconds: Optional[float] = None,
    root: Optional[str] = None,
    batch: int = 8,
    jobs: int = 2,
    workers: int = 2,
    spec_timeout: float = 5.0,
    hang_seconds: float = 8.0,
    slow_seconds: float = 0.5,
    progress=None,
) -> ChaosReport:
    """Run a chaos campaign: ``rounds`` rounds, or until ``seconds`` of
    wall clock (whichever is given; at least one round always runs).

    The fault schedule of round *i* is a pure function of ``(seed, i)`` —
    rerunning with the same seed injects the same faults at the same
    probes.  Plans, claims, and journals land under ``root`` (a fresh
    temp directory by default), one subdirectory per round and phase.
    """
    root_dir = pathlib.Path(
        root if root is not None else tempfile.mkdtemp(prefix="repro-chaos-")
    )
    root_dir.mkdir(parents=True, exist_ok=True)
    report = ChaosReport(seed=seed, root=str(root_dir))
    say = progress or (lambda message: None)
    started = time.monotonic()
    round_index = 0
    while True:
        if rounds is not None and round_index >= rounds:
            break
        if (
            rounds is None
            and seconds is not None
            and round_index > 0
            and time.monotonic() - started >= seconds
        ):
            break
        round_seed = seed * 1_000_003 + 2 * round_index
        fuzzer = WorkloadFuzzer(seed=round_seed)
        specs = [fuzzer.next_case().spec for _ in range(batch)]
        say(
            f"round {round_index}: {len(specs)} specs, "
            f"baseline + runner + service phases"
        )
        baseline = _baseline_digests(specs)
        detail: Dict[str, object] = {"round": round_index}
        try:
            runner_dir = root_dir / f"round{round_index:03d}-runner"
            detail["runner"] = _runner_phase(
                report,
                round_index,
                round_seed,
                specs[: max(jobs + 2, batch // 2)],
                baseline,
                runner_dir,
                jobs,
            )
            service_dir = root_dir / f"round{round_index:03d}-service"
            detail["service"] = _service_phase(
                report,
                round_index,
                round_seed,
                specs,
                baseline,
                service_dir,
                workers,
                spec_timeout,
                hang_seconds,
                slow_seconds,
            )
        except Exception as error:  # A harness crash is a finding too.
            uninstall_plan()
            report.errors.append(
                f"round {round_index}: {type(error).__name__}: {error}"
            )
            detail["error"] = report.errors[-1]
        report.round_details.append(detail)
        report.rounds += 1
        round_index += 1
    report.elapsed_seconds = time.monotonic() - started
    (root_dir / "report.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    return report
