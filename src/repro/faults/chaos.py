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
  spec deadline, the pool breaks at submit, futures are slowed, SQLite
  writes go BUSY, entries tear, and the NDJSON stream is cut mid-line:
  exercises deadlines, retry/backoff, degrade→recover, and client
  reconnect-and-resume.  A warm resubmission follows, proving torn
  entries heal and warm answers match too.
* **resume phase** — checkpointed execution
  (:mod:`repro.checkpoint`): a worker is SIGKILLed mid-spec *after*
  writing a checkpoint past the 55% progress gate, and the pool-rebuild
  retry must *resume* from it — journal-witnessed, recomputing <50% of
  the timed instructions on average — with results still bit-identical;
  a second sub-phase tears the victim's only checkpoint first, proving
  invalid blobs degrade to a (bit-identical) cold recompute.

The verdict is exact, not statistical: every returned result must be
**bit-identical** (sorted-key-JSON SHA-256, the differential oracle's
:func:`~repro.verify.oracle.result_digest`) to its fault-free baseline,
with zero lost or duplicated specs — and every planned fault event must
actually have fired (the journal is the witness).  Fault schedules are a
pure function of ``(seed, round)``; the per-round plan and journal are
left on disk under the campaign root for post-mortems and CI artifacts.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import pathlib
import signal
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from repro.api.results import ResultSet
from repro.api.runner import ParallelRunner, SerialRunner
from repro.api.spec import RunSpec
from repro.api.store import ResultStore, content_key
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

#: Fault kinds each phase injects.  Together the three phases cover all
#: ten kinds (and both store backends).
RUNNER_KINDS = ("worker_crash", "store_enospc", "store_torn")
SERVICE_KINDS = (
    "worker_hang",
    "pool_broken",
    "scheduler_slow",
    "sqlite_busy",
    "store_torn",
    "server_disconnect",
)
#: The kill-resume round: a worker is SIGKILLed mid-spec *after* writing a
#: checkpoint past the progress gate, and the retried spec must resume from
#: that checkpoint — bit-identical results with journal-witnessed partial
#: recomputation.  ``checkpoint_torn`` is exercised in its own sub-phase
#: (a torn blob must degrade to a cold recompute, never an error).
RESUME_KINDS = ("worker_kill_midrun", "checkpoint_torn")

#: Controlled workload shape for the resume phase: long enough a timed
#: region that checkpoints exist past the 55% kill gate, small enough that
#: the phase stays a few seconds per round.
_RESUME_INSTRUCTIONS = 1200
_RESUME_WARMUP = 0.25
_RESUME_CHECKPOINT_EVERY = 80


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
    resumed_specs: int = 0
    recompute_fractions: List[float] = dataclasses.field(
        default_factory=list
    )
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
    """Fault-free per-spec digests (serial, injection suppressed)."""
    with suppress_faults():
        baseline = SerialRunner().run(specs)
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
    report: ChaosReport, injector: FaultInjector
) -> Dict[str, object]:
    """Uninstall the phase plan and absorb its journal into the report."""
    uninstall_plan()
    summary = injector.summary()
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
        healed = SerialRunner(store=store).run(specs)
        _check_results(
            report, "runner-heal", round_index, specs, healed, baseline
        )
    finally:
        summary = _finish_phase(report, injector)
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
    pool_cooldown: float,
    hang_seconds: float,
    slow_seconds: float,
) -> Dict[str, object]:
    # Imported here: repro.faults must stay import-light (see package
    # docstring); only the chaos harness needs the service stack.
    from repro.service.client import ServiceClient
    from repro.service.scheduler import SpecScheduler
    from repro.service.server import CampaignServer

    store = ResultStore(phase_dir / "store.sqlite3")
    scheduler = SpecScheduler(
        store=store,
        workers=workers,
        spec_timeout=spec_timeout,
        pool_cooldown=pool_cooldown,
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
        summary = _finish_phase(report, injector)
        store.close()
    scheduler_stats = (
        stats.get("server", {}) if isinstance(stats, dict) else {}
    )
    summary["scheduler"] = scheduler_stats
    return summary


def _run_spec_in_child(spec: RunSpec, store_path: str) -> None:
    """Execute one spec against ``store_path`` — the fork-child target of
    the torn sub-phase.  Runs in its own process so an injected SIGKILL
    lands on a disposable pid (kill faults never fire in the orchestrator;
    see ``FAULT_PRIMARY_PID_ENV``), exactly like a pool worker."""
    from repro.api.runner import execute_spec

    store = ResultStore(store_path)
    try:
        execute_spec(spec, store=store)
    finally:
        store.close()


def _resume_phase(
    report: ChaosReport,
    round_index: int,
    round_seed: int,
    specs: Sequence[RunSpec],
    phase_dir: pathlib.Path,
    jobs: int,
) -> Dict[str, object]:
    """The kill-resume round: SIGKILL a worker mid-spec after a checkpoint
    lands past the 55% progress gate, then prove the pool-rebuild retry
    *resumed* (journal-witnessed, recomputing <50% of the timed
    instructions) and produced bit-identical results.  A second sub-phase
    tears the victim's only checkpoint before the kill, proving the torn
    blob degrades to a cold recompute that is still bit-identical."""
    from repro.checkpoint import (
        install_checkpoint_runtime,
        uninstall_checkpoint_runtime,
    )

    # Controlled workload shape: fuzz-derived profiles/configs, fixed
    # instruction count and warmup so the checkpoint cadence is known.
    resume_specs = [
        spec.replace(
            settings=dataclasses.replace(
                spec.settings,
                num_instructions=_RESUME_INSTRUCTIONS,
                warmup_fraction=_RESUME_WARMUP,
            )
        )
        for spec in specs
    ]
    baseline = _baseline_digests(resume_specs)
    summary: Dict[str, object] = {}
    # Negative seeds: a plan space of this phase's own, disjoint from the
    # runner/service plans of every round (which use round_seed and
    # round_seed + 1 — consecutive rounds are only 2 apart).
    kill_seed = -round_seed - 1
    torn_seed = -round_seed - 2

    # Sub-phase 1: kill-and-resume over the whole batch.
    store = ResultStore(phase_dir / "store")
    checkpoints = install_checkpoint_runtime(
        phase_dir / "ckpt", _RESUME_CHECKPOINT_EVERY
    )
    injector = install_plan(
        generate_plan(
            kill_seed,
            [spec_fault_key(spec) for spec in resume_specs],
            kinds=("worker_kill_midrun",),
            id_prefix=f"r{round_index}-resume-",
        ),
        root=phase_dir,
    )
    try:
        faulted = ParallelRunner(jobs=jobs, store=store).run(resume_specs)
        _check_results(
            report, "resume", round_index, resume_specs, faulted, baseline
        )
        restored = [
            record
            for record in checkpoints.journal.records()
            if record.get("action") == "restored"
        ]
        fractions = [
            float(record["recompute_fraction"])
            for record in restored
            if record.get("recompute_fraction") is not None
        ]
        # The recompute bound applies to the killed spec only.  The kill
        # breaks the whole pool, so a bystander whose chunk was in flight
        # also resumes — from whatever early checkpoint it had reached —
        # and its fraction says nothing about the victim's resume point.
        # Bystanders are still held to bit-identical results above.
        killed = {
            record["probe_key"]
            for record in injector.fired_events()
            if record["event"]["kind"] == "worker_kill_midrun"
        }
        victim_keys = {
            content_key(spec)
            for spec in resume_specs
            if spec_fault_key(spec) in killed
        }
        victim_fractions = [
            float(record["recompute_fraction"])
            for record in restored
            if record.get("key") in victim_keys
            and record.get("recompute_fraction") is not None
        ]
        if not restored:
            report.errors.append(
                f"round {round_index}: kill-resume produced no checkpoint "
                "restore (the retried spec recomputed cold)"
            )
        elif victim_keys and not victim_fractions:
            report.errors.append(
                f"round {round_index}: the killed spec did not resume from "
                "its checkpoint (only bystanders did)"
            )
        elif (
            victim_fractions
            and sum(victim_fractions) / len(victim_fractions) >= 0.5
        ):
            report.errors.append(
                f"round {round_index}: the killed spec recomputed "
                f"{sum(victim_fractions) / len(victim_fractions):.2f} of its "
                "instructions on resume (expected <0.5)"
            )
        report.resumed_specs += len(restored)
        report.recompute_fractions.extend(fractions)
        summary = _finish_phase(report, injector)
        summary["checkpoints"] = checkpoints.journal.counters()
        summary["recompute_fractions"] = fractions
        summary["victim_recompute_fractions"] = victim_fractions
    finally:
        if not summary:
            _finish_phase(report, injector)
        uninstall_checkpoint_runtime()
        store.close()

    # Sub-phase 2: the victim's only checkpoint is torn before the kill —
    # resume must degrade to a (bit-identical) cold recompute.  The victim
    # runs in an explicit fork child (a one-spec grid would execute inline
    # in the orchestrator, where kill faults refuse to fire); the parent
    # plays the scheduler's retry role: child SIGKILLed → run it again.
    torn_dir = phase_dir / "torn"
    victim = resume_specs[0]
    torn_store_path = str(torn_dir / "store")
    torn_checkpoints = install_checkpoint_runtime(
        torn_dir / "ckpt", _RESUME_CHECKPOINT_EVERY
    )
    torn_injector = install_plan(
        generate_plan(
            torn_seed,
            [spec_fault_key(victim)],
            kinds=RESUME_KINDS,
            checkpoint_writes_expected=1,  # Tear the very first write.
            kill_progress=0.0,             # Kill right after it lands.
            id_prefix=f"r{round_index}-resume-torn-",
        ),
        root=torn_dir,
    )
    torn_summary: Dict[str, object] = {}
    try:
        context = multiprocessing.get_context("fork")
        exit_codes: List[Optional[int]] = []
        for _attempt in range(3):
            child = context.Process(
                target=_run_spec_in_child, args=(victim, torn_store_path)
            )
            child.start()
            child.join(timeout=120)
            if child.is_alive():  # pragma: no cover - hang safety net
                child.kill()
                child.join()
            exit_codes.append(child.exitcode)
            if child.exitcode == 0:
                break
        if exit_codes[0] != -signal.SIGKILL:
            report.errors.append(
                f"round {round_index}: torn sub-phase first attempt exited "
                f"{exit_codes[0]} (expected SIGKILL from the injected fault)"
            )
        if exit_codes[-1] != 0:
            report.errors.append(
                f"round {round_index}: torn sub-phase never completed "
                f"(exit codes: {exit_codes})"
            )
        torn_store = ResultStore(torn_store_path)
        try:
            torn_results = SerialRunner(store=torn_store).run([victim])
        finally:
            torn_store.close()
        _check_results(
            report,
            "resume-torn",
            round_index,
            [victim],
            torn_results,
            baseline[:1],
        )
        counters = torn_checkpoints.journal.counters()
        if counters["checkpoints_discarded"] == 0:
            report.errors.append(
                f"round {round_index}: torn checkpoint was never discarded "
                "(the invalid blob should have degraded to a cold recompute)"
            )
        torn_summary = _finish_phase(report, torn_injector)
        torn_summary["checkpoints"] = counters
        torn_summary["exit_codes"] = exit_codes
    finally:
        if not torn_summary:
            _finish_phase(report, torn_injector)
        uninstall_checkpoint_runtime()
    summary["torn"] = torn_summary
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
    pool_cooldown: float = 2.0,
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
            f"baseline + runner + service + resume phases"
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
                pool_cooldown,
                hang_seconds,
                slow_seconds,
            )
            resume_dir = root_dir / f"round{round_index:03d}-resume"
            detail["resume"] = _resume_phase(
                report,
                round_index,
                round_seed,
                specs[: max(2, jobs)],
                resume_dir,
                jobs,
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
