"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — simulate one (benchmark, monitor, system) triple and print the
  result summary plus filtering statistics.
* ``table2`` / ``fig9`` — regenerate the headline experiments.
* ``area`` — print the Section 7.6 area/power report.
* ``list`` — show the available benchmarks and monitors.
* ``cache`` — inspect (``stats``, ``--json`` for machine-readable
  per-shard output) or empty (``clear``) a persistent result cache, or,
  with ``--traces``, the per-machine trace and schedule store.
* ``serve`` — run the long-lived campaign server (:mod:`repro.service`):
  JSON over HTTP on localhost or a Unix socket, a bounded worker pool, a
  shared result store, and single-flight dedup of identical in-flight
  specs across clients.
* ``campaign`` — expand a declarative YAML/JSON campaign file
  (``campaign run campaign.yml``) into a spec batch and execute it
  in-process or against a running server (``--server``); ``campaign show``
  prints the expansion without running anything.
* ``fuzz`` — coverage-guided differential fuzzing (:mod:`repro.verify`):
  sample adversarial workloads and prove every engine/runner/store
  configuration agrees on them, shrinking any mismatch to a minimal repro.
* ``conformance`` — check (``run``) or re-bless (``bless``) the golden
  result-digest corpus under ``tests/golden/``.
* ``chaos`` — seeded chaos campaigns (:mod:`repro.faults`): run
  fuzz-derived batches through the parallel runner and a live campaign
  server while a deterministic :class:`~repro.faults.FaultPlan` kills
  workers, hangs simulations, breaks pools, fails store writes and cuts
  connections — then prove the surviving results are bit-identical to a
  fault-free baseline with zero lost or duplicated specs.

``fuzz`` and ``conformance`` never write to ``$REPRO_RESULT_CACHE``: the
persistent cache, when configured, is opened read-only and throwaway
(temp-directory) stores back the store-warm oracle legs.

Experiment commands accept ``--jobs N`` (fan the grid out over N worker
processes), ``--out results.json`` (persist the raw
:class:`~repro.api.ResultSet`; ``repro.api.ResultSet.load`` restores it) and
``--result-cache PATH`` (a persistent content-addressed
:class:`~repro.api.ResultStore`: re-running a grid recomputes only cells
whose inputs changed).  ``REPRO_RESULT_CACHE`` sets the default cache path.
Every command loads traces and retire schedules this machine has already
built from the trace store (``REPRO_TRACE_STORE``; ``off`` disables it).
``repro --profile-sim <command> ...`` wraps the command in ``cProfile`` and
prints the top-20 cumulative entries to stderr.
Monitors and benchmarks registered through :mod:`repro.api` are runnable by
name like the built-in ones.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from typing import List, Optional

from repro.analysis import (
    ExperimentSettings,
    fig9_aggregate,
    fig9_results,
    format_table,
    table2_aggregate,
    table2_results,
)
from repro.api import (
    ParallelRunner,
    ResultSet,
    ResultStore,
    Runner,
    RunSpec,
    SerialRunner,
    benchmark_names,
    monitor_names,
)
from repro.common.errors import ConfigurationError
from repro.system import SystemConfig
from repro.system.config import CORE_ALIASES as _CORES
from repro.system.config import TOPOLOGY_ALIASES as _TOPOLOGIES


def _add_execution_arguments(
    parser: argparse.ArgumentParser, jobs: bool = True
) -> None:
    # --jobs only belongs on grid commands; `run` is always a single spec.
    if jobs:
        parser.add_argument(
            "-j", "--jobs", type=int, default=1,
            help="worker processes for the simulation grid (default: 1, serial)",
        )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None, metavar="FILE",
        help="save the raw results as JSON (reload with ResultSet.load)",
    )
    parser.add_argument(
        "--result-cache", default=None, metavar="PATH",
        help="persistent content-addressed result cache: cells whose "
             "inputs are unchanged are served from disk (default: "
             "$REPRO_RESULT_CACHE if set; a .db/.sqlite suffix or "
             "sqlite:// scheme selects the SQLite backend)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FADE (HPCA 2014) reproduction toolkit",
    )
    parser.add_argument(
        "--profile-sim", action="store_true",
        help="run the command under cProfile and print the top-20 "
             "cumulative entries (place before the subcommand)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one monitoring run")
    run.add_argument("--benchmark", default="astar", choices=benchmark_names())
    run.add_argument("--monitor", default="memleak", choices=monitor_names())
    run.add_argument("--core", default="ooo4", choices=sorted(_CORES))
    run.add_argument("--topology", default="single", choices=sorted(_TOPOLOGIES))
    run.add_argument("--no-fade", action="store_true", help="unaccelerated system")
    run.add_argument("--blocking", action="store_true", help="disable Non-Blocking")
    run.add_argument(
        "--engine", default="event", choices=("naive", "event"),
        help="simulation engine: naive reference stepper or event-driven "
             "(default); results are bit-identical",
    )
    run.add_argument("-n", "--instructions", type=int, default=20_000)
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--warmup", type=float, default=0.5)
    _add_execution_arguments(run, jobs=False)

    for name, help_text in (
        ("table2", "regenerate Table 2 (filtering efficiency)"),
        ("fig9", "regenerate Figure 9 (FADE vs unaccelerated slowdown)"),
    ):
        exp = sub.add_parser(name, help=help_text)
        exp.add_argument("-n", "--instructions", type=int, default=12_000)
        exp.add_argument("--seed", type=int, default=7)
        _add_execution_arguments(exp)

    sub.add_parser("area", help="Section 7.6 area/power report")
    sub.add_parser("list", help="available benchmarks and monitors")

    fuzz = sub.add_parser(
        "fuzz", help="coverage-guided differential fuzzing of the simulator"
    )
    fuzz.add_argument(
        "--budget", default="50", metavar="N|Ns",
        help="campaign budget: a case count (e.g. 200) or wall-clock "
             "seconds with an 's' suffix (e.g. 60s); default 50 cases",
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--quick", action="store_true",
        help="serial oracle legs only (skip the process-pool legs)",
    )
    fuzz.add_argument(
        "--min-coverage", type=float, default=0.0, metavar="FRACTION",
        help="fail unless at least this fraction of tracked simulator "
             "states was reached (e.g. 0.9)",
    )
    fuzz.add_argument(
        "--report", type=pathlib.Path, default=pathlib.Path("fuzz-report"),
        metavar="DIR",
        help="directory for shrunken mismatch repro specs and the coverage "
             "snapshot (written on completion; default: fuzz-report)",
    )
    conformance = sub.add_parser(
        "conformance", help="golden result-digest conformance corpus"
    )
    conformance.add_argument(
        "action", choices=("run", "bless"),
        help="run: re-simulate every golden cell and diff digests; "
             "bless: rewrite the golden entries from the current code",
    )
    conformance.add_argument(
        "--corpus", type=pathlib.Path, default=None, metavar="DIR",
        help="corpus directory (default: tests/golden/ in the repository)",
    )

    cache = sub.add_parser(
        "cache", help="manage the persistent result cache and trace store"
    )
    cache.add_argument(
        "action", choices=("stats", "clear"),
        help="stats: entry count/size; clear: delete every cached result",
    )
    cache.add_argument(
        "--traces", action="store_true",
        help="act on the per-machine trace and schedule store "
             "($REPRO_TRACE_STORE, else $XDG_CACHE_HOME/repro/traces, else "
             "~/.cache/repro/traces) instead of the result cache",
    )
    cache.add_argument(
        "--result-cache", default=None, metavar="PATH",
        help="cache path or URL (default: $REPRO_RESULT_CACHE); a .db/"
             ".sqlite suffix or sqlite:// scheme selects the SQLite "
             "backend, anything else the sharded-JSON directory",
    )
    cache.add_argument(
        "--json", action="store_true",
        help="machine-readable stats: total plus per-shard entry counts "
             "and bytes (the same shape the server's /stats returns)",
    )
    cache.add_argument(
        "--server", default=None, metavar="ADDR",
        help="query a running `repro serve` (http://host:port or "
             "unix:///path) instead of opening a store: stats come from "
             "GET /stats and include the scheduler's retry/timeout/fault "
             "counters (clear is not supported over the wire)",
    )

    serve = sub.add_parser(
        "serve", help="run the long-lived campaign server"
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="TCP bind address (default: 127.0.0.1; the server has no "
             "authentication — keep it on localhost or a Unix socket)",
    )
    serve.add_argument(
        "--port", type=int, default=8787,
        help="TCP port (default: 8787; 0 picks a free port)",
    )
    serve.add_argument(
        "--socket", type=pathlib.Path, default=None, metavar="PATH",
        help="serve on a Unix socket at PATH instead of TCP",
    )
    serve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="simulation worker processes (default: CPU count)",
    )
    serve.add_argument(
        "--result-cache", default=None, metavar="PATH",
        help="shared persistent result store backing the server "
             "(default: $REPRO_RESULT_CACHE; recommended: a sqlite path "
             "like store.db — safe for many processes on one store)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection campaign with a bit-identical oracle",
    )
    chaos.add_argument(
        "--budget", default="1", metavar="N|Ns",
        help="campaign budget: a round count (e.g. 3) or wall-clock "
             "seconds with an 's' suffix (e.g. 120s); default 1 round",
    )
    chaos.add_argument(
        "--seed", type=int, default=0,
        help="fault schedules are a pure function of (seed, round)",
    )
    chaos.add_argument(
        "--root", type=pathlib.Path, default=None, metavar="DIR",
        help="artifact directory for plans, fault journals and report.json "
             "(default: a fresh temp directory, path printed on exit)",
    )
    chaos.add_argument(
        "--batch", type=int, default=8, metavar="N",
        help="fuzz-derived specs per round (default: 8)",
    )
    chaos.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="parallel-runner worker processes (default: 2)",
    )
    chaos.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="campaign-server worker processes (default: 2)",
    )
    chaos.add_argument(
        "--json", action="store_true",
        help="print the full campaign report as JSON",
    )

    campaign = sub.add_parser(
        "campaign", help="declarative YAML/JSON campaign files"
    )
    campaign.add_argument(
        "action", choices=("run", "show"),
        help="run: execute the expanded spec batch; "
             "show: print the expansion without simulating",
    )
    campaign.add_argument("file", type=pathlib.Path, help="campaign file")
    campaign.add_argument(
        "--server", default=None, metavar="ADDR",
        help="submit to a running `repro serve` (http://host:port or "
             "unix:///path) instead of executing in-process",
    )
    _add_execution_arguments(campaign)

    return parser


def _make_store(
    args: argparse.Namespace, readonly: bool = False
) -> Optional[ResultStore]:
    """The ResultStore for ``--result-cache``/$REPRO_RESULT_CACHE, if any.

    ``readonly=True`` is the verification commands' opt-out: every write
    (``put``, mkdir, corrupt-entry healing) is a no-op.  The verification
    commands do not read from the store either — cells must re-simulate —
    so for them the configured cache is acknowledged and left untouched.
    """
    path = getattr(args, "result_cache", None)
    if path is None:
        env = os.environ.get("REPRO_RESULT_CACHE", "")
        path = env or None
    return ResultStore(path, readonly=readonly) if path is not None else None


def _make_runner(jobs: int, store: Optional[ResultStore] = None) -> Runner:
    if jobs and jobs > 1:
        return ParallelRunner(jobs=jobs, store=store)
    return SerialRunner(store=store)


def _maybe_save(results: ResultSet, out: Optional[pathlib.Path]) -> int:
    """Persist results if requested; returns the command's exit status so a
    failed save is reported (the tables above are already printed)."""
    if out is None:
        return 0
    try:
        results.save(out)
    except OSError as error:
        print(f"error: could not write {out}: {error}", file=sys.stderr)
        return 1
    print(f"[{len(results)} result(s) written to {out}]")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    settings = ExperimentSettings(
        num_instructions=args.instructions,
        seed=args.seed,
        warmup_fraction=args.warmup,
    )
    config = SystemConfig(
        core_type=_CORES[args.core],
        topology=_TOPOLOGIES[args.topology],
        fade_enabled=not args.no_fade,
        non_blocking=not args.blocking,
        engine=args.engine,
    )
    spec = RunSpec(args.benchmark, args.monitor, config, settings)
    runner = SerialRunner(store=_make_store(args))
    results = runner.run([spec])
    result = results.results[0]
    print(result.summary())
    if result.fade_stats is not None:
        stats = result.fade_stats
        print(
            f"  events={stats.instruction_events} filtered={stats.filtered} "
            f"partial-short={stats.partial_short} full-handlers={stats.unfiltered_full}"
        )
        print(
            f"  stack-updates(SUU)={stats.stack_updates} "
            f"tlb-misses={stats.tlb_misses} nb-updates={stats.md_updates_committed}"
        )
    breakdown = result.handler_time_percentages()
    if breakdown:
        shares = "  ".join(f"{k}={v:.1f}%" for k, v in breakdown.items())
        print(f"  handler time: {shares}")
    for report in result.reports:
        print(f"  {report}")
    return _maybe_save(results, args.out)


def _cmd_table2(args: argparse.Namespace) -> int:
    settings = ExperimentSettings(num_instructions=args.instructions, seed=args.seed)
    results = table2_results(settings, runner=_make_runner(args.jobs, _make_store(args)))
    measured = table2_aggregate(results)
    rows = [[name, value] for name, value in measured.items()]
    print(format_table(["monitor", "filtering %"], rows,
                       "Table 2: FADE filtering efficiency"))
    return _maybe_save(results, args.out)


def _cmd_fig9(args: argparse.Namespace) -> int:
    settings = ExperimentSettings(num_instructions=args.instructions, seed=args.seed)
    results = fig9_results(settings, runner=_make_runner(args.jobs, _make_store(args)))
    data = fig9_aggregate(results)
    rows = []
    for monitor_name, per_bench in data.items():
        gmean = per_bench["gmean"]
        rows.append([monitor_name, gmean["unaccelerated"], gmean["fade"]])
    print(format_table(["monitor", "unaccelerated", "FADE"], rows,
                       "Figure 9 (gmean): slowdown vs unmonitored baseline"))
    return _maybe_save(results, args.out)


def _cmd_area(_: argparse.Namespace) -> int:
    from repro.analysis import area_power

    report = area_power()
    rows = [
        ["FADE logic", report["fade_logic"]["area_mm2"],
         report["fade_logic"]["peak_power_mw"]],
        ["MD cache", report["md_cache"]["area_mm2"],
         report["md_cache"]["peak_power_mw"]],
        ["total", report["total"]["area_mm2"],
         report["total"]["peak_power_mw"]],
    ]
    print(format_table(["block", "area mm2", "peak mW"], rows,
                       "Section 7.6 (40 nm, 2 GHz)"))
    return 0


def _cmd_list(_: argparse.Namespace) -> int:
    print("benchmarks:", " ".join(benchmark_names()))
    print("monitors:  ", " ".join(monitor_names()))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    if getattr(args, "server", None):
        from repro.service.client import ServiceClient, ServiceError

        if args.action == "clear":
            print(
                "error: `cache clear --server` is not supported: clearing "
                "a live server's store would race in-flight submissions",
                file=sys.stderr,
            )
            return 2
        try:
            stats = ServiceClient(args.server).stats()
        except (ServiceError, OSError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        if getattr(args, "json", False):
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        server_stats = stats.get("server", {})
        store_stats = stats.get("store") or {}
        print(f"server at {args.server}:")
        for key in sorted(server_stats):
            print(f"  {key}: {server_stats[key]}")
        if store_stats:
            print(
                f"  store: {store_stats.get('entries', 0)} entries, "
                f"{store_stats.get('bytes', 0)} bytes "
                f"({store_stats.get('backend', '?')})"
            )
        return 0
    from repro.api.trace_store import default_trace_store

    trace_store = default_trace_store()
    if args.traces:
        if args.action == "clear":
            removed = trace_store.clear()
            print(f"[{removed} trace store blob(s) removed from "
                  f"{trace_store.path}]")
            return 0
        trace_stats = trace_store.stats()
        if getattr(args, "json", False):
            print(json.dumps(trace_stats, indent=2, sort_keys=True))
        else:
            _print_trace_store_stats(trace_stats)
        return 0
    store = _make_store(args)
    if store is None:
        print(
            "error: no cache directory (pass --result-cache PATH or set "
            "REPRO_RESULT_CACHE; --traces selects the trace store)",
            file=sys.stderr,
        )
        return 1
    if args.action == "clear":
        removed = store.clear()
        print(f"[{removed} cached result(s) removed from {store.path}]")
        return 0
    stats = store.stats()
    stats["trace_store"] = trace_store.stats()
    if getattr(args, "json", False):
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"result cache at {stats['path']} ({stats['backend']}):")
    print(f"  entries: {stats['entries']}")
    print(f"  bytes:   {stats['bytes']}")
    _print_trace_store_stats(stats["trace_store"])
    return 0


def _print_trace_store_stats(stats: dict) -> None:
    if stats["path"] is None:
        print("trace store: off")
        return
    state = "" if stats["enabled"] else " (off: not readable or writable)"
    print(f"trace store at {stats['path']}{state}:")
    print(f"  blobs: {stats['blobs']}")
    print(f"  bytes: {stats['bytes']}")


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import logging
    import signal

    from repro.service.server import CampaignServer

    # The scheduler announces degrade/recover transitions (process pool →
    # thread fallback and back) through this logger, once per transition.
    # Give it a stderr handler unless the host app configured logging.
    service_logger = logging.getLogger("repro.service")
    if not service_logger.handlers and not logging.getLogger().handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("[repro serve] %(levelname)s: %(message)s")
        )
        service_logger.addHandler(handler)
        service_logger.setLevel(logging.INFO)

    store = _make_store(args)
    if store is None:
        print(
            "[no result store configured: in-flight dedup still applies, "
            "but nothing persists between submissions — pass "
            "--result-cache PATH (e.g. store.db) for warm re-runs]",
            file=sys.stderr,
        )
    server = CampaignServer(
        store=store,
        workers=args.workers,
        host=args.host,
        port=args.port,
        socket_path=str(args.socket) if args.socket else None,
    )

    async def main() -> None:
        await server.start()
        # SIGTERM/SIGINT request a graceful stop: the listener closes,
        # in-flight connections drain (their specs finish and are
        # journaled to the store), then the worker pool joins.
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.request_stop)
            except (NotImplementedError, RuntimeError):
                pass  # Non-Unix loop: fall back to KeyboardInterrupt.
        store_note = (
            f"store {store.path} ({store.backend})"
            if store is not None
            else "no store"
        )
        print(
            f"[repro serve] listening on {server.address} "
            f"({server.scheduler.workers} worker(s), {store_note}) — "
            "Ctrl-C to stop",
            file=sys.stderr,
        )
        try:
            await server._stop_event.wait()
        finally:
            await server.stop()

    try:
        asyncio.run(main())
        print("[repro serve] stopped (drained)", file=sys.stderr)
    except KeyboardInterrupt:
        print("[repro serve] stopped", file=sys.stderr)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.service.campaign import Campaign
    from repro.service.client import ServiceError

    try:
        campaign = Campaign.load(args.file)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.action == "show":
        print(campaign.describe())
        return 0
    try:
        results = campaign.run(
            server=args.server,
            jobs=args.jobs,
            store=_make_store(args),
        )
    except (ConfigurationError, ServiceError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    where = f"server {args.server}" if args.server else f"jobs={args.jobs}"
    print(f"campaign {campaign.name}: {len(results)} result(s) via {where}")
    rows = [
        [record.spec.benchmark, record.spec.monitor,
         record.spec.config.describe(), f"{record.result.slowdown:.2f}x"]
        for record in results.records
    ]
    print(format_table(["benchmark", "monitor", "system", "slowdown"], rows,
                       f"campaign: {campaign.name}"))
    return _maybe_save(results, args.out)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.verify.coverage import COVERAGE
    from repro.verify.fuzz import fuzz_campaign

    _note_readonly_cache(args)
    budget_text = str(args.budget).strip().lower()
    try:
        if budget_text.endswith("s"):
            seconds: Optional[float] = float(budget_text[:-1])
            budget = 1_000_000_000  # Time-bounded: the count never binds.
        else:
            seconds = None
            budget = int(budget_text)
        if budget <= 0 or (seconds is not None and seconds <= 0):
            raise ValueError("budget must be positive")
    except ValueError:
        print(
            f"error: invalid --budget {args.budget!r}: expected a positive "
            "case count (e.g. 200) or wall-clock seconds with an 's' "
            "suffix (e.g. 60s)",
            file=sys.stderr,
        )
        return 2
    report = fuzz_campaign(
        budget=budget,
        seed=args.seed,
        seconds=seconds,
        thorough=not args.quick,
        progress=lambda line: print(line, file=sys.stderr),
    )
    print(report.summary())
    # The report directory is written on every completed campaign: the
    # coverage snapshot for trend tracking, plus one shrunken repro spec
    # per mismatch (the CI artifact on failure).
    try:
        args.report.mkdir(parents=True, exist_ok=True)
        (args.report / "coverage.json").write_text(
            json.dumps(
                {
                    "seed": report.seed,
                    "cases_run": report.cases_run,
                    "coverage_fraction": report.coverage_fraction,
                    "hit_states": report.hit_states,
                    "missing_states": report.missing_states,
                    "regime_counts": report.regime_counts,
                    "counters": COVERAGE.snapshot(),
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        for index, mismatch in enumerate(report.mismatches):
            (args.report / f"mismatch-{index}.json").write_text(
                json.dumps(mismatch.to_dict(), indent=2, sort_keys=True) + "\n"
            )
    except OSError as error:
        print(f"error: could not write {args.report}: {error}", file=sys.stderr)
        return 1
    if report.mismatches:
        print(
            f"[{len(report.mismatches)} shrunken repro spec(s) written to "
            f"{args.report}]",
            file=sys.stderr,
        )
        return 1
    if args.min_coverage and report.coverage_fraction < args.min_coverage:
        print(
            f"error: coverage {report.coverage_fraction:.2f} below required "
            f"{args.min_coverage:.2f}",
            file=sys.stderr,
        )
        return 1
    return 0


def _note_readonly_cache(args: argparse.Namespace) -> None:
    """Tell the user what verification commands do with the configured
    persistent cache: nothing.  Oracle and conformance legs must really
    simulate (a store hit would verify the cache, not the code), the
    store-warm legs use throwaway temp stores, and the opened store is
    readonly (``put`` no-op, no mkdir, no corrupt-entry healing) so
    verification runs can never mutate ``$REPRO_RESULT_CACHE``."""
    store = _make_store(args, readonly=True)
    if store is not None:
        print(
            f"[result cache {store.path}: not used by verification runs — "
            "cells re-simulate and nothing is written]",
            file=sys.stderr,
        )


def _cmd_conformance(args: argparse.Namespace) -> int:
    from repro.verify.corpus import ConformanceCorpus

    _note_readonly_cache(args)
    corpus = ConformanceCorpus(args.corpus)
    if args.action == "bless":
        names = corpus.bless()
        print(f"[{len(names)} golden cell(s) blessed into {corpus.path}]")
        return 0
    report = corpus.run()
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import run_chaos

    budget_text = str(args.budget).strip().lower()
    try:
        if budget_text.endswith("s"):
            seconds: Optional[float] = float(budget_text[:-1])
            rounds: Optional[int] = None
        else:
            seconds = None
            rounds = int(budget_text)
        if (rounds is not None and rounds <= 0) or (
            seconds is not None and seconds <= 0
        ):
            raise ValueError("budget must be positive")
    except ValueError:
        print(
            f"error: invalid --budget {args.budget!r}: expected a positive "
            "round count (e.g. 3) or wall-clock seconds with an 's' "
            "suffix (e.g. 120s)",
            file=sys.stderr,
        )
        return 2
    report = run_chaos(
        seed=args.seed,
        rounds=rounds,
        seconds=seconds,
        root=str(args.root) if args.root else None,
        batch=args.batch,
        jobs=args.jobs,
        workers=args.workers,
        progress=lambda line: print(f"[chaos] {line}", file=sys.stderr),
    )
    if getattr(args, "json", False):
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0 if report.ok else 1
    kinds = ", ".join(sorted(report.kinds_fired)) or "none"
    print(
        f"chaos seed={report.seed}: {report.rounds} round(s), "
        f"{report.specs_checked} spec-result(s) checked in "
        f"{report.elapsed_seconds:.1f}s"
    )
    print(
        f"  faults: {report.faults_fired}/{report.faults_planned} fired "
        f"({kinds})"
    )
    if report.ok:
        print(
            "  verdict: OK — every result bit-identical to the fault-free "
            "baseline, zero lost or duplicated specs"
        )
    else:
        print(
            f"  verdict: FAIL — {len(report.mismatches)} mismatch(es), "
            f"{report.lost} lost, {len(report.unfired)} unfired fault(s), "
            f"{len(report.errors)} harness error(s)"
        )
        for mismatch in report.mismatches[:5]:
            print(
                f"    mismatch r{mismatch['round']}[{mismatch['index']}] "
                f"{mismatch['phase']}: {mismatch['spec']}"
            )
        for event_id in report.unfired[:10]:
            print(f"    unfired: {event_id}")
        for error in report.errors[:5]:
            print(f"    error: {error}")
    print(f"  artifacts: {report.root}")
    return 0 if report.ok else 1


_COMMANDS = {
    "run": _cmd_run,
    "table2": _cmd_table2,
    "fig9": _cmd_fig9,
    "area": _cmd_area,
    "list": _cmd_list,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "campaign": _cmd_campaign,
    "fuzz": _cmd_fuzz,
    "conformance": _cmd_conformance,
    "chaos": _cmd_chaos,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigurationError as error:
        # Invalid input (settings, config, spec) is a usage error, not a
        # crash: one line naming the field, exit status 2.
        print(f"error: {error}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    command = _COMMANDS[args.command]
    if args.profile_sim:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            status = command(args)
        finally:
            profiler.disable()
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("cumulative").print_stats(20)
        return status
    return command(args)


if __name__ == "__main__":
    sys.exit(main())
