"""The resilience layer end-to-end: scheduler deadlines/retries and the
pool-rebuild policy, client disconnect/reconnect semantics,
health/stats surfacing, graceful signal shutdown of ``repro serve``, and
one full chaos round as an integration check."""

import asyncio
import dataclasses
import json
import logging
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import cli
from repro.api import (
    ExperimentSettings,
    ParallelRunner,
    ResultStore,
    spec_grid,
)
from repro.api.runner import _terminate_pool, new_worker_pool
from repro.common.errors import ServiceDisconnected, SpecTimeout
from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    generate_plan,
    install_plan,
    spec_fault_key,
    uninstall_plan,
)
from repro.service import CampaignServer, ServiceClient, ServiceError
from repro.service.scheduler import SpecScheduler
from repro.system.config import SystemConfig

TINY = ExperimentSettings(num_instructions=1500, seed=11)

GRID = spec_grid(
    ["astar", "mcf"],
    ["memleak", "addrcheck"],
    [SystemConfig()],
    TINY,
)


@pytest.fixture(autouse=True)
def _clean_injector():
    uninstall_plan()
    yield
    uninstall_plan()


def run_async(coroutine):
    return asyncio.run(coroutine)


class TestSchedulerDeadlines:
    def test_hang_times_out_and_retry_recovers(self, tmp_path):
        # The victim hangs past the deadline once; the retry (the fault is
        # claimed, so it cannot refire) computes the correct result.
        install_plan(FaultPlan(
            events=(FaultEvent(
                "e0", "worker_hang", "worker",
                key=spec_fault_key(GRID[0]), param=0.4,
            ),),
            seed=0,
        ), root=tmp_path / "faults")
        scheduler = SpecScheduler(workers=1, spec_timeout=0.25)

        async def main():
            return await scheduler.execute(GRID[0])

        outcome = run_async(main())
        scheduler.shutdown()
        reference = ParallelRunner(jobs=1).run(GRID[:1])
        assert outcome.result.to_dict() == (
            reference.records[0].result.to_dict()
        )
        stats = scheduler.stats()
        assert stats["timeouts"] >= 1
        assert stats["retries"] >= 1

    def test_deadline_exhaustion_raises_spec_timeout(self):
        # Every attempt blows the deadline -> SpecTimeout reaches the
        # caller and the error is counted.
        from repro.faults import RetryPolicy

        scheduler = SpecScheduler(
            workers=1,
            spec_timeout=0.01,
            retry_policy=RetryPolicy(
                attempts=2, base_delay=0.01, max_delay=0.01
            ),
        )
        slow = GRID[0].replace(
            settings=dataclasses.replace(TINY, num_instructions=400_000)
        )

        async def main():
            return await scheduler.execute(slow)

        with pytest.raises(SpecTimeout, match="deadline"):
            run_async(main())
        scheduler.shutdown()
        stats = scheduler.stats()
        assert stats["timeouts"] >= 2
        assert stats["errors"] == 1


class TestGracefulStopDeadline:
    def test_stop_does_not_wait_on_a_wedged_simulation(self, tmp_path):
        # The victim's first attempt hangs for 5 s, is abandoned at its
        # 0.2 s deadline and keeps a worker busy.  A graceful stop must
        # return within its drain budget and leave no worker alive.
        install_plan(FaultPlan(
            events=(FaultEvent(
                "e0", "worker_hang", "worker",
                key=spec_fault_key(GRID[0]), param=5.0,
            ),),
            seed=0,
        ), root=tmp_path / "faults")
        scheduler = SpecScheduler(workers=2, spec_timeout=0.2)
        server = CampaignServer(
            scheduler=scheduler, socket_path=str(tmp_path / "serve.sock")
        )

        async def main():
            await server.start()
            work = asyncio.ensure_future(scheduler.execute(GRID[0]))
            deadline = time.monotonic() + 30.0
            while scheduler.timeouts == 0 and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            assert scheduler.timeouts >= 1
            workers = list(scheduler._executor._processes.values())
            started = time.monotonic()
            await server.stop(drain_timeout=0.5)
            elapsed = time.monotonic() - started
            await asyncio.gather(work, return_exceptions=True)
            return workers, elapsed

        workers, elapsed = run_async(main())
        assert len(workers) == 2
        assert elapsed < 2.0
        assert not any(worker.is_alive() for worker in workers)
        assert not (tmp_path / "serve.sock").exists()

    def _hang(self, tmp_path):
        install_plan(FaultPlan(
            events=(FaultEvent(
                "e0", "worker_hang", "worker",
                key=spec_fault_key(GRID[0]), param=5.0,
            ),),
            seed=0,
        ), root=tmp_path / "faults")

    def test_stop_bounds_an_open_connection_on_a_hung_spec(self, tmp_path):
        # No spec_timeout: a client connection streams a spec whose worker
        # hangs for 5 s.  Neither the connection drain nor the listener's
        # close (which, since Python 3.12.1, waits for open connections)
        # may hold the stop past its budget.
        self._hang(tmp_path)
        socket_path = str(tmp_path / "serve.sock")
        scheduler = SpecScheduler(workers=1)
        server = CampaignServer(scheduler=scheduler, socket_path=socket_path)

        async def main():
            await server.start()
            reader, writer = await asyncio.open_unix_connection(socket_path)
            body = json.dumps({"specs": [GRID[0].to_dict()]}).encode()
            writer.write(
                b"POST /run HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % len(body) + body
            )
            await writer.drain()
            deadline = time.monotonic() + 30.0
            while scheduler.inflight == 0 and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.3)  # The worker is in its hang.
            assert scheduler.inflight == 1
            assert server._connections
            workers = list(scheduler._executor._processes.values())
            started = time.monotonic()
            await server.stop(drain_timeout=0.5)
            elapsed = time.monotonic() - started
            writer.close()
            return workers, elapsed

        workers, elapsed = run_async(main())
        assert elapsed < 2.0
        assert not any(worker.is_alive() for worker in workers)
        assert not (tmp_path / "serve.sock").exists()

    def test_stop_builds_no_pool_for_swept_work(self, tmp_path):
        # One worker, four distinct specs in flight: the first runs (and
        # hangs), two wait in the executor's call queue, the last is still
        # pending and the stop's teardown cancels it.  That cancellation
        # must stand: no retry may build a fresh pool after the stop.
        self._hang(tmp_path)
        before = {child.pid for child in multiprocessing.active_children()}
        scheduler = SpecScheduler(workers=1)
        server = CampaignServer(
            scheduler=scheduler, socket_path=str(tmp_path / "serve.sock")
        )

        async def main():
            await server.start()
            work = [
                asyncio.ensure_future(scheduler.execute(spec))
                for spec in GRID
            ]
            await asyncio.sleep(0.3)
            assert scheduler.inflight == 4
            await server.stop(drain_timeout=0)
            await asyncio.sleep(0.5)  # Past the retry backoff.
            return await asyncio.gather(*work, return_exceptions=True)

        outcomes = run_async(main())
        assert all(
            isinstance(outcome, asyncio.CancelledError) for outcome in outcomes
        )
        assert scheduler._executor is None
        after = {child.pid for child in multiprocessing.active_children()}
        assert after <= before


def _mark_and_sleep(directory):
    """Pool task: record this worker's pid, then stay busy."""
    (pathlib.Path(directory) / str(os.getpid())).touch()
    time.sleep(30)


class TestWorkerSignals:
    def test_a_dying_pool_does_not_signal_the_server(self, tmp_path):
        # When a worker dies, the executor SIGTERMs the survivors.  Forked
        # from an event loop that handles SIGTERM (as ``repro serve``'s
        # does), a survivor must die of it, not run the server's handler
        # through the inherited wakeup fd.
        fired = []

        async def main():
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(signal.SIGTERM, fired.append, "SIGTERM")
            pool = new_worker_pool(2, persist=False)
            workers = []
            try:
                futures = [
                    asyncio.wrap_future(pool.submit(_mark_and_sleep, tmp_path))
                    for _ in range(2)
                ]
                deadline = time.monotonic() + 30.0
                while (
                    len(list(tmp_path.iterdir())) < 2
                    and time.monotonic() < deadline
                ):
                    await asyncio.sleep(0.01)
                workers = list(pool._processes.values())
                assert len(workers) == 2
                os.kill(workers[0].pid, signal.SIGKILL)
                await asyncio.gather(*futures, return_exceptions=True)
                deadline = time.monotonic() + 5.0
                while (
                    any(worker.is_alive() for worker in workers)
                    and time.monotonic() < deadline
                ):
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0.3)  # Let a wakeup byte arrive.
                return [worker.is_alive() for worker in workers]
            finally:
                loop.remove_signal_handler(signal.SIGTERM)
                _terminate_pool(pool)
                for worker in workers:
                    worker.kill()

        alive = run_async(main())
        assert fired == []
        assert alive == [False, False]


class TestPoolRebuild:
    def _plan(self, kind, spec):
        return FaultPlan(
            events=(FaultEvent(
                "e0", kind, FAULT_KINDS[kind], key=spec_fault_key(spec)
            ),),
            seed=0,
        )

    def _break_then_next(self, scheduler, caplog):
        """Run GRID[0] (the fault's victim), then GRID[1]; both results
        must equal the in-process runner's."""
        reference = ParallelRunner(jobs=1).run(GRID[:2])

        async def main():
            broken = await scheduler.execute(GRID[0])
            fresh = scheduler._executor
            retries = scheduler.retries
            following = await scheduler.execute(GRID[1])
            return broken, fresh, retries, following

        with caplog.at_level(logging.WARNING, logger="repro.service"):
            broken, fresh, retries, following = run_async(main())
        try:
            for outcome, want in zip((broken, following), reference.results):
                assert outcome.result.to_dict() == want.to_dict()
            stats = scheduler.stats()
            assert stats["pool_rebuilds"] == 1
            assert stats["retries"] == retries == 1
            # The next spec ran at once on the fresh process pool: no
            # cooldown, no second rebuild.
            assert isinstance(fresh, ProcessPoolExecutor)
            assert scheduler._executor is fresh
            rebuild_logs = [
                record for record in caplog.records
                if "process pool broke" in record.message
            ]
            assert len(rebuild_logs) == 1
        finally:
            scheduler.shutdown()
        return stats

    def test_injected_pool_broken_rebuilds_the_pool(self, caplog):
        install_plan(self._plan("pool_broken", GRID[0]))
        stats = self._break_then_next(SpecScheduler(workers=1), caplog)
        assert stats["faults_injected"] == 1

    def test_worker_sigkill_rebuilds_the_pool(self, tmp_path, caplog):
        # The claim must live on disk: the worker that fires it dies.
        injector = install_plan(
            self._plan("worker_crash", GRID[0]), root=tmp_path / "faults"
        )
        self._break_then_next(SpecScheduler(workers=1), caplog)
        assert injector.summary()["fired"] == 1

    def test_concurrent_breaks_rebuild_once(self, tmp_path):
        # A SIGKILLed worker breaks both in-flight attempts; only the first
        # to notice retires the pool, and the sibling retries on the fresh
        # pool instead of tearing it down.
        install_plan(
            self._plan("worker_crash", GRID[0]), root=tmp_path / "faults"
        )
        scheduler = SpecScheduler(workers=2)

        async def main():
            return await asyncio.gather(
                *[scheduler.execute(spec) for spec in GRID[:2]]
            )

        try:
            outcomes = run_async(main())
        finally:
            scheduler.shutdown()
        reference = ParallelRunner(jobs=1).run(GRID[:2])
        for outcome, want in zip(outcomes, reference.results):
            assert outcome.result.to_dict() == want.to_dict()
        stats = scheduler.stats()
        assert stats["pool_rebuilds"] == 1
        assert stats["computed"] == 2 and stats["errors"] == 0

    def test_unbuildable_pool_fails_the_spec_and_server_keeps_serving(
        self, tmp_path, monkeypatch
    ):
        from repro.faults import RetryPolicy
        from repro.api import runner as runner_module

        def refuse(workers, persist=True):
            raise OSError("fork refused: resource temporarily unavailable")

        scheduler = SpecScheduler(
            workers=1,
            retry_policy=RetryPolicy(
                attempts=2, base_delay=0.01, max_delay=0.01
            ),
        )
        instance = CampaignServer(
            socket_path=str(tmp_path / "server.sock"), scheduler=scheduler
        )
        address = instance.start_background()
        try:
            client = ServiceClient(address)
            monkeypatch.setattr(runner_module, "new_worker_pool", refuse)
            with pytest.raises(ServiceError) as info:
                client.run_specs(GRID[:1], reconnect=False)
            assert "cannot build a process pool" in str(info.value)
            assert "fork refused" in str(info.value)
            assert scheduler.stats()["errors"] == 1
            assert client.health()["status"] == "ok"
            # Once pools can be built again the same server answers.
            monkeypatch.undo()
            results = client.run_specs(GRID[1:2])
            reference = ParallelRunner(jobs=1).run(GRID[1:2])
            assert results.to_dict() == reference.to_dict()
            assert scheduler.stats()["errors"] == 1
        finally:
            instance.stop_background()


@pytest.fixture
def server(tmp_path):
    """A background campaign server on a Unix socket with a SQLite store
    and a one-worker process pool, forked on the first computation (a few
    milliseconds)."""
    store = ResultStore(tmp_path / "server.db")
    instance = CampaignServer(
        store=store,
        socket_path=str(tmp_path / "server.sock"),
        scheduler=SpecScheduler(store=store, workers=1),
    )
    address = instance.start_background()
    yield instance, address
    instance.stop_background()


class TestClientDisconnect:
    def _disconnect_plan(self, ordinal=1):
        return FaultPlan(
            events=(FaultEvent(
                "e0", "server_disconnect", "server.stream", at=ordinal
            ),),
            seed=0,
        )

    def test_submit_raises_service_disconnected(self, server):
        _, address = server
        install_plan(self._disconnect_plan(ordinal=2))
        client = ServiceClient(address)
        with pytest.raises(ServiceDisconnected) as info:
            list(client.submit(GRID))
        # The exception carries what DID complete, keyed by batch index.
        assert isinstance(info.value.completed, dict)
        for index, event in info.value.completed.items():
            assert 0 <= index < len(GRID)
            assert event["event"] == "spec"

    def test_run_specs_reconnects_and_resumes(self, server):
        _, address = server
        reference = ParallelRunner(jobs=1).run(GRID)
        install_plan(self._disconnect_plan(ordinal=2))
        client = ServiceClient(address)
        results = client.run_specs(GRID)
        assert len(results.records) == len(GRID)
        for got, want in zip(results.records, reference.records):
            assert got.spec == want.spec
            assert got.result.to_dict() == want.result.to_dict()
        # The resume was idempotent: nothing was computed twice (the
        # resubmitted prefix answered warm from the store).
        stats = ServiceClient(address).stats()
        assert stats["server"]["computed"] == len(GRID)

    def test_reconnect_false_fails_fast(self, server):
        _, address = server
        install_plan(self._disconnect_plan(ordinal=1))
        client = ServiceClient(address)
        with pytest.raises(ServiceError, match="incomplete result stream"):
            client.run_specs(GRID, reconnect=False)


class TestHealthAndStats:
    def test_stats_expose_resilience_counters(self, server):
        _, address = server
        stats = ServiceClient(address).stats()
        for counter in (
            "retries", "timeouts", "faults_injected", "pool_rebuilds",
            "store_write_failures",
        ):
            assert counter in stats["server"]
        for dropped in ("degrades", "recoveries", "executor", "degraded"):
            assert dropped not in stats["server"]
        assert stats["faults"] is None  # no plan installed

    def test_stats_include_fault_summary_when_plan_active(self, server):
        _, address = server
        install_plan(FaultPlan(
            events=(FaultEvent(
                "e0", "server_disconnect", "server.stream", at=999
            ),),
            seed=0,
        ))
        stats = ServiceClient(address).stats()
        assert stats["faults"]["planned"] == 1

    def test_cache_stats_against_live_server(self, server, capsys):
        _, address = server
        status = cli.main(["cache", "stats", "--server", address, "--json"])
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert "retries" in payload["server"]
        assert "timeouts" in payload["server"]

    def test_cache_clear_against_server_refused(self, server, capsys):
        _, address = server
        status = cli.main(["cache", "clear", "--server", address])
        assert status == 2


def _child_pids(pid):
    children = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:  # field 4 of stat: ppid
            children.append(int(entry.name))
    return children


def _wait_gone(pids, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        alive = [pid for pid in pids if pathlib.Path(f"/proc/{pid}").exists()]
        if not alive:
            return True
        time.sleep(0.05)
    return not alive


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
class TestGracefulSignalShutdown:
    def test_serve_drains_on_signal(self, tmp_path, signum):
        socket_path = tmp_path / "serve.sock"
        store_path = tmp_path / "store.db"
        shm_before = set(os.listdir("/dev/shm")) if os.path.isdir(
            "/dev/shm"
        ) else set()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            pathlib.Path(__file__).resolve().parent.parent / "src"
        )
        env.pop("REPRO_FAULT_DIR", None)
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--socket", str(socket_path),
                "--result-cache", str(store_path),
                "--workers", "1",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and not socket_path.exists():
                assert process.poll() is None, process.stderr.read().decode()
                time.sleep(0.05)
            assert socket_path.exists(), "server never started listening"

            # Submit a batch from a background thread, then signal the
            # server while the stream is (likely still) in flight.  The
            # drain must let the in-flight connection finish normally.
            address = f"unix://{socket_path}"
            received = {}

            def submit():
                try:
                    received["results"] = ServiceClient(address).run_specs(
                        GRID, reconnect=False
                    )
                except Exception as error:  # surfaced via assert below
                    received["error"] = error

            thread = threading.Thread(target=submit)
            thread.start()
            time.sleep(0.3)  # let the batch reach the server
            workers = _child_pids(process.pid)
            process.send_signal(signum)
            stdout, stderr = process.communicate(timeout=60)
            thread.join(timeout=60)

            assert process.returncode == 0, stderr.decode()
            assert b"stopped (drained)" in stderr
            assert "error" not in received, repr(received.get("error"))
            results = received["results"]
            assert len(results.records) == len(GRID)

            # In-flight work was journaled: the store holds every spec.
            store = ResultStore(store_path)
            assert store.stats()["entries"] == len(GRID)
            store.close()

            # The listener socket is unlinked, fork workers are gone, and
            # no shared-memory segments leaked.
            assert not socket_path.exists()
            assert _wait_gone(workers), f"orphaned workers: {workers}"
            if os.path.isdir("/dev/shm"):
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    leaked = set(os.listdir("/dev/shm")) - shm_before
                    if not leaked:
                        break
                    time.sleep(0.1)
                assert not leaked, f"leaked /dev/shm entries: {leaked}"
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()


class TestChaosIntegration:
    def test_one_round_is_clean_and_deterministic(self, tmp_path):
        from repro.faults.chaos import run_chaos

        report = run_chaos(
            seed=3,
            rounds=1,
            root=str(tmp_path / "chaos"),
            batch=4,
            jobs=2,
            workers=2,
            spec_timeout=3.0,
            hang_seconds=1.0,
            slow_seconds=0.1,
        )
        assert report.ok, report.to_dict()
        assert report.faults_fired == report.faults_planned
        assert len(report.kinds_fired) >= 6
        for phase in ("runner", "service"):
            assert report.round_details[0][phase]["seconds"] > 0
        assert (tmp_path / "chaos" / "report.json").exists()
        # Fault schedules are a pure function of (seed, round): the same
        # seed plans the identical event list.
        plan_a = generate_plan(7, ["k0", "k1", "k2"], writes_expected=3)
        plan_b = generate_plan(7, ["k0", "k1", "k2"], writes_expected=3)
        assert plan_a == plan_b
