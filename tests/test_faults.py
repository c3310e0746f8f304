"""The fault-injection framework: seeded plans, exactly-once probing,
retry policies, and the store/runner hardening they exercise."""

import json
import os

import pytest

from repro.api import (
    ExperimentSettings,
    ParallelRunner,
    ResultStore,
    SerialRunner,
    spec_grid,
)
from repro.common.errors import ConfigurationError
from repro.faults import (
    FAULT_DIR_ENV,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    generate_plan,
    install_plan,
    probe,
    spec_fault_key,
    suppress_faults,
    uninstall_plan,
)
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
    """Every test starts and ends with no plan installed and no env gate."""
    uninstall_plan()
    yield
    uninstall_plan()


class TestFaultPlan:
    def test_event_validation(self):
        with pytest.raises(ConfigurationError, match="kind"):
            FaultEvent("e0", "disk_on_fire", "store.write")
        with pytest.raises(ConfigurationError, match="site"):
            FaultEvent("e0", "worker_crash", "store.write")

    def test_duplicate_ids_rejected(self):
        event = FaultEvent("e0", "store_torn", "store.write", at=0)
        clash = FaultEvent("e0", "store_enospc", "store.write", at=1)
        with pytest.raises(ConfigurationError, match="duplicate"):
            FaultPlan(events=(event, clash), seed=0)

    def test_json_round_trip(self, tmp_path):
        plan = generate_plan(3, ["k0", "k1", "k2"], writes_expected=4)
        assert FaultPlan.from_json(plan.to_json()) == plan
        plan.save(tmp_path / "plan.json")
        assert FaultPlan.load(tmp_path / "plan.json") == plan

    def test_deterministic_per_seed(self):
        keys = ["a", "b", "c", "d"]
        assert generate_plan(5, keys, writes_expected=4) == generate_plan(
            5, keys, writes_expected=4
        )
        assert generate_plan(5, keys, writes_expected=4) != generate_plan(
            6, keys, writes_expected=4
        )

    def test_ordinal_events_distinct_per_site(self):
        # Two ordinal events on one site must never share an ordinal, or
        # one of them could not possibly fire.
        for seed in range(20):
            plan = generate_plan(
                seed,
                ["k0", "k1"],
                kinds=("store_enospc", "store_torn", "sqlite_busy"),
                writes_expected=8,
            )
            for site in {event.site for event in plan.events}:
                ordinals = [
                    event.at for event in plan.events
                    if event.site == site and event.key is None
                ]
                assert len(ordinals) == len(set(ordinals))

    def test_keyed_events_target_given_keys(self):
        keys = [f"spec{i}" for i in range(6)]
        plan = generate_plan(
            1, keys, kinds=("worker_crash", "worker_hang")
        )
        for event in plan.events:
            assert event.key in keys


class TestInjector:
    def test_probe_is_silent_with_no_plan(self):
        assert probe("store.write") is None
        assert probe("worker", "anything") is None

    def test_keyed_event_fires_exactly_once(self):
        plan = FaultPlan(
            events=(FaultEvent("e0", "worker_hang", "worker", key="victim"),),
            seed=0,
        )
        install_plan(plan)
        assert probe("worker", "bystander") is None
        fired = probe("worker", "victim")
        assert fired is not None and fired.kind == "worker_hang"
        assert probe("worker", "victim") is None  # claimed: never refires

    def test_ordinal_event_fires_at_nth_probe(self):
        plan = FaultPlan(
            events=(FaultEvent("e0", "store_torn", "store.write", at=2),),
            seed=0,
        )
        install_plan(plan)
        assert probe("store.write") is None
        assert probe("store.write") is None
        assert probe("store.write").kind == "store_torn"
        assert probe("store.write") is None

    def test_suppress_faults_hides_plan_and_env(self, tmp_path):
        plan = FaultPlan(
            events=(FaultEvent("e0", "store_torn", "store.write", at=0),),
            seed=0,
        )
        install_plan(plan, root=tmp_path / "faults")
        with suppress_faults():
            assert FAULT_DIR_ENV not in os.environ
            assert probe("store.write") is None  # ordinal 0 not consumed...
        assert os.environ[FAULT_DIR_ENV] == str(tmp_path / "faults")
        assert probe("store.write") is not None  # ...so it fires now

    def test_claims_shared_through_directory(self, tmp_path):
        # Two injectors over the same root model two processes: the claim
        # file makes the event fire in exactly one of them.
        root = tmp_path / "faults"
        plan = FaultPlan(
            events=(FaultEvent("e0", "store_torn", "store.write", at=0),),
            seed=0,
        )
        install_plan(plan, root=root)
        other = FaultInjector.from_dir(root)
        assert other.plan == plan
        assert other.maybe_fire("store.write") is not None
        assert probe("store.write") is None  # claimed by "the other process"
        summary = other.summary()
        assert summary["fired"] == 1 and summary["pending"] == []

    def test_env_gate_discovers_plan_lazily(self, tmp_path):
        root = tmp_path / "faults"
        plan = FaultPlan(
            events=(FaultEvent("e0", "store_torn", "store.write", at=0),),
            seed=0,
        )
        FaultInjector(plan, root=root).save()
        uninstall_plan()  # Reset module state; now only the env points at it.
        os.environ[FAULT_DIR_ENV] = str(root)
        try:
            assert probe("store.write") is not None
        finally:
            uninstall_plan()

    def test_journal_records_fired_events(self, tmp_path):
        root = tmp_path / "faults"
        plan = generate_plan(2, ["k0"], kinds=("store_torn",),
                             writes_expected=1)
        injector = install_plan(plan, root=root)
        assert probe("store.write") is not None
        records = injector.fired_events()
        assert len(records) == 1
        assert records[0]["event"]["kind"] == "store_torn"
        assert records[0]["pid"] == os.getpid()
        journal_files = list((root / "journal").glob("*.json"))
        assert len(journal_files) == 1


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=-0.1)

    def test_delay_is_capped_exponential(self):
        policy = RetryPolicy(
            attempts=6, base_delay=0.1, multiplier=2.0, max_delay=0.5,
            jitter=0.0,
        )
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        assert policy.delay(4) == pytest.approx(0.5)  # capped
        assert policy.delay(5) == pytest.approx(0.5)

    def test_jitter_bounds(self):
        import random

        policy = RetryPolicy(
            attempts=4, base_delay=0.1, multiplier=1.0, max_delay=1.0,
            jitter=0.5,
        )
        rng = random.Random(0)
        for _ in range(50):
            delay = policy.delay(1, rng=rng)
            assert 0.1 <= delay <= 0.15

    def test_call_retries_then_succeeds(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "done"

        policy = RetryPolicy(attempts=4, base_delay=0.0, max_delay=0.0)
        result = policy.call(flaky, retry_on=(OSError,), sleep=lambda _: None)
        assert result == "done" and len(attempts) == 3

    def test_call_exhausts_and_reraises(self):
        def always_fails():
            raise OSError("persistent")

        policy = RetryPolicy(attempts=3, base_delay=0.0, max_delay=0.0)
        with pytest.raises(OSError, match="persistent"):
            policy.call(
                always_fails, retry_on=(OSError,), sleep=lambda _: None
            )


class TestStoreHardening:
    def _event_plan(self, *events):
        return FaultPlan(events=tuple(events), seed=0)

    def test_enospc_is_retried_and_counted(self, tmp_path):
        install_plan(self._event_plan(
            FaultEvent("e0", "store_enospc", "store.write", at=0)
        ))
        store = ResultStore(tmp_path / "store")
        result = SerialRunner(store=store).run(GRID[:1])
        assert store.write_retries >= 1
        assert store.stats()["entries"] == 1  # retry landed the write
        warm = SerialRunner(store=store).run(GRID[:1])
        assert warm.records[0].result.to_dict() == (
            result.records[0].result.to_dict()
        )

    def test_torn_write_heals_on_next_read(self, tmp_path):
        install_plan(self._event_plan(
            FaultEvent("e0", "store_torn", "store.write", at=0, param=0.3)
        ))
        store = ResultStore(tmp_path / "store")
        baseline = SerialRunner().run(GRID[:1])
        SerialRunner(store=store).run(GRID[:1])
        # The torn entry reads as corrupt -> miss -> recompute -> rewrite.
        healed = SerialRunner(store=store).run(GRID[:1])
        assert healed.records[0].result.to_dict() == (
            baseline.records[0].result.to_dict()
        )
        assert store.get(GRID[0]) is not None

    def test_sqlite_busy_is_transient_not_corruption(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        assert store.backend == "sqlite"
        first = SerialRunner(store=store).run(GRID[:1])
        install_plan(self._event_plan(
            FaultEvent("e0", "sqlite_busy", "store.write", at=0)
        ))
        SerialRunner(store=store).run(GRID[1:2])
        # The BUSY error must not have nuked the database: the first
        # entry survives and both specs are now cached.
        assert store.get(GRID[0]) is not None
        assert store.get(GRID[1]) is not None
        assert store.write_retries >= 1
        warm = SerialRunner(store=store).run(GRID[:1])
        assert warm.records[0].result.to_dict() == (
            first.records[0].result.to_dict()
        )


class TestRunnerCrashRecovery:
    def test_worker_crash_recovers_bit_identically(self, tmp_path):
        baseline = SerialRunner().run(GRID)
        install_plan(
            generate_plan(
                4,
                [spec_fault_key(spec) for spec in GRID],
                kinds=("worker_crash",),
            ),
            root=tmp_path / "faults",
        )
        try:
            with pytest.warns(RuntimeWarning, match="process pool broke"):
                recovered = ParallelRunner(jobs=2).run(GRID)
        finally:
            uninstall_plan()
        assert len(recovered.records) == len(GRID)
        for got, want in zip(recovered.records, baseline.records):
            assert got.spec == want.spec
            assert got.result.to_dict() == want.result.to_dict()

    def test_chaos_report_shape(self, tmp_path):
        from repro.faults.chaos import ChaosReport

        report = ChaosReport(seed=0, root=str(tmp_path))
        assert not report.ok  # zero rounds is not a pass
        report.rounds = 1
        assert report.ok
        report.unfired.append("e0")
        assert not report.ok
        data = json.loads(json.dumps(report.to_dict()))
        assert data["ok"] is False and data["seed"] == 0
