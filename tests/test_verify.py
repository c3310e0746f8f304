"""The repro.verify subsystem: fuzzer determinism and self-contained specs,
the differential oracle (clean passes, mutation detection, shrinking), and
the coverage map's counters and steering signal.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.api import ExperimentSettings, ParallelRunner, RunSpec, execute_spec
from repro.api.cache import RunnerCache
from repro.api.store import ResultStore
from repro.common.errors import ConfigurationError
from repro.fade.pipeline import force_inline_filtering
from repro.system.config import SystemConfig
from repro.system.simulator import MonitoringSimulation
from repro.verify.coverage import COVERAGE, TRACKED_STATES, CoverageMap
from repro.verify.fuzz import (
    MONITORS,
    REGIMES,
    FuzzCase,
    WorkloadFuzzer,
    fuzz_campaign,
)
from repro.verify.oracle import (
    DifferentialOracle,
    first_divergence,
    result_digest,
)
from repro.workload.profiles import PROFILE_REGISTRY

TINY = ExperimentSettings(num_instructions=900, seed=21)


@pytest.fixture(autouse=True)
def _clean_coverage():
    """Every test starts and ends with the process-wide map off and empty."""
    COVERAGE.disable()
    COVERAGE.reset()
    yield
    COVERAGE.disable()
    COVERAGE.reset()


class TestWorkloadFuzzer:
    def test_same_seed_same_cases(self):
        a = WorkloadFuzzer(5)
        b = WorkloadFuzzer(5)
        for _ in range(20):
            case_a, case_b = a.next_case(), b.next_case()
            assert case_a.regime == case_b.regime
            assert case_a.spec == case_b.spec

    def test_different_seeds_differ(self):
        specs_a = [WorkloadFuzzer(1).next_case().spec for _ in range(1)]
        specs_b = [WorkloadFuzzer(2).next_case().spec for _ in range(1)]
        assert specs_a != specs_b

    def test_cases_are_valid_and_self_contained(self):
        fuzzer = WorkloadFuzzer(9)
        for _ in range(30):
            case = fuzzer.next_case()
            spec = case.spec
            assert spec.profile is not None
            assert spec.profile.name == spec.benchmark
            assert spec.benchmark not in PROFILE_REGISTRY
            assert spec.monitor in MONITORS
            # The profile validated in __post_init__; resolving never touches
            # the registry.
            assert spec.resolved_profile() is spec.profile

    def test_coverage_steering_shifts_weights(self):
        fuzzer = WorkloadFuzzer(3)
        case = fuzzer.next_case()
        before = fuzzer.weights()[case.regime]
        fuzzer.observe(case, ["fade.suu"])
        boosted = fuzzer.weights()[case.regime]
        assert boosted > before
        fuzzer.observe(case, [])
        assert fuzzer.weights()[case.regime] < boosted

    def test_regime_catalogue_is_stable(self):
        # The sampler must keep covering every documented regime family.
        for expected in (
            "mem_all", "mem_none", "alias_dense", "burst_gap", "inv_storm",
            "smt_edge", "queue_tiny", "stack_storm", "blocking", "no_fade",
        ):
            assert expected in REGIMES


class TestInlineProfileSpecs:
    """Satellite: fuzz profiles serialize inside the RunSpec and round-trip
    into workers — no runtime registration required anywhere."""

    def _fuzz_spec(self) -> RunSpec:
        return WorkloadFuzzer(11).next_case().spec

    def test_json_round_trip_and_hash(self):
        spec = self._fuzz_spec()
        clone = RunSpec.from_json(spec.to_json())
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert clone.profile == spec.profile

    def test_plain_specs_omit_profile_key(self):
        # Store keys hash the canonical spec JSON: adding the field must not
        # invalidate every existing cache entry for registry specs.
        spec = RunSpec("astar", "memleak", SystemConfig(), TINY)
        assert "profile" not in spec.to_dict()

    def test_executes_without_registration(self):
        spec = self._fuzz_spec()
        result = execute_spec(spec, RunnerCache())
        assert result.instructions > 0

    def test_unregistered_name_without_profile_fails(self):
        # The spec itself is rejected, before anything executes.
        with pytest.raises(ConfigurationError):
            execute_spec(
                RunSpec("fuzz/nowhere/0", "memleak", SystemConfig(), TINY),
                RunnerCache(),
            )

    def test_round_trips_into_fresh_interpreter(self, tmp_path):
        # The spawn-start concern, tested directly: a brand-new interpreter
        # (no runtime registrations, no shared memory) must reproduce the
        # parent's result bit-for-bit from the spec JSON alone.
        spec = self._fuzz_spec()
        expected = result_digest(execute_spec(spec, RunnerCache()))
        script = (
            "import json, sys\n"
            "from repro.api import RunSpec, execute_spec\n"
            "from repro.verify.oracle import result_digest\n"
            "spec = RunSpec.from_json(sys.stdin.read())\n"
            "print(result_digest(execute_spec(spec)))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(os.path.dirname(__file__), os.pardir, "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            input=spec.to_json(),
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert completed.stdout.strip() == expected

    def test_parallel_runner_executes_inline_profiles(self):
        fuzzer = WorkloadFuzzer(17)
        specs = [fuzzer.next_case().spec for _ in range(4)]
        serial = [execute_spec(spec, RunnerCache()) for spec in specs]
        parallel = ParallelRunner(jobs=2).run(specs)
        assert [result_digest(r) for r in parallel.results] == [
            result_digest(r) for r in serial
        ]


class TestDifferentialOracle:
    def test_clean_pass_on_registered_benchmark(self):
        spec = RunSpec("astar", "memleak", SystemConfig(), TINY)
        assert DifferentialOracle(thorough=False).check(spec) is None

    def test_clean_pass_on_fuzzed_specs(self):
        oracle = DifferentialOracle(thorough=False)
        fuzzer = WorkloadFuzzer(23)
        for _ in range(3):
            assert oracle.check(fuzzer.next_case().spec) is None

    def test_thorough_includes_parallel_legs(self):
        spec = RunSpec("astar", "addrcheck", SystemConfig(), TINY)
        oracle = DifferentialOracle(thorough=True)
        assert oracle.check(spec) is None
        digests, _ = oracle._all_legs(spec)
        assert "event/parallel/memo/cold" in digests
        assert "naive/parallel/inline/cold" in digests
        assert "event/serial/memo/warm" in digests
        assert len(set(digests.values())) == 1

    def test_first_divergence_paths(self):
        spec = RunSpec("astar", "memleak", SystemConfig(), TINY)
        result = execute_spec(spec, RunnerCache())
        clone = execute_spec(spec, RunnerCache())
        assert first_divergence(result, clone) == ""
        clone.cycles += 1.0
        assert first_divergence(result, clone) == "cycles"


class TestMutationDetection:
    """Acceptance criterion: a deliberately injected off-by-one in the
    event loop is caught by the oracle with a shrunken repro of at most
    2000 instructions."""

    def test_event_loop_off_by_one_is_caught_and_shrunk(self, monkeypatch):
        original = MonitoringSimulation._run_event

        def off_by_one(self):
            original(self)
            self._now += 1  # One extra cycle at the end of every event run.

        monkeypatch.setattr(MonitoringSimulation, "_run_event", off_by_one)
        oracle = DifferentialOracle(thorough=False)
        fuzzer = WorkloadFuzzer(0)
        mismatch = None
        for _ in range(10):
            mismatch = oracle.check(fuzzer.next_case().spec)
            if mismatch is not None:
                break
        assert mismatch is not None, "oracle missed the injected off-by-one"
        assert mismatch.shrunk_instructions <= 2000
        assert mismatch.divergence != ""
        assert mismatch.digest_a != mismatch.digest_b
        # The artifact the CLI writes must round-trip back into specs.
        artifact = mismatch.to_dict()
        assert RunSpec.from_dict(artifact["shrunk_spec"]).settings
        assert artifact["leg_a"] != artifact["leg_b"]

    def test_mutation_gone_after_restore(self):
        spec = RunSpec("astar", "memleak", SystemConfig(), TINY)
        assert DifferentialOracle(thorough=False).check(spec) is None


class TestCoverageMap:
    def test_disabled_by_default_and_inert(self):
        assert not COVERAGE.enabled
        execute_spec(
            RunSpec("astar", "memleak", SystemConfig(), TINY), RunnerCache()
        )
        assert COVERAGE.snapshot() == {}

    @pytest.mark.skipif(
        force_inline_filtering(), reason="memo states need the memo enabled"
    )
    def test_default_cell_hits_core_states(self):
        COVERAGE.enable()
        execute_spec(
            RunSpec("astar", "memleak", SystemConfig(), TINY), RunnerCache()
        )
        hit = set(COVERAGE.hit_states())
        for state in (
            "engine.skip",
            "engine.step",
            "fade.drain",
            "memo.value_hit",
            "memo.miss",
            "run.warmup",
            "eq.empty",
        ):
            assert state in hit, f"{state} not reached by a default cell"

    def test_enabling_does_not_change_results(self):
        spec = RunSpec("astar", "memcheck", SystemConfig(), TINY)
        baseline = result_digest(execute_spec(spec, RunnerCache()))
        COVERAGE.enable()
        instrumented = result_digest(execute_spec(spec, RunnerCache()))
        assert instrumented == baseline

    def test_fraction_and_new_states(self):
        cov = CoverageMap()
        assert cov.fraction() == 0.0
        cov.hit(TRACKED_STATES[0])
        cov.hit("extra.untracked")
        assert cov.hit_states() == [TRACKED_STATES[0]]
        assert cov.fraction() == pytest.approx(1.0 / len(TRACKED_STATES))
        assert cov.new_states([]) == [TRACKED_STATES[0]]
        assert cov.new_states([TRACKED_STATES[0]]) == []
        assert "extra.untracked" in cov.snapshot()


class TestFuzzCampaign:
    def test_small_campaign_is_clean_and_covers(self):
        report = fuzz_campaign(budget=6, seed=7, thorough=False)
        assert report.ok
        assert report.cases_run == 6
        assert report.coverage_fraction > 0.3
        assert sum(report.regime_counts.values()) == 6
        assert "zero differential mismatches" in report.summary()
        # The campaign leaves the process-wide map disabled again.
        assert not COVERAGE.enabled

    def test_time_budget_stops_early(self):
        report = fuzz_campaign(budget=10_000, seed=7, seconds=0.0, thorough=False)
        assert report.cases_run == 0


class TestReadonlyStore:
    """Satellite: the verification commands' opt-out — a readonly store
    serves reads but never writes (and never creates directories)."""

    def test_put_is_noop_and_no_mkdir(self, tmp_path):
        target = tmp_path / "user-cache"
        store = ResultStore(target, readonly=True)
        spec = RunSpec("astar", "memleak", SystemConfig(), TINY)
        result = execute_spec(spec, RunnerCache())
        store.put(spec, result)
        assert not target.exists()
        assert store.get(spec) is None

    def test_readonly_never_heals_corrupt_entries(self, tmp_path):
        # Deleting a corrupt entry is a write too: a readonly store reports
        # the miss but leaves the user's file untouched.
        spec = RunSpec("astar", "memleak", SystemConfig(), TINY)
        writer = ResultStore(tmp_path / "cache")
        entry = writer._entry_path(writer.key(spec))
        entry.parent.mkdir(parents=True, exist_ok=True)
        entry.write_text("{truncated")
        reader = ResultStore(tmp_path / "cache", readonly=True)
        assert reader.get(spec) is None
        assert entry.exists()
        assert writer.get(spec) is None  # A writable store self-heals...
        assert not entry.exists()  # ...by deleting the corrupt entry.

    def test_reads_still_served(self, tmp_path):
        spec = RunSpec("astar", "memleak", SystemConfig(), TINY)
        writer = ResultStore(tmp_path / "cache")
        result = execute_spec(spec, RunnerCache())
        writer.put(spec, result)
        reader = ResultStore(tmp_path / "cache", readonly=True)
        hit = reader.get(spec)
        assert hit is not None
        assert result_digest(hit) == result_digest(result)
