"""Segmented execution: checkpointed trace segments with bit-identical
stat stitching (repro.api.segments), the segment-aware parallel scheduler,
and the pool-harvest error classification it leans on.
"""

import os
import pathlib
import time

import pytest

from repro.api import ExperimentSettings, RunSpec
from repro.api.cache import RunnerCache
from repro.api.runner import ParallelRunner, execute_spec, run_specs
from repro.api.segments import (
    open_segment_store,
    plan_boundaries,
    run_chain_to,
    run_segmented,
)
from repro.checkpoint import CheckpointStore
from repro.system.config import SystemConfig
from repro.verify.oracle import result_digest
from repro.workload.generator import generate_trace
from repro.workload.profiles import get_profile

SETTINGS = ExperimentSettings(num_instructions=2500, seed=9)
SPEC = RunSpec("astar", "addrcheck", SystemConfig(), SETTINGS)


@pytest.fixture()
def cache():
    return RunnerCache()


class TestBoundaries:
    def test_boundaries_fall_in_timed_range(self, cache):
        boundaries = plan_boundaries(SPEC, cache, 4)
        trace = cache.trace(SPEC.benchmark, SPEC.settings, None)
        warmup = int(len(trace.items) * SPEC.settings.warmup_fraction)
        assert len(boundaries) == 3
        assert all(warmup < b < len(trace.items) for b in boundaries)
        assert list(boundaries) == sorted(set(boundaries))

    def test_boundaries_nest_across_segment_counts(self, cache):
        # K=2's midpoint must be one of K=4's boundaries, so seams stored
        # by one segment count are reusable by the other.
        b2 = set(plan_boundaries(SPEC, cache, 2))
        b4 = set(plan_boundaries(SPEC, cache, 4))
        assert b2 <= b4

    def test_degenerate_counts(self, cache):
        assert plan_boundaries(SPEC, cache, 1) == ()
        assert plan_boundaries(SPEC, cache, 0) == ()


class TestSerialChain:
    def test_bit_identical_and_metadata(self, cache):
        mono = result_digest(execute_spec(SPEC, cache))
        result = run_segmented(SPEC, cache, segments=3)
        assert result_digest(result) == mono
        meta = result.segment_metadata
        assert meta["segments"] == 3
        assert meta["executed_segments"] == 3
        assert meta["resumed_from_boundary"] is None
        assert meta["per_segment"][-1]["final"]

    def test_seam_store_roundtrip_and_warm_resume(self, cache, tmp_path):
        mono = result_digest(execute_spec(SPEC, cache))
        store = CheckpointStore(tmp_path / "seams")
        try:
            cold = run_segmented(SPEC, cache, segments=4, segment_store=store)
            assert result_digest(cold) == mono
            stored = store.segment_boundaries_stored(SPEC)
            assert stored == sorted(plan_boundaries(SPEC, cache, 4))
            warm = run_segmented(SPEC, cache, segments=4, segment_store=store)
            assert result_digest(warm) == mono
            meta = warm.segment_metadata
            assert meta["resumed_from_boundary"] == stored[-1]
            assert meta["executed_segments"] == 1
        finally:
            store.close()

    def test_seams_survive_completion_sweep(self, cache, tmp_path):
        # complete() retires the plain mid-run checkpoint; seams are
        # reusable assets and must survive it (and gc).
        store = CheckpointStore(tmp_path / "seams")
        try:
            run_segmented(SPEC, cache, segments=3, segment_store=store)
            store.complete(SPEC)
            assert len(store.segment_boundaries_stored(SPEC)) == 2
            swept = store.gc()
            assert swept["removed_invalid"] == 0
            assert len(store.segment_boundaries_stored(SPEC)) == 2
        finally:
            store.close()

    def test_torn_seam_degrades_to_recompute(self, cache, tmp_path):
        mono = result_digest(execute_spec(SPEC, cache))
        store = CheckpointStore(tmp_path / "seams")
        try:
            run_segmented(SPEC, cache, segments=3, segment_store=store)
            last = store.segment_boundaries_stored(SPEC)[-1]
            key = store.segment_key(SPEC, last)
            payload = store._backend.read(key)
            store._backend.write(key, payload[: len(payload) // 2])
            result = run_segmented(SPEC, cache, segments=3, segment_store=store)
            assert result_digest(result) == mono
            # The invalid seam was resolved to the older one and rewritten.
            assert store.segment_boundaries_stored(SPEC)[-1] == last
        finally:
            store.close()

    def test_chain_to_heals_missing_intermediate_seams(self, cache, tmp_path):
        store = CheckpointStore(tmp_path / "seams")
        try:
            boundaries = list(plan_boundaries(SPEC, cache, 4))
            # Cold store: one task asked for the last boundary must chain
            # through — and store — every intervening seam.
            paused = run_chain_to(
                SPEC, cache, boundaries[:-1], boundaries[-1], store
            )
            assert paused is None
            assert store.segment_boundaries_stored(SPEC) == boundaries
            final = run_chain_to(SPEC, cache, boundaries, None, store)
            assert result_digest(final) == result_digest(
                execute_spec(SPEC, cache)
            )
        finally:
            store.close()


class TestParallelSegmented:
    def test_grid_bit_identical(self, cache):
        specs = [
            RunSpec("astar", "addrcheck", SystemConfig(), SETTINGS),
            RunSpec("mcf", "memleak", SystemConfig(), SETTINGS),
            RunSpec("astar", "taintcheck", SystemConfig(), SETTINGS),
        ]
        expected = [result_digest(execute_spec(s, cache)) for s in specs]
        runner = ParallelRunner(jobs=2, segments=3)
        results = runner.run(specs)
        assert [result_digest(r) for r in results.results] == expected

    def test_grid_reuses_stored_seams(self, cache, tmp_path):
        seam_dir = tmp_path / "seams"
        specs = [
            RunSpec("astar", "addrcheck", SystemConfig(), SETTINGS),
            RunSpec("mcf", "memleak", SystemConfig(), SETTINGS),
        ]
        expected = [result_digest(execute_spec(s, cache)) for s in specs]
        first = ParallelRunner(
            jobs=2, segments=3, segment_store=seam_dir
        ).run(specs)
        assert [result_digest(r) for r in first.results] == expected
        store = open_segment_store(seam_dir)
        for spec in specs:
            assert store.segment_boundaries_stored(spec) == sorted(
                plan_boundaries(spec, cache, 3)
            )
        second = ParallelRunner(
            jobs=2, segments=3, segment_store=seam_dir
        ).run(specs)
        assert [result_digest(r) for r in second.results] == expected

    def test_run_specs_segments_axis(self, cache):
        expected = result_digest(execute_spec(SPEC, cache))
        results = run_specs([SPEC], jobs=1, segments=2)
        assert result_digest(results.results[0]) == expected


# ----------------------------------------------------------------- harvest

def _chunk_raise_or_die(specs):
    """Pool-chunk stand-in (top-level so fork workers resolve it).

    Equal-sized chunks keep the sorted benchmark order, so the parent
    blocks on the astar chunk's future first.  The mcf chunk fails deterministically
    right away; the astar chunk waits for that failure (and for its
    delivery to the parent) and then dies hard — so the parent sees
    BrokenProcessPool *before* it ever harvests the mcf future, which is
    exactly the window where the old harvest swallowed the real error.
    """
    base = pathlib.Path(os.environ["REPRO_TEST_CHUNK_DIR"])
    if specs[0].benchmark == "mcf":
        with open(base / "attempts", "a") as handle:
            handle.write("x\n")
        (base / "marker").touch()
        raise ValueError("deterministic spec failure")
    deadline = time.time() + 30
    while not (base / "marker").exists() and time.time() < deadline:
        time.sleep(0.01)
    # Give the parent time to receive the mcf chunk's exception before the
    # pool breaks, so its future carries ValueError, not pool death.
    time.sleep(1.0)
    os._exit(1)


class TestPoolHarvestClassification:
    def test_pool_break_does_not_swallow_spec_error(
        self, monkeypatch, tmp_path
    ):
        """Regression: a deterministic per-spec failure harvested during
        pool breakage must fail fast with the original exception — the old
        harvest swallowed it, retried the doomed chunk, and the serial
        fallback then silently recomputed a 'successful' grid."""
        from repro.api import runner as runner_module

        monkeypatch.setattr(
            runner_module, "_worker_run_chunk", _chunk_raise_or_die
        )
        monkeypatch.setenv("REPRO_TEST_CHUNK_DIR", str(tmp_path))
        specs = [
            RunSpec("astar", "memleak", SystemConfig(), SETTINGS),
            RunSpec("mcf", "memleak", SystemConfig(), SETTINGS),
        ]
        runner = ParallelRunner(jobs=2)
        with pytest.raises(ValueError, match="deterministic spec failure"):
            runner.run(specs)
        attempts = (tmp_path / "attempts").read_text().count("x")
        assert attempts == 1
