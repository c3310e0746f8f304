"""`repro.verify` — coverage-guided differential fuzzing + conformance.

The verification subsystem manufactures adversarial workloads and proves
that every execution configuration agrees on them:

* :mod:`repro.verify.coverage` — lightweight counters over simulator states
  (engine jumps and steps, stall phases, memo hit/invalidation classes, queue
  occupancy bands); the fuzzer's steering signal.
* :mod:`repro.verify.fuzz` — a seeded workload fuzzer sampling randomized
  :class:`~repro.workload.profile.BenchmarkProfile`\\ s far outside the
  registered set, delivered as self-contained :class:`~repro.api.RunSpec`\\ s
  (inline profiles, no runtime registration needed).
* :mod:`repro.verify.oracle` — the differential oracle: per spec, runs the
  cross-product {event, naive} × {inline, memoized filter} × {serial,
  parallel} × {store-cold, store-warm} and diffs serialized
  :class:`~repro.system.results.RunResult`\\ s byte-for-byte, shrinking any
  mismatch to a minimal instruction count.
* :mod:`repro.verify.corpus` — the golden conformance corpus committed
  under ``tests/golden/`` (``repro conformance run|bless``).

Heavy modules are imported lazily: the instrumented core modules import
``repro.verify.coverage`` directly, and this package initialiser must not
drag :mod:`repro.api` in underneath them.
"""

from repro.verify.coverage import COVERAGE, TRACKED_STATES, CoverageMap

_LAZY_EXPORTS = {
    "WorkloadFuzzer": "repro.verify.fuzz",
    "FuzzCase": "repro.verify.fuzz",
    "fuzz_campaign": "repro.verify.fuzz",
    "DifferentialOracle": "repro.verify.oracle",
    "Mismatch": "repro.verify.oracle",
    "result_digest": "repro.verify.oracle",
    "ConformanceCorpus": "repro.verify.corpus",
    "conformance_specs": "repro.verify.corpus",
    "default_corpus_dir": "repro.verify.corpus",
}

__all__ = [
    "COVERAGE",
    "CoverageMap",
    "TRACKED_STATES",
    *sorted(_LAZY_EXPORTS),
]


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.verify' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
