"""Ablation: MD cache and M-TLB sizing.

Section 6 says a sensitivity analysis (excluded from the paper for space)
found the 4 KB / 2-way MD cache with a 16-entry M-TLB to be the best
cost-performance point.  This bench reconstructs that analysis.
"""

from benchmarks.common import BENCH_RUNNER, BENCH_SETTINGS, record
from repro.analysis import format_table
from repro.analysis.experiments import run_one
from repro.analysis.stats import geometric_mean
from repro.fade.md_cache import MetadataCacheConfig
from repro.system import SystemConfig

BENCHES = ["astar", "gcc", "omnetpp", "mcf"]


def _sweep():
    rows = []
    for size_kb, tlb_entries in [(1, 16), (2, 16), (4, 16), (8, 16),
                                 (4, 4), (4, 8), (4, 32)]:
        config = SystemConfig(
            fade_enabled=True,
            md_cache=MetadataCacheConfig(
                size_bytes=size_kb * 1024, tlb_entries=tlb_entries
            ),
        )
        slowdown = geometric_mean(
            run_one(bench, "memleak", config, BENCH_SETTINGS, runner=BENCH_RUNNER).slowdown
            for bench in BENCHES
        )
        rows.append([f"{size_kb}KB", tlb_entries, slowdown])
    return rows


def test_ablation_md_cache(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    record(
        "ablation_md_cache",
        format_table(
            ["MD cache", "M-TLB entries", "MemLeak gmean slowdown"],
            rows,
            "Ablation: MD cache / M-TLB sizing (cf. Section 6)",
        ),
    )
    by_key = {(size, tlb): slowdown for size, tlb, slowdown in rows}
    # Bigger structures never hurt...
    assert by_key[("8KB", 16)] <= by_key[("1KB", 16)] * 1.02
    assert by_key[("4KB", 32)] <= by_key[("4KB", 4)] * 1.02
    # ...and the paper's 4KB/16-entry point is within a few percent of the
    # largest configuration (diminishing returns).
    assert by_key[("4KB", 16)] <= by_key[("8KB", 16)] * 1.10
