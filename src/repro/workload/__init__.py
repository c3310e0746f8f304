"""Synthetic workload substrate.

The paper evaluates on SPEC CPU2006 integer benchmarks (reference inputs) and
SPLASH/PARSEC parallel benchmarks, run under Simics/Flexus.  We have no SPARC
binaries or full-system simulator, so this package synthesises instruction
traces whose *statistics* — instruction mix, ILP, locality, call/return rate,
heap behaviour, pointer and taint density, sharing — are tuned per benchmark
to land in the ranges the paper reports (monitored IPC, queue occupancy,
unfiltered burst sizes).  See DESIGN.md section 2 for the substitution
rationale.
"""

from repro.workload.bugs import (
    atomicity_violation_trace,
    memory_leak_trace,
    taint_exploit_trace,
    uninitialized_read_trace,
    use_after_free_trace,
)
from repro.workload.generator import TraceGenerator, generate_trace
from repro.workload.heap import Allocation, HeapModel
from repro.workload.profile import BenchmarkProfile
from repro.workload.profiles import (
    PARALLEL_BENCHMARKS,
    PROFILE_REGISTRY,
    SPEC_BENCHMARKS,
    TAINT_BENCHMARKS,
    benchmark_names,
    get_profile,
    register_profile,
)
from repro.workload.stack import CallStackModel, Frame
from repro.workload.trace import (
    TRACE_SCHEMA_VERSION,
    HighLevelEvent,
    HighLevelKind,
    Trace,
    TraceBuilder,
    TraceItem,
)

__all__ = [
    "Allocation",
    "BenchmarkProfile",
    "CallStackModel",
    "Frame",
    "HeapModel",
    "HighLevelEvent",
    "HighLevelKind",
    "PARALLEL_BENCHMARKS",
    "PROFILE_REGISTRY",
    "SPEC_BENCHMARKS",
    "TAINT_BENCHMARKS",
    "TRACE_SCHEMA_VERSION",
    "Trace",
    "TraceBuilder",
    "TraceGenerator",
    "TraceItem",
    "atomicity_violation_trace",
    "benchmark_names",
    "generate_trace",
    "get_profile",
    "memory_leak_trace",
    "register_profile",
    "taint_exploit_trace",
    "uninitialized_read_trace",
    "use_after_free_trace",
]
