"""Benchmark profile: the knobs that shape a synthetic trace.

Each knob maps to an observable the paper's evaluation depends on:

* the instruction mix and ``dep_prob`` (serialising dependences) shape the
  application IPC per core type (Figure 2);
* locality knobs shape cache miss rates and therefore IPC and burstiness
  (Figure 3);
* ``call_rate`` and frame sizes shape stack-update load (Figure 4(a));
* heap knobs shape malloc/free bursts, the dominant source of unfiltered
  events (Figure 4(b, c));
* pointer/taint densities shape filtering ratios (Table 2);
* sharing knobs shape AtomCheck's same-thread check hit rate.
"""

from __future__ import annotations

import dataclasses

from repro.common.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class BenchmarkProfile:
    """Statistical description of one benchmark.

    Instruction-mix weights need not sum to one; they are normalised.
    """

    name: str

    # --- instruction mix (relative weights) ---------------------------------
    load_weight: float = 0.22
    store_weight: float = 0.12
    alu1_weight: float = 0.18
    alu2_weight: float = 0.22
    move_weight: float = 0.08
    fp_weight: float = 0.04
    branch_weight: float = 0.12
    nop_weight: float = 0.02

    # --- ILP / core behaviour ------------------------------------------------
    #: Probability an instruction must wait for the previous one to complete.
    dep_prob: float = 0.25
    #: Probability of a front-end bubble (mispredict/fetch miss) at dispatch.
    bubble_prob: float = 0.02
    #: Dispatch bubbles drawn from a geometric with this mean, in cycles.
    bubble_mean: float = 6.0

    # --- data locality --------------------------------------------------------
    #: Number of distinct hot words in the primary working set.
    hot_set_words: int = 2048
    #: Probability a heap/global access falls in the hot set.
    locality: float = 0.92
    #: Probability a hot-set access stays near the previous one (page-level
    #: clustering: drives L1/MD-cache/M-TLB hit rates).
    page_locality: float = 0.92
    #: Probability a non-hot access is a streaming (sequential) access.
    stream_fraction: float = 0.5
    #: Fraction of memory accesses that go to the current stack frame.
    stack_access_fraction: float = 0.35

    # --- stack behaviour -------------------------------------------------------
    #: Calls per instruction (returns are emitted to balance depth).
    call_rate: float = 0.012
    frame_size_mean: int = 96
    frame_size_max: int = 512
    max_call_depth: int = 64

    # --- heap behaviour --------------------------------------------------------
    #: mallocs per instruction.
    malloc_rate: float = 0.0008
    alloc_size_mean: int = 128
    alloc_size_max: int = 4096
    #: Fraction of a fresh allocation initialised by an immediate store burst.
    init_burst_fraction: float = 0.75
    #: Probability per instruction of continuing a pending init burst.
    init_burst_intensity: float = 0.85
    #: Probability a malloc is eventually paired with a free.
    free_fraction: float = 0.95

    # --- pointers and taint -----------------------------------------------------
    #: Probability a store writes a pointer-valued register (if one exists).
    pointer_store_fraction: float = 0.10
    #: Probability a load is steered to a pointer-holding word (if any).
    pointer_load_bias: float = 0.10
    #: Probability an ALU op is pointer arithmetic (operand is a pointer reg).
    pointer_alu_fraction: float = 0.08
    #: Probability a fresh allocation's contents are tainted (external input).
    taint_source_fraction: float = 0.06
    #: Per-instruction probability of external input landing in an existing
    #: buffer (read()/recv() into a global array) — the steady taint source
    #: for benchmarks that hardly allocate.
    taint_source_rate: float = 0.0
    #: Probability a load is steered to tainted data (if any).
    taint_load_bias: float = 0.12
    #: Probability an ALU op reads a tainted register (if any).
    taint_alu_fraction: float = 0.10

    # --- legitimate unfiltered-event sources ------------------------------------
    #: Probability per memory access of touching a page whose shadow metadata
    #: has not been materialised yet (lazy shadow initialisation; the main
    #: benign source of AddrCheck unfiltered events).
    fresh_region_rate: float = 0.0015

    # --- parallelism (AtomCheck benchmarks) --------------------------------------
    parallel: bool = False
    num_threads: int = 1
    #: Fraction of heap/global accesses that go to shared words.
    shared_fraction: float = 0.0
    #: Number of distinct shared words.  Smaller sets mean more same-thread
    #: re-references within a time slice, i.e. a higher AtomCheck filter rate.
    shared_words: int = 256
    #: Instructions per time slice (threads are time-sliced on one core).
    thread_switch_period: int = 0
    #: Probability a shared-word access hits a word last touched by another
    #: thread (drives AtomCheck's long-handler rate).
    interleave_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.mix_total <= 0:
            raise ConfigurationError(f"{self.name}: instruction mix is empty")
        for field in (
            "dep_prob",
            "bubble_prob",
            "locality",
            "page_locality",
            "stream_fraction",
            "stack_access_fraction",
            "init_burst_fraction",
            "init_burst_intensity",
            "free_fraction",
            "pointer_store_fraction",
            "pointer_load_bias",
            "pointer_alu_fraction",
            "taint_source_fraction",
            "taint_source_rate",
            "taint_load_bias",
            "taint_alu_fraction",
            "fresh_region_rate",
            "shared_fraction",
            "interleave_prob",
        ):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{self.name}: {field}={value} out of [0, 1]")
        if self.parallel and self.num_threads < 2:
            raise ConfigurationError(f"{self.name}: parallel profiles need >= 2 threads")
        if self.parallel and self.thread_switch_period <= 0:
            raise ConfigurationError(f"{self.name}: parallel profiles need a time slice")

    # ------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """Plain-JSON representation; the inverse of :meth:`from_dict`.

        Used by :class:`~repro.api.spec.RunSpec` to carry *inline* profiles
        (fuzzer-synthesised benchmarks) inside the spec itself, so a spec
        round-trips into spawn-started workers without relying on runtime
        registration.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "BenchmarkProfile":
        return cls(**data)

    @property
    def mix_total(self) -> float:
        return (
            self.load_weight
            + self.store_weight
            + self.alu1_weight
            + self.alu2_weight
            + self.move_weight
            + self.fp_weight
            + self.branch_weight
            + self.nop_weight
        )
