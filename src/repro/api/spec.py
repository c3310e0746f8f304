"""Declarative run specifications — the unit of work of :mod:`repro.api`.

A :class:`RunSpec` fully describes one simulation cell: benchmark, monitor,
:class:`~repro.system.config.SystemConfig` and :class:`ExperimentSettings`.
Specs are frozen and hashable (they key caches and result indexes) and
JSON-round-trippable (grids and their results persist between invocations).
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.common.errors import ConfigurationError, check_int, from_mapping
from repro.monitors import MONITOR_REGISTRY, monitor_names
from repro.system.config import SystemConfig, field_dict
from repro.workload.profile import BenchmarkProfile
from repro.workload.profiles import PROFILE_REGISTRY, benchmark_names, get_profile

@dataclasses.dataclass(frozen=True)
class ExperimentSettings:
    """Trace length and seeding shared by all experiments.

    The leading ``warmup_fraction`` of every trace is applied functionally at
    zero cost before timing starts — the analogue of the paper's SMARTS
    checkpoints with warmed caches and metadata (Section 6).
    """

    num_instructions: int = 24_000
    seed: int = 7
    warmup_fraction: float = 0.5

    def __post_init__(self) -> None:
        check_int("num_instructions", self.num_instructions, 1)
        check_int("seed", self.seed)
        warmup = self.warmup_fraction
        if (
            isinstance(warmup, bool)
            or not isinstance(warmup, (int, float))
            or not math.isfinite(warmup)
            or not 0.0 <= warmup < 1.0
        ):
            raise ConfigurationError(
                f"warmup_fraction must be a finite number in [0, 1), "
                f"got {warmup!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation; the inverse of :meth:`from_dict`."""
        return field_dict(self)

    @classmethod
    def from_dict(
        cls, data: Mapping[str, object], path: str = ""
    ) -> "ExperimentSettings":
        return from_mapping(cls, data, path)


DEFAULT_SETTINGS = ExperimentSettings()


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One simulation cell: (benchmark, monitor, system, settings).

    The benchmark and monitor are carried by *name* and resolved through the
    registries at execution time, so a spec built in one process can execute
    in another (the basis of :class:`~repro.api.runner.ParallelRunner`).
    Construction checks both names against this process's registries (the
    benchmark only when no inline ``profile`` is set); unpickling a spec in
    a pool worker does not re-run the check, so a spec valid in its parent
    stays runnable there.
    """

    benchmark: str
    monitor: str
    config: SystemConfig = dataclasses.field(default_factory=SystemConfig)
    settings: ExperimentSettings = dataclasses.field(
        default_factory=ExperimentSettings
    )
    #: Inline benchmark profile.  When set, the spec is self-contained: the
    #: benchmark name is *not* resolved through the registry — the profile
    #: travels inside the (pickled or JSON) spec, so synthetic workloads
    #: (e.g. fuzzer-sampled profiles, :mod:`repro.verify.fuzz`) execute in
    #: spawn-started pool workers that never saw the runtime registration.
    profile: Optional[BenchmarkProfile] = None

    def __post_init__(self) -> None:
        if self.monitor not in MONITOR_REGISTRY:
            raise ConfigurationError(
                f"RunSpec.monitor: unknown monitor {self.monitor!r}; "
                f"known: {', '.join(monitor_names())}"
            )
        if self.profile is None and self.benchmark not in PROFILE_REGISTRY:
            raise ConfigurationError(
                f"RunSpec.benchmark: unknown benchmark {self.benchmark!r}; "
                f"known: {', '.join(benchmark_names())}"
            )

    def replace(self, **changes: object) -> "RunSpec":
        """A copy with the given fields replaced (specs are immutable)."""
        return dataclasses.replace(self, **changes)

    def resolved_profile(self) -> BenchmarkProfile:
        """The profile this spec runs: the inline one when present,
        otherwise the registry entry for ``benchmark``."""
        if self.profile is not None:
            return self.profile
        return get_profile(self.benchmark)

    def describe(self) -> str:
        return (
            f"{self.benchmark}/{self.monitor} on {self.config.describe()} "
            f"(n={self.settings.num_instructions}, seed={self.settings.seed})"
        )

    # ------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation; the inverse of :meth:`from_dict`.

        The ``profile`` key is present only for self-contained specs, so the
        canonical JSON (and therefore every result-store key) of ordinary
        registry-resolved specs is unchanged by the field's existence.
        """
        data = {
            "benchmark": self.benchmark,
            "monitor": self.monitor,
            "config": self.config.to_dict(),
            "settings": self.settings.to_dict(),
        }
        if self.profile is not None:
            data["profile"] = self.profile.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object], path: str = "") -> "RunSpec":
        """The spec a plain mapping describes: ``benchmark`` and
        ``monitor`` are required, and a partial ``config``, ``settings``
        or ``profile`` mapping fills in from the defaults."""
        return from_mapping(cls, data, path)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))


def spec_grid(
    benchmarks: Iterable[str],
    monitors: Iterable[str],
    configs: Sequence[SystemConfig] = (),
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> List[RunSpec]:
    """The Cartesian product of the axes, in deterministic row-major order
    (monitor-major, then benchmark, then config) — the grid shape every
    figure harness uses."""
    config_list = list(configs) or [SystemConfig()]
    benchmark_list = list(benchmarks)
    return [
        RunSpec(benchmark, monitor, config, settings)
        for monitor in monitors
        for benchmark in benchmark_list
        for config in config_list
    ]
