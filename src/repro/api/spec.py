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

from repro.common.errors import ConfigurationError
from repro.monitors import MONITOR_REGISTRY, monitor_names
from repro.system.config import SystemConfig
from repro.workload.profile import BenchmarkProfile
from repro.workload.profiles import PROFILE_REGISTRY, benchmark_names, get_profile

def config_from_fields(fields: Mapping[str, object]) -> SystemConfig:
    """A :class:`SystemConfig` from a *partial* plain mapping.

    Unlike :meth:`SystemConfig.from_dict` (which round-trips complete
    serialized configs), this accepts any subset of fields over the
    defaults — the campaign-YAML idiom where a config axis names only the
    knobs it sweeps.  Core types and topologies resolve in
    :class:`SystemConfig` itself (alias or enum value); unknown field names
    raise a :class:`ConfigurationError` listing the valid ones.
    """
    valid = {field.name for field in dataclasses.fields(SystemConfig)}
    unknown = sorted(set(fields) - valid)
    if unknown:
        raise ConfigurationError(
            f"unknown system-config field(s) {', '.join(unknown)}; "
            f"valid fields: {', '.join(sorted(valid))}"
        )
    converted = dict(fields)
    for name in ("md_cache", "hierarchy"):
        nested = converted.get(name)
        if isinstance(nested, Mapping):
            # Delegate nested construction to the full round-trip parser by
            # splicing the partial mapping into a default config's dict.
            base = SystemConfig().to_dict()
            base[name].update(nested)
            converted[name] = getattr(
                SystemConfig.from_dict(base), name
            )
    return SystemConfig(**converted)


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
        count = self.num_instructions
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ConfigurationError(
                f"num_instructions must be an integer of at least 1, "
                f"got {count!r}"
            )
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
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExperimentSettings":
        return cls(**data)


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
    def from_dict(cls, data: Mapping[str, object]) -> "RunSpec":
        profile = data.get("profile")
        return cls(
            benchmark=data["benchmark"],
            monitor=data["monitor"],
            config=SystemConfig.from_dict(data["config"]),
            settings=ExperimentSettings.from_dict(data["settings"]),
            profile=(
                BenchmarkProfile.from_dict(profile)
                if profile is not None
                else None
            ),
        )

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
