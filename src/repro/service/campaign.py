"""Declarative campaign files: a parameter grid in YAML (or JSON).

The config-file-driven idiom (one declarative file + subcommands over a
shared pipeline): a campaign names its axes, the toolkit expands them into
the same :class:`~repro.api.RunSpec` batch the figure harnesses build in
code, and the batch runs in-process or against a ``repro serve`` instance.

Schema (all keys optional except ``grid`` or ``specs``)::

    name: fig9-mini                  # label for logs/summaries
    settings:                        # ExperimentSettings fields
      num_instructions: 2000
      seed: 7
      warmup_fraction: 0.5
    grid:                            # Cartesian product, row-major in the
      benchmarks: [astar, mcf]       #   spec_grid() order (monitor-major)
      monitors: [memleak]
      configs:                       # partial SystemConfig mappings —
        - {}                         #   only the swept knobs; core_type /
        - fade_enabled: false        #   topology accept CLI aliases
          core_type: inorder         #   ("ooo4", "inorder", "single", ...)
    specs:                           # explicit extra cells, full
      - benchmark: gcc               #   RunSpec.to_dict() shape for
        monitor: memcheck            #   config/settings when present
        config: {...}                # (omitted fields default)

YAML needs PyYAML (present in the standard toolchain image); ``.json``
campaign files parse without it, so the feature degrades cleanly rather
than hard-importing an optional dependency.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Dict, List, Mapping, Optional, Union

from repro.common.errors import ConfigurationError
from repro.api.results import ResultSet
from repro.api.runner import ParallelRunner, run_specs
from repro.api.spec import (
    ExperimentSettings,
    RunSpec,
    config_from_fields,
    spec_grid,
)
from repro.api.store import ResultStore

#: ExperimentSettings field aliases accepted in campaign files (the CLI
#: flag spellings next to the dataclass field names).
_SETTINGS_ALIASES = {
    "instructions": "num_instructions",
    "warmup": "warmup_fraction",
}


def _parse_settings(data: Mapping[str, object]) -> ExperimentSettings:
    fields: Dict[str, object] = {}
    valid = {field.name for field in dataclasses.fields(ExperimentSettings)}
    for key, value in data.items():
        name = _SETTINGS_ALIASES.get(key, key)
        if name not in valid:
            raise ConfigurationError(
                f"unknown settings field {key!r}; valid: "
                f"{', '.join(sorted(valid | set(_SETTINGS_ALIASES)))}"
            )
        fields[name] = value
    return ExperimentSettings(**fields)


def expand_campaign(data: Mapping[str, object]) -> List[RunSpec]:
    """The spec batch a campaign mapping describes (deterministic order:
    the ``grid`` expansion first, then the explicit ``specs``)."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"campaign must be a mapping, got {type(data).__name__}"
        )
    unknown = sorted(set(data) - {"name", "settings", "grid", "specs"})
    if unknown:
        raise ConfigurationError(
            f"unknown campaign key(s) {', '.join(unknown)}; "
            "valid keys: name, settings, grid, specs"
        )
    settings = _parse_settings(data.get("settings") or {})
    specs: List[RunSpec] = []
    grid = data.get("grid")
    if grid is not None:
        unknown = sorted(set(grid) - {"benchmarks", "monitors", "configs"})
        if unknown:
            raise ConfigurationError(
                f"unknown grid key(s) {', '.join(unknown)}; "
                "valid keys: benchmarks, monitors, configs"
            )
        benchmarks = grid.get("benchmarks") or []
        monitors = grid.get("monitors") or []
        if not benchmarks or not monitors:
            raise ConfigurationError(
                "a campaign grid needs non-empty 'benchmarks' and "
                "'monitors' lists"
            )
        configs = [
            config_from_fields(fields or {})
            for fields in (grid.get("configs") or [{}])
        ]
        specs.extend(spec_grid(benchmarks, monitors, configs, settings))
    for entry in data.get("specs") or []:
        spec_fields = dict(entry)
        if "config" in spec_fields and isinstance(
            spec_fields["config"], Mapping
        ):
            spec_fields["config"] = config_from_fields(spec_fields["config"])
        if "settings" in spec_fields and isinstance(
            spec_fields["settings"], Mapping
        ):
            spec_fields["settings"] = _parse_settings(spec_fields["settings"])
        else:
            spec_fields.setdefault("settings", settings)
        try:
            specs.append(RunSpec(**spec_fields))
        except TypeError as error:
            raise ConfigurationError(f"bad campaign spec entry: {error}")
    if not specs:
        raise ConfigurationError(
            "campaign expands to zero specs: add a 'grid' or 'specs' section"
        )
    return specs


def _load_mapping(path: pathlib.Path) -> Mapping[str, object]:
    try:
        text = path.read_text()
    except OSError as error:
        raise ConfigurationError(f"cannot read campaign {path}: {error}")
    if path.suffix.lower() == ".json":
        try:
            return json.loads(text)
        except ValueError as error:
            raise ConfigurationError(f"bad JSON in {path}: {error}")
    try:
        import yaml
    except ImportError:
        raise ConfigurationError(
            f"{path}: YAML campaigns need PyYAML, which is not installed — "
            "write the campaign as .json instead"
        ) from None
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as error:
        raise ConfigurationError(f"bad YAML in {path}: {error}")
    if data is None:
        raise ConfigurationError(f"{path} is empty")
    return data


@dataclasses.dataclass
class Campaign:
    """A loaded campaign: its label and the expanded spec batch."""

    name: str
    specs: List[RunSpec]
    path: Optional[pathlib.Path] = None

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "Campaign":
        path = pathlib.Path(path)
        data = _load_mapping(path)
        return cls(
            name=str(data.get("name") or path.stem),
            specs=expand_campaign(data),
            path=path,
        )

    def run(
        self,
        server: Optional[str] = None,
        jobs: int = 1,
        store: Optional[ResultStore] = None,
        runner: Optional[ParallelRunner] = None,
    ) -> ResultSet:
        """Execute the batch: against a running server when ``server`` is
        an address (the store then lives server-side), otherwise in-process
        through the ordinary runner path."""
        if server is not None:
            from repro.service.client import ServiceClient

            return ServiceClient(server).run_specs(self.specs)
        return run_specs(
            self.specs,
            jobs=jobs,
            runner=runner,
            store=store,
        )

    def describe(self) -> str:
        lines = [f"campaign {self.name}: {len(self.specs)} spec(s)"]
        lines.extend(f"  {spec.describe()}" for spec in self.specs)
        return "\n".join(lines)


def load_campaign(path: Union[str, pathlib.Path]) -> Campaign:
    """Convenience alias for :meth:`Campaign.load`."""
    return Campaign.load(path)
