"""System configuration (Table 1 plus Section 6 defaults)."""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Mapping, Optional

from repro.common.errors import ConfigurationError, check_int, from_mapping
from repro.cores.base import CoreType
from repro.fade.md_cache import MetadataCacheConfig
from repro.mem.hierarchy import HierarchyConfig


class Topology(enum.Enum):
    """The two evaluated system organisations (Figure 8)."""

    #: One dual-threaded core shared by application and monitor threads.
    SINGLE_CORE_SMT = "single-core"
    #: Separate application and monitor cores; FADE next to the monitor core.
    TWO_CORE = "two-core"


#: Human-friendly spellings for the core/topology enums, shared by the CLI
#: flags, the campaign-YAML config parser and :class:`SystemConfig` itself
#: (enum *values* also resolve).
CORE_ALIASES: Dict[str, CoreType] = {
    "inorder": CoreType.INORDER,
    "ooo2": CoreType.OOO2,
    "ooo4": CoreType.OOO4,
}
TOPOLOGY_ALIASES: Dict[str, Topology] = {
    "single": Topology.SINGLE_CORE_SMT,
    "two-core": Topology.TWO_CORE,
}


def _resolve_enum(field: str, value, enum_type, aliases: Mapping[str, enum.Enum]):
    """``value`` as a member of ``enum_type``: members pass through, strings
    resolve as an alias or an enum value, anything else is rejected."""
    if isinstance(value, enum_type):
        return value
    if isinstance(value, str):
        member = aliases.get(value)
        if member is not None:
            return member
        try:
            return enum_type(value)
        except ValueError:
            pass
    raise ConfigurationError(
        f"{field}: unknown {field.replace('_', ' ')} {value!r}; expected one "
        f"of {', '.join(sorted(aliases))} (or an enum value)"
    )


def field_dict(obj: object) -> Dict[str, object]:
    """``dataclasses.asdict`` for a frozen dataclass of immutable values
    (scalars, enums, nested frozen dataclasses): nested dataclasses become
    dicts, and every other value is shared instead of deep-copied."""
    data = {}
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if hasattr(type(value), "__dataclass_fields__"):  # An instance.
            value = field_dict(value)
        data[field.name] = value
    return data


#: The :class:`SystemConfig` fields that take ``True`` or ``False`` only.
_BOOL_FIELDS = ("fade_enabled", "non_blocking", "stack_update_drain")


@dataclasses.dataclass(frozen=True)
class SystemConfig:
    """Everything needed to instantiate one monitoring system.

    What the paper fixes is not a field: both engines sample queue
    occupancy every cycle (Figure 3), a burst ends after a gap of more
    than 16 filterable events (Section 3.4) and the cache levels are L1
    and L2 by position (Table 1).  :meth:`from_dict` reads any subset of
    the fields, merging nested mappings over the defaults.
    """

    core_type: CoreType = CoreType.OOO4
    topology: Topology = Topology.SINGLE_CORE_SMT
    fade_enabled: bool = True
    #: Non-Blocking Filtering (Section 5); ignored when FADE is disabled.
    non_blocking: bool = True
    #: Event queue capacity; None models the infinite queue of Section 3.2.
    event_queue_capacity: Optional[int] = 32
    unfiltered_queue_capacity: int = 16
    fsq_capacity: int = 16
    md_cache: MetadataCacheConfig = dataclasses.field(
        default_factory=MetadataCacheConfig
    )
    hierarchy: HierarchyConfig = dataclasses.field(default_factory=HierarchyConfig)
    #: Drain the unfiltered event queue before SUU stack updates (Section
    #: 5.2).  Disabling this is an *unsound* ablation used to quantify what
    #: the drain requirement costs.
    stack_update_drain: bool = True
    #: Simulation engine: ``"event"`` (the default cycle-skipping core that
    #: jumps across quiet intervals) or ``"naive"`` (the reference
    #: one-cycle-per-iteration stepper).  Both produce bit-identical
    #: results; "naive" is kept as the equivalence oracle and fallback.
    engine: str = "event"
    #: Safety limit for the cycle loop.
    max_cycles: int = 500_000_000

    def __post_init__(self) -> None:
        # Coerce string spellings so every entry point (Python, CLI,
        # campaign, from_dict, service) builds the same config.
        object.__setattr__(
            self,
            "core_type",
            _resolve_enum("core_type", self.core_type, CoreType, CORE_ALIASES),
        )
        object.__setattr__(
            self,
            "topology",
            _resolve_enum("topology", self.topology, Topology, TOPOLOGY_ALIASES),
        )
        # A bool is an int, and "false" is truthy: both would run, and be
        # stored, under a key of their own.
        for name in _BOOL_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigurationError(
                    f"{name} must be true or false, got {value!r}"
                )
        if self.event_queue_capacity is not None:
            check_int("event_queue_capacity", self.event_queue_capacity, 1)
        check_int("unfiltered_queue_capacity", self.unfiltered_queue_capacity, 1)
        check_int("fsq_capacity", self.fsq_capacity, 1)
        check_int("max_cycles", self.max_cycles, 1)
        if self.engine == "vector":
            # Not aliased: the engine is part of every result-store key.
            raise ConfigurationError(
                "engine 'vector' was removed; use engine='event', which "
                "produces bit-identical results"
            )
        if self.engine not in ("naive", "event"):
            raise ConfigurationError(
                f"engine must be 'naive' or 'event', got {self.engine!r}"
            )

    @property
    def is_smt(self) -> bool:
        return self.topology is Topology.SINGLE_CORE_SMT

    def describe(self) -> str:
        fade = (
            ("non-blocking" if self.non_blocking else "blocking") + " FADE"
            if self.fade_enabled
            else "unaccelerated"
        )
        return f"{self.topology.value}/{self.core_type.value}/{fade}"

    # ------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation (enums by value, nested configs as
        dicts); the inverse of :meth:`from_dict`."""
        data = field_dict(self)
        data["core_type"] = self.core_type.value
        data["topology"] = self.topology.value
        return data

    @classmethod
    def from_dict(
        cls, data: Mapping[str, object], path: str = ""
    ) -> "SystemConfig":
        """The config a (possibly partial) plain mapping describes, over
        the defaults (:func:`~repro.common.errors.from_mapping`)."""
        return from_mapping(cls, data, path)
