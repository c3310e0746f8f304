"""Exception hierarchy for the repro package; :func:`check_int`, the
integer check every config class raises its :class:`ConfigurationError`
through; and :func:`from_mapping`, the one parser that turns a plain
mapping (JSON, YAML) into a config or spec.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything the package may raise with a single ``except`` clause.
"""

import dataclasses
import functools
import typing
from collections.abc import Mapping
from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied."""


def check_int(field: str, value: object, minimum: Optional[int] = None) -> None:
    """Reject ``value`` unless it is an ``int`` (never a ``bool``) of at
    least ``minimum``, with a :class:`ConfigurationError` naming ``field``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or (minimum is not None and value < minimum)
    ):
        bound = "" if minimum is None else f" of at least {minimum}"
        raise ConfigurationError(
            f"{field} must be an integer{bound}, got {value!r}"
        )


_ABSENT = object()


@functools.lru_cache(maxsize=None)
def _schema(cls: type) -> tuple:
    """``cls``'s field names (a dict, for order and membership), its
    nested-config fields (name -> (dataclass type, None allowed)) and the
    names of its fields with no default."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    nested = {}
    for field in fields:
        hint = hints[field.name]
        args = typing.get_args(hint)
        if type(None) in args and len(args) == 2:  # Optional[X].
            hint = args[args[0] is type(None)]
        if dataclasses.is_dataclass(hint):
            nested[field.name] = (hint, type(None) in args)
    return (
        dict.fromkeys(field.name for field in fields),
        nested,
        [field.name for field in fields
         if field.default is field.default_factory is dataclasses.MISSING],
    )


def from_mapping(cls: type, data: object, path: str = "", base: object = None):
    """The frozen dataclass ``cls`` built from the plain mapping ``data``.

    Fields ``data`` omits keep ``base``'s values (the class defaults when
    ``base`` is None).  A mapping given for a field whose type is itself a
    dataclass is merged the same way over that field's current value, so a
    partial ``hierarchy: {l1: {latency: 3}}`` changes one number.  Every
    error is a :class:`ConfigurationError` naming the dotted ``path`` of the
    offending key: an unknown key (with the valid ones), a missing required
    field, a non-mapping where a nested config belongs, or a value
    ``cls.__post_init__`` rejects.
    """
    where = path or cls.__name__
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"{where} must be a mapping, got {type(data).__name__}"
        )
    names, nested_fields, required = _schema(cls)
    prefix = f"{path}." if path else ""
    unknown = sorted(prefix + str(key) for key in data if key not in names)
    if unknown:
        raise ConfigurationError(
            f"unknown field(s) {', '.join(unknown)}; valid fields of "
            f"{where}: {', '.join(names)}"
        )
    fields = dict(data)
    for name, (nested, optional) in nested_fields.items():
        value = fields.get(name, _ABSENT)
        if value is _ABSENT or isinstance(value, nested):
            continue  # Absent, or already built.
        if isinstance(value, Mapping):
            current = None  # A complete mapping needs no value under it.
            if any(key not in value for key in _schema(nested)[0]):
                field = cls.__dataclass_fields__[name]
                if base is not None:
                    current = getattr(base, name)
                elif field.default_factory is not dataclasses.MISSING:
                    current = field.default_factory()
                else:
                    current = field.default
            fields[name] = from_mapping(nested, value, prefix + name, current)
        elif not (optional and value is None):
            raise ConfigurationError(
                f"{prefix}{name} must be a mapping, got {type(value).__name__}"
            )
    if base is not None:
        fields = {**{name: getattr(base, name) for name in names}, **fields}
    missing = [prefix + name for name in required if name not in fields]
    if missing:
        raise ConfigurationError(f"missing required field(s) {', '.join(missing)}")
    try:
        return cls(**fields)
    except (ConfigurationError, TypeError, ValueError) as error:
        if isinstance(error, ConfigurationError) and not path:
            raise
        raise ConfigurationError(f"{where}: {error}") from None


class ProgrammingError(ReproError):
    """An invalid FADE program (event table / INV RF contents) was supplied."""


class QueueFullError(ReproError):
    """An enqueue was attempted on a full bounded queue."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent state."""


class SpecTimeout(ReproError):
    """A scheduled spec blew its per-spec computation deadline."""


class ServiceError(RuntimeError):
    """The server answered, but with an error (HTTP or per-spec).

    Defined here, not beside the client, so code that only catches it
    (an in-process ``repro campaign``) does not load the socket client."""


class ServiceDisconnected(ReproError):
    """The campaign service connection dropped mid-stream.

    Carries ``completed``: the spec indices whose results arrived before
    the cut, so a resuming client resubmits only the incomplete ones
    (idempotent — content-keyed dedup plus the warm store make a
    resubmitted finished spec a cheap cache hit).
    """

    def __init__(self, message: str, completed=None) -> None:
        super().__init__(message)
        self.completed = dict(completed) if completed else {}
