"""Exception hierarchy for the repro package, and :func:`check_int`, the
integer check every config class raises its :class:`ConfigurationError`
through.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything the package may raise with a single ``except`` clause.
"""

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
