"""Shared low-level utilities: deterministic RNG streams, errors, units."""

from repro.common.errors import (
    ConfigurationError,
    ProgrammingError,
    QueueFullError,
    ReproError,
    SimulationError,
)
from repro.common.rng import DeterministicRng, derive_seed
from repro.common.units import (
    BYTE_BITS,
    KB,
    MB,
    PAGE_SIZE,
    WORD_SIZE,
    align_down,
    align_up,
    keys_in_range,
    words_in_range,
)

__all__ = [
    "BYTE_BITS",
    "ConfigurationError",
    "DeterministicRng",
    "KB",
    "MB",
    "PAGE_SIZE",
    "ProgrammingError",
    "QueueFullError",
    "ReproError",
    "SimulationError",
    "WORD_SIZE",
    "align_down",
    "align_up",
    "derive_seed",
    "keys_in_range",
    "words_in_range",
]
