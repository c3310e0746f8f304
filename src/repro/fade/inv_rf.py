"""The Invariant Register File (INV RF).

Holds monitor-specific invariant values — e.g. *unallocated / allocated /
initialized* encodings for MemCheck, or the current thread's access tag for
AtomCheck.  It is memory-mapped and programmed per application (Section 4.1);
AtomCheck's monitor software reprograms it on every time-slice switch, which
is why :meth:`write` is also available at run time.
"""

from __future__ import annotations

from typing import List

from repro.common.errors import ProgrammingError

#: Number of invariant registers; 2-bit INV ids per operand address four,
#: and the Non-Blocking/INV id field addresses the same file.  We provision
#: eight so monitors can keep call/return SUU values alongside.
INV_RF_SIZE = 8


class InvariantRegisterFile:
    """A small register file of 8-bit invariant values."""

    def __init__(self, size: int = INV_RF_SIZE) -> None:
        if size <= 0:
            raise ProgrammingError("INV RF needs at least one register")
        self.size = size
        self._values: List[int] = [0] * size
        self.writes = 0  # Reprogramming count (AtomCheck thread switches).

    def read(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise ProgrammingError(f"INV id {index} out of range 0..{self.size - 1}")
        return self._values[index]

    def write(self, index: int, value: int) -> None:
        if not 0 <= index < self.size:
            raise ProgrammingError(f"INV id {index} out of range 0..{self.size - 1}")
        if not 0 <= value <= 0xFF:
            raise ProgrammingError("invariant values are one metadata byte")
        self._values[index] = value
        self.writes += 1

    def load(self, values) -> None:
        """Program the whole file (application launch)."""
        for index, value in enumerate(values):
            self.write(index, value)

    def snapshot(self) -> tuple:
        return tuple(self._values)

