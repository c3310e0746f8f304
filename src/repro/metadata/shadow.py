"""Byte-granular shadow (metadata) memory and shadow registers.

The modelled metadata layout is the paper's common case: **one metadata byte
per application word** (e.g. AtomCheck "maintains one byte of critical
metadata per application word", Section 6; MemCheck/AddrCheck state fits in
two bits).  The metadata address of application word ``a`` is ``a >> 2``,
which is what the MD cache is indexed with.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.common.units import PAGE_SIZE, WORD_SIZE, words_in_range

#: Address bits below the page number (4 KiB pages, ``units.PAGE_SIZE``).
PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
#: Address bits below the word index (4-byte words).
WORD_SHIFT = WORD_SIZE.bit_length() - 1
#: Words (and so metadata bytes) per page.
PAGE_WORDS = PAGE_SIZE // WORD_SIZE
#: Mask selecting a word's index within its page (after ``>> WORD_SHIFT``).
PAGE_WORD_MASK = PAGE_WORDS - 1


class WordBytes:
    """Paged map from application word address to one byte.

    ``pages`` maps a page number (``address >> PAGE_SHIFT``) to a
    ``bytearray(PAGE_WORDS)`` holding one byte per word of that page; a
    missing page means every word in it holds ``default``.  Single-word
    reads and writes are one dict lookup plus one index, and a range
    :meth:`fill` is one slice assignment per page (whole pages are dropped
    or replaced outright), so range metadata operations — a stack frame,
    a heap object, a program's static segment — cost O(pages), not
    O(words).  The ``pages`` dict's identity is stable for the object's
    lifetime: hot paths may hoist it.
    """

    def __init__(self, default: int = 0) -> None:
        if not 0 <= default <= 0xFF:
            raise ValueError("metadata bytes must fit in 8 bits")
        self.default = default
        self.pages: Dict[int, bytearray] = {}

    def read(self, address: int) -> int:
        """Byte of the word containing ``address``."""
        page = self.pages.get(address >> PAGE_SHIFT)
        if page is None:
            return self.default
        return page[(address >> WORD_SHIFT) & PAGE_WORD_MASK]

    def write(self, address: int, value: int) -> bool:
        """Set the word's byte; returns True if the value changed.  A page
        is created only by its first non-default write.  Values outside
        0..255 raise ``ValueError`` (from the bytearray) before any change."""
        number = address >> PAGE_SHIFT
        index = (address >> WORD_SHIFT) & PAGE_WORD_MASK
        page = self.pages.get(number)
        if page is None:
            if value == self.default:
                return False
            page = bytearray([self.default]) * PAGE_WORDS
            page[index] = value
            self.pages[number] = page
            return True
        if page[index] == value:
            return False
        page[index] = value
        return True

    def fill(self, start: int, length: int, value: int) -> int:
        """Set every word in ``[start, start+length)``; returns the number
        of words covered.  The contents afterwards are exactly those of one
        :meth:`write` per word."""
        full = bytes([value]) * PAGE_WORDS  # Raises ValueError past 0..255.
        words = words_in_range(start, length)
        default = self.default
        pages = self.pages
        index = words.start >> WORD_SHIFT
        end = words.stop >> WORD_SHIFT
        while index < end:
            number = index >> (PAGE_SHIFT - WORD_SHIFT)
            base = number * PAGE_WORDS
            low = index - base
            high = min(end - base, PAGE_WORDS)
            if low == 0 and high == PAGE_WORDS:
                if value == default:
                    pages.pop(number, None)
                else:
                    pages[number] = bytearray(full)
            else:
                page = pages.get(number)
                if page is None and value != default:
                    page = pages[number] = bytearray([default]) * PAGE_WORDS
                if page is not None:
                    page[low:high] = full[low:high]
            index = base + PAGE_WORDS
        return len(words)

    def items(self) -> Iterator[Tuple[int, int]]:
        """Non-default (word address, byte) pairs, unordered."""
        default = self.default
        for number, page in self.pages.items():
            base = number << PAGE_SHIFT
            for index, value in enumerate(page):
                if value != default:
                    yield base + (index << WORD_SHIFT), value

    def snapshot(self) -> Dict[int, int]:
        """Copy of the non-default contents as a plain dict."""
        return dict(self.items())

    def __len__(self) -> int:
        """Number of words holding a non-default byte."""
        default = self.default
        return sum(
            PAGE_WORDS - page.count(default) for page in self.pages.values()
        )


class ShadowMemory(WordBytes):
    """Critical metadata memory: one byte per application word.

    Reads of never-written words return ``default`` — the monitor's encoding
    of "unshadowed" state (usually *unallocated*).  Range updates (the
    Stack-Update Unit in hardware, malloc/free handlers in software) are one
    :meth:`fill`, costing O(pages).
    """

    @staticmethod
    def word_address(address: int) -> int:
        """Word-align an application byte address."""
        return address - (address % WORD_SIZE)

    # --------------------------------------------------- checkpoint protocol

    def capture_state(self) -> dict:
        """Serializable mid-run state (distinct from :meth:`snapshot`, the
        contents-only view used by equivalence tests): pages as ``bytes``."""
        return {
            "pages": {number: bytes(page) for number, page in self.pages.items()},
        }

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`capture_state`, mutating *in place*: the
        ``pages`` dict keeps its identity (the filter pipeline holds a
        direct reference)."""
        pages = {
            number: bytearray(page) for number, page in state["pages"].items()
        }
        self.pages.clear()
        self.pages.update(pages)


class ShadowRegisters:
    """One metadata byte per architectural register (the MD RF's contents)."""

    def __init__(self, num_registers: int = 32, default: int = 0) -> None:
        self.num_registers = num_registers
        self.default = default
        #: List identity is stable; the filter memo reads it directly.
        self._bytes = [default] * num_registers

    def read(self, index: int) -> int:
        return self._bytes[index]

    def write(self, index: int, value: int) -> bool:
        """Set a register's metadata byte; returns True if it changed."""
        if not 0 <= value <= 0xFF:
            raise ValueError("metadata bytes must fit in 8 bits")
        if self._bytes[index] == value:
            return False
        self._bytes[index] = value
        return True

    def snapshot(self) -> Tuple[int, ...]:
        return tuple(self._bytes)

    # --------------------------------------------------- checkpoint protocol

    def capture_state(self) -> dict:
        """Serializable mid-run state (see :class:`ShadowMemory`)."""
        return {"bytes": list(self._bytes)}

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`capture_state`; slice-assigns so the hoisted
        list identity survives."""
        self._bytes[:] = state["bytes"]
