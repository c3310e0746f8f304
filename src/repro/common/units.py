"""Size constants and address arithmetic helpers.

The modelled machine follows the paper's setup: 32-bit SPARC binaries, so the
application word is four bytes, and pages are 4 KB (the granularity of the
metadata TLB in Section 4.1).
"""

BYTE_BITS = 8
KB = 1024
MB = 1024 * KB

#: Application word size in bytes (32-bit binaries, Section 6).
WORD_SIZE = 4

#: Virtual page size used by the metadata TLB.
PAGE_SIZE = 4 * KB


def align_down(address: int, alignment: int) -> int:
    """Return ``address`` rounded down to a multiple of ``alignment``."""
    return address - (address % alignment)


def align_up(address: int, alignment: int) -> int:
    """Return ``address`` rounded up to a multiple of ``alignment``."""
    remainder = address % alignment
    if remainder == 0:
        return address
    return address + alignment - remainder


def words_in_range(start: int, length: int) -> range:
    """Word-aligned addresses covering ``[start, start + length)``.

    Used by the Stack-Update Unit and by monitors performing bulk metadata
    updates over a stack frame or heap object.
    """
    first = align_down(start, WORD_SIZE)
    last = align_up(start + length, WORD_SIZE)
    return range(first, last, WORD_SIZE)


def keys_in_range(table, words: range) -> list:
    """Keys of ``table`` (a dict or set keyed by word address) that lie in
    ``words`` (a :func:`words_in_range` result), in ascending address order.

    Visits ``min(len(words), len(table))`` entries: a range larger than the
    table scans the table (then sorts the hits) instead of probing every
    word, so clearing a huge, sparsely populated range stays cheap.
    """
    if len(words) <= len(table):
        return [word for word in words if word in table]
    return sorted([word for word in table if word in words])
