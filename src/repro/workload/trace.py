"""Traces: dynamic instruction streams plus high-level events, as columns.

A trace is an ordered stream of :class:`TraceItem`: retired instructions
interleaved with high-level events (malloc, free, taint-source, thread
switches).  High-level events bypass FADE and are handled directly by monitor
software (Section 3.3: "The filtering accelerator does not target high-level
events, as they are infrequent and require complex handling").

A :class:`Trace` stores its items as a handful of flat ``array`` /
``memoryview`` columns (opcode, pc, operand kinds/values, stack frame
geometry, thread, high-level event payloads), one row per item, instead of
per-item :class:`~repro.isa.instruction.Instruction` /
:class:`HighLevelEvent` objects:

* **Generation** appends machine integers to columns through a
  :class:`TraceBuilder` — no frozen-dataclass construction per item
  (:class:`~repro.workload.generator.TraceGenerator` emits columns
  directly).  ``Trace(items)`` packs a list of objects the same way (the
  crafted bug traces).
* **Pickling** is a single buffer: one compact ``bytes`` payload instead
  of a per-item object graph.

Consumers that need real objects still get them: ``trace.items`` is a lazy
sequence view that materialises (and caches) each ``Instruction`` /
``HighLevelEvent`` from its row, so monitors, the bug-trace tooling and user
code read items.  The hot consumers read the columns directly and never
materialise per-item objects on the built-in path:
:meth:`repro.cores.retire.RetireModel.schedule`,
:func:`repro.system.simulator.build_plan` (one kind code per item) and the
simulator's event loop, which decodes the fields FADE filters on and the
built-in monitors' handlers take with :func:`event_fields`, and builds a
stack update's record with :meth:`Trace.stack_update`.

The column layout is versioned (:data:`TRACE_SCHEMA_VERSION`); the
content-addressed result store keys on it so cached results are invalidated
whenever the columns change meaning.
"""

from __future__ import annotations

import dataclasses
import enum
from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.isa.events import StackOp, StackUpdate
from repro.isa.instruction import Instruction, Operand, OperandKind
from repro.isa.opcodes import OpClass, known_event_ids


class HighLevelKind(enum.Enum):
    """High-level application events the monitors process in software."""

    MALLOC = "malloc"
    FREE = "free"
    #: External input arriving into a buffer (taint source for TaintCheck).
    TAINT_SOURCE = "taint_source"
    #: Time-slice switch on a shared core (reprograms AtomCheck's thread tag).
    THREAD_SWITCH = "thread_switch"
    #: End of program: monitors run their final analysis (leak reports).
    PROGRAM_EXIT = "program_exit"


@dataclasses.dataclass(frozen=True, slots=True)
class HighLevelEvent:
    """A non-instruction event delivered straight to the monitor.

    Attributes:
        kind: which high-level action occurred.
        address: start of the affected region (MALLOC/FREE/TAINT_SOURCE).
        size: size in bytes of the affected region.
        register: destination register receiving a fresh pointer (MALLOC).
        thread: the thread after a THREAD_SWITCH, else the acting thread.
        startup: program-launch setup (static segments); monitors apply the
            functional effect but charge no handler time, since in a real
            run this one-off cost amortises over billions of instructions.
    """

    kind: HighLevelKind
    address: int = 0
    size: int = 0
    register: int = 0
    thread: int = 0
    startup: bool = False


TraceItem = Union[Instruction, HighLevelEvent]

#: Version of the column layout.  Bump on any change to the columns, their
#: encoding, or their semantics — the result store includes it in every
#: cache key, so stale cached results can never be served.
TRACE_SCHEMA_VERSION = 1

#: ``kind`` column value for instructions; high-level events are
#: ``1 + HighLevelKind index``.
KIND_INSTRUCTION = 0

#: Stable op-class numbering (enum definition order).
OP_CLASSES: Tuple[OpClass, ...] = tuple(OpClass)
OP_INDEX: Dict[OpClass, int] = {op: index for index, op in enumerate(OP_CLASSES)}

HL_KINDS: Tuple[HighLevelKind, ...] = tuple(HighLevelKind)
HL_INDEX: Dict[HighLevelKind, int] = {
    kind: index for index, kind in enumerate(HL_KINDS)
}

#: Operand-kind codes in the ``flags`` column (2 bits per operand slot).
OPERAND_NONE = 0
OPERAND_REGISTER = 1
OPERAND_MEMORY = 2

#: ``flags`` bit layout: src1 kind (bits 0-1), src2 kind (bits 2-3), dest
#: kind (bits 4-5), depends-on-prev (bit 6), startup (bit 7).
SRC1_SHIFT = 0
SRC2_SHIFT = 2
DEST_SHIFT = 4
DEPENDS_BIT = 0x40
STARTUP_BIT = 0x80

#: Column order and typecodes.  The 8-byte columns come first so every
#: column starts naturally aligned when the columns are concatenated into
#: one buffer (pickle payloads).
#:
#: ``f0``-``f5`` carry the per-item payload: for instructions
#: (pc, src1 value, src2 value, dest value, frame base, frame size); for
#: high-level events (address, size, 0, 0, 0, 0).  ``op`` holds the op-class
#: index for instructions and the destination register for high-level
#: events; ``flags``/``thread`` are shared.
COLUMN_SPEC: Tuple[Tuple[str, str], ...] = (
    ("f0", "q"),
    ("f1", "q"),
    ("f2", "q"),
    ("f3", "q"),
    ("f4", "q"),
    ("f5", "q"),
    ("kind", "B"),
    ("op", "B"),
    ("flags", "B"),
    ("thread", "B"),
)

#: The item field each settable column holds, as (instruction field,
#: high-level field), for naming a value that does not fit.
_COLUMN_FIELDS: Dict[str, Tuple[str, str]] = {
    "f0": ("pc", "address"),
    "f1": ("sources[0].value", "size"),
    "f2": ("sources[1].value", "f2"),
    "f3": ("dest.value", "f3"),
    "f4": ("frame_base", "f4"),
    "f5": ("frame_size", "f5"),
    "kind": ("kind", "kind"),
    "op": ("op_class", "register"),
    "flags": ("flags", "flags"),
    "thread": ("thread", "thread"),
}

Column = Union[array, memoryview]
Columns = Dict[str, Column]

#: Event id per instruction shape, keyed by ``op << 4 | (flags & 15)`` (the
#: low nibble holds both source kinds).  A shape outside the modelled subset
#: has no key, so looking it up raises ``KeyError`` like ``event_id_for``.
EVENT_ID_BY_SHAPE: Dict[int, int] = {
    (OP_INDEX[op] << 4) | nibble: event_id
    for (op, sources), event_id in known_event_ids().items()
    for nibble in range(16)
    if (1 if nibble & 3 else 0) + (1 if nibble >> SRC2_SHIFT else 0) == sources
}

#: Per ``flags`` byte: the column (1-3: src1, src2, dest value) holding the
#: instruction's memory address, or 0 when no operand is memory.  An
#: instruction has at most one memory operand; sources come first, as in
#: ``Instruction.memory_address``.
MEMORY_SLOT: Tuple[int, ...] = tuple(
    1 if flags & 3 == OPERAND_MEMORY
    else 2 if (flags >> SRC2_SHIFT) & 3 == OPERAND_MEMORY
    else 3 if (flags >> DEST_SHIFT) & 3 == OPERAND_MEMORY
    else 0
    for flags in range(256)
)

#: Stack-update direction per op code (None for non-stack ops).
STACK_OP_BY_CODE: Tuple[Optional[StackOp], ...] = tuple(
    StackOp.CALL if op is OpClass.CALL
    else StackOp.RETURN if op is OpClass.RETURN
    else None
    for op in OP_CLASSES
)


def event_fields(
    lists: Tuple[list, ...], index: int
) -> Tuple[int, Optional[int], Optional[int], Optional[int], Optional[int]]:
    """(event id, app addr, src1 reg, src2 reg, dest reg) of instruction
    ``index``: the queue-entry fields FADE's filter reads (Figure 6(a)),
    decoded from :meth:`Trace.column_lists`.

    The simulator's warmup and event loop inline this decode;
    ``tests/test_engine_equivalence.py`` checks every event they hand FADE
    against this function."""
    flags = lists[8][index]
    slot = MEMORY_SLOT[flags]
    return (
        EVENT_ID_BY_SHAPE[(lists[7][index] << 4) | (flags & 15)],
        lists[slot][index] if slot else None,
        lists[1][index] if flags & 3 == OPERAND_REGISTER else None,
        lists[2][index] if (flags >> SRC2_SHIFT) & 3 == OPERAND_REGISTER else None,
        lists[3][index] if (flags >> DEST_SHIFT) & 3 == OPERAND_REGISTER else None,
    )


def _materialize(columns: Tuple[Column, ...], index: int) -> TraceItem:
    """The object form of item ``index`` of raw ``columns`` (in
    :data:`COLUMN_SPEC` order)."""
    f0, f1, f2, f3, f4, f5, kind_column, op, flags_column, thread = columns
    kind = kind_column[index]
    flags = flags_column[index]
    if kind != KIND_INSTRUCTION:
        return HighLevelEvent(
            kind=HL_KINDS[kind - 1],
            address=f0[index],
            size=f1[index],
            register=op[index],
            thread=thread[index],
            startup=bool(flags & STARTUP_BIT),
        )
    src1_kind = flags & 3
    src2_kind = (flags >> SRC2_SHIFT) & 3
    dest_kind = (flags >> DEST_SHIFT) & 3
    sources: Tuple[Operand, ...] = ()
    if src1_kind:
        first = Operand(
            OperandKind.REGISTER
            if src1_kind == OPERAND_REGISTER
            else OperandKind.MEMORY,
            f1[index],
        )
        if src2_kind:
            sources = (
                first,
                Operand(
                    OperandKind.REGISTER
                    if src2_kind == OPERAND_REGISTER
                    else OperandKind.MEMORY,
                    f2[index],
                ),
            )
        else:
            sources = (first,)
    dest = None
    if dest_kind:
        dest = Operand(
            OperandKind.REGISTER
            if dest_kind == OPERAND_REGISTER
            else OperandKind.MEMORY,
            f3[index],
        )
    return Instruction(
        pc=f0[index],
        op_class=OP_CLASSES[op[index]],
        sources=sources,
        dest=dest,
        frame_base=f4[index],
        frame_size=f5[index],
        thread=thread[index],
        depends_on_prev=bool(flags & DEPENDS_BIT),
    )


def _operand_kind_code(operand: Optional[Operand]) -> int:
    if operand is None:
        return OPERAND_NONE
    if operand.kind is OperandKind.REGISTER:
        return OPERAND_REGISTER
    return OPERAND_MEMORY


def _array_columns(lists: Tuple[list, ...]) -> Columns:
    """One ``array`` per column of ``lists`` (in :data:`COLUMN_SPEC` order).

    A byte column goes through bytes(): a C loop that checks the range,
    then one copy, where array("B", list) converts per item.  Values are
    checked only when a conversion fails, to name the misfit."""
    try:
        return {
            column_name: array(code, bytes(values) if code == "B" else values)
            for (column_name, code), values in zip(COLUMN_SPEC, lists)
        }
    except (OverflowError, TypeError, ValueError):
        _raise_misfit(lists)
        raise


def _raise_misfit(lists: Tuple[list, ...]) -> None:
    """Raise a ``ValueError`` naming the first item field its column cannot
    hold (a signed 64-bit or an unsigned 8-bit integer)."""
    kinds = lists[6]
    for index in range(len(kinds)):
        for (column_name, code), values in zip(COLUMN_SPEC, lists):
            value = values[index]
            low, high = (0, 1 << 8) if code == "B" else (-(1 << 63), 1 << 63)
            if isinstance(value, int) and low <= value < high:
                continue
            high_level = kinds[index] != KIND_INSTRUCTION
            raise ValueError(
                f"trace item {index} "
                f"({'a HighLevelEvent' if high_level else 'an Instruction'}): "
                f"{_COLUMN_FIELDS[column_name][high_level]}={value!r} does "
                f"not fit its column {column_name!r}, which holds integers "
                f"in [{low}, {high})"
            )


class TraceBuilder:
    """Column accumulator used by the trace generator.

    Append-only: ``add_instruction``/``add_high_level`` push one row of
    machine integers onto plain lists; ``build`` makes one ``array`` per
    column and hands the lists to the :class:`Trace`, which adopts them as
    its :meth:`~Trace.column_lists` (a fresh trace needs no ``tolist()``).
    """

    __slots__ = ("_lists", "appends")

    def __init__(self) -> None:
        self._lists: Tuple[list, ...] = tuple([] for _ in COLUMN_SPEC)
        #: Bound column appends in :data:`COLUMN_SPEC` order.  The trace
        #: generator's hot loop appends one instruction row through these
        #: directly (no per-item method call).
        self.appends = tuple(column.append for column in self._lists)

    def add_instruction(
        self,
        pc: int,
        op_index: int,
        src1_kind: int,
        src1_value: int,
        src2_kind: int,
        src2_value: int,
        dest_kind: int,
        dest_value: int,
        thread: int,
        depends: bool,
        frame_base: int = 0,
        frame_size: int = 0,
    ) -> None:
        f0, f1, f2, f3, f4, f5, kind, op, flags, thread_col = self.appends
        f0(pc)
        f1(src1_value)
        f2(src2_value)
        f3(dest_value)
        f4(frame_base)
        f5(frame_size)
        kind(KIND_INSTRUCTION)
        op(op_index)
        flags(
            src1_kind
            | (src2_kind << SRC2_SHIFT)
            | (dest_kind << DEST_SHIFT)
            | (DEPENDS_BIT if depends else 0)
        )
        thread_col(thread)

    def add_high_level(
        self,
        kind_index: int,
        address: int,
        size: int,
        register: int,
        thread: int,
        startup: bool,
    ) -> None:
        f0, f1, f2, f3, f4, f5, kind, op, flags, thread_col = self.appends
        f0(address)
        f1(size)
        f2(0)
        f3(0)
        f4(0)
        f5(0)
        kind(1 + kind_index)
        op(register)
        flags(STARTUP_BIT if startup else 0)
        thread_col(thread)

    def add_item(self, item: TraceItem) -> None:
        """Append the row of an ``Instruction`` or ``HighLevelEvent``."""
        if isinstance(item, Instruction):
            sources = item.sources
            src1 = sources[0] if len(sources) >= 1 else None
            src2 = sources[1] if len(sources) >= 2 else None
            self.add_instruction(
                item.pc,
                OP_INDEX[item.op_class],
                _operand_kind_code(src1),
                src1.value if src1 is not None else 0,
                _operand_kind_code(src2),
                src2.value if src2 is not None else 0,
                _operand_kind_code(item.dest),
                item.dest.value if item.dest is not None else 0,
                item.thread,
                item.depends_on_prev,
                item.frame_base,
                item.frame_size,
            )
        elif isinstance(item, HighLevelEvent):
            self.add_high_level(
                HL_INDEX[item.kind],
                item.address,
                item.size,
                item.register,
                item.thread,
                item.startup,
            )
        else:
            raise TypeError(
                f"trace item {len(self)} is a {type(item).__name__}, not an "
                "Instruction or a HighLevelEvent"
            )

    def __len__(self) -> int:
        return len(self._lists[0])

    def build(self, name: str = "trace", seed: int = 0) -> "Trace":
        return Trace._from_columns(
            _array_columns(self._lists), name, seed, self._lists
        )


class _ItemView:
    """Lazy sequence view over a trace's items.

    Materialised objects are cached per index, so repeated passes (plan
    building for several monitors, user analysis loops) construct each
    ``Instruction``/``HighLevelEvent`` at most once.

    The view holds the raw columns, not the trace: a reference back to the
    trace (which holds its view) would form a cycle, and then a finished
    trace, its column lists and its memos would wait for the cycle
    collector instead of being freed by refcount.
    """

    __slots__ = ("_columns", "_cache")

    def __init__(self, columns: Tuple[Column, ...]) -> None:
        self._columns = columns
        self._cache: List[Optional[TraceItem]] = [None] * len(columns[0])

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._cache)))]
        cache = self._cache
        item = cache[index]  # Negative indexing matches list semantics.
        if item is None:
            item = _materialize(
                self._columns, index if index >= 0 else index + len(cache)
            )
            cache[index] = item
        return item

    def __iter__(self) -> Iterator[TraceItem]:
        cache = self._cache
        columns = self._columns
        for index in range(len(cache)):
            item = cache[index]
            if item is None:
                item = _materialize(columns, index)
                cache[index] = item
            yield item

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _ItemView):
            if other is self:
                return True
            other = list(other)
        if not isinstance(other, (list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    def __repr__(self) -> str:
        return f"_ItemView({len(self)} items)"


class Trace:
    """An immutable ordered stream of trace items with provenance metadata,
    stored as flat columns with a lazy object view (``items``)."""

    def __init__(
        self,
        items: Iterable[TraceItem],
        name: str = "trace",
        seed: int = 0,
    ) -> None:
        """Pack ``items`` into columns.  A field value its column cannot
        hold raises a ``ValueError`` naming the item and the field; an
        item that is neither an ``Instruction`` nor a ``HighLevelEvent``
        raises a ``TypeError``."""
        builder = TraceBuilder()
        add_item = builder.add_item
        for item in items:
            add_item(item)
        lists = builder._lists
        self._adopt(_array_columns(lists), name, seed, lists)

    @classmethod
    def _from_columns(
        cls,
        columns: Columns,
        name: str,
        seed: int,
        lists: Optional[Tuple[list, ...]] = None,
    ) -> "Trace":
        trace = cls.__new__(cls)
        trace._adopt(columns, name, seed, lists)
        return trace

    def _adopt(
        self,
        columns: Columns,
        name: str,
        seed: int,
        lists: Optional[Tuple[list, ...]],
    ) -> None:
        """``lists``, when given, must hold the same values as ``columns``
        (in :data:`COLUMN_SPEC` order): the builder passes the lists it
        filled, and the trace serves them as :meth:`column_lists`."""
        self.name = name
        self.seed = seed
        self._columns = columns
        self._raw = tuple(columns[column_name] for column_name, _ in COLUMN_SPEC)
        self._kind = columns["kind"]
        self._length = len(self._kind)
        self._num_instructions: Optional[int] = None
        self._lists = lists
        self._view: Optional[_ItemView] = None

    # ------------------------------------------------------------ sequence

    @property
    def items(self) -> _ItemView:
        if self._view is None:
            self._view = _ItemView(self._raw)
        return self._view

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[TraceItem]:
        return iter(self.items)

    def __getitem__(self, index):
        return self.items[index]

    # ------------------------------------------------------------- queries

    @property
    def num_instructions(self) -> int:
        if self._num_instructions is None:
            self._num_instructions = bytes(self._kind).count(KIND_INSTRUCTION)
        return self._num_instructions

    def column(self, name: str) -> Column:
        """The raw column ``name`` (see :data:`COLUMN_SPEC`)."""
        return self._columns[name]

    def column_lists(self) -> Tuple[list, ...]:
        """Columns batch-converted to plain lists, in :data:`COLUMN_SPEC`
        order (f0..f5, kind, op, flags, thread).

        One C-speed ``tolist()`` per column, cached (a built trace starts
        with its builder's lists): hot consumers (the retire model, plan
        building) index plain lists instead of paying a per-access boxing
        cost on ``array``/``memoryview`` columns.
        """
        if self._lists is None:
            self._lists = tuple(column.tolist() for column in self._raw)
        return self._lists

    def stack_update(self, index: int) -> StackUpdate:
        """The :class:`StackUpdate` of call/return instruction ``index``,
        built from the columns."""
        lists = self.column_lists()
        return StackUpdate(
            STACK_OP_BY_CODE[lists[7][index]], lists[4][index], lists[5][index]
        )

    def count_instructions(self, start: int = 0, stop: Optional[int] = None) -> int:
        """Number of instructions among items ``[start, stop)`` — a bytes
        scan, no materialisation."""
        if stop is None:
            stop = self._length
        return bytes(self._kind[start:stop]).count(KIND_INSTRUCTION)

    def instructions(self) -> Iterator[Instruction]:
        view = self.items
        kind_column = self._kind
        for index in range(self._length):
            if kind_column[index] == KIND_INSTRUCTION:
                yield view[index]

    def high_level_events(self) -> Iterator[HighLevelEvent]:
        view = self.items
        kind_column = self._kind
        for index in range(self._length):
            if kind_column[index] != KIND_INSTRUCTION:
                yield view[index]

    # ------------------------------------------------------ (de)serialising

    def column_bytes(self) -> Dict[str, bytes]:
        """Raw bytes of every column (copies; for payload assembly)."""
        return {
            name: column.tobytes()
            for (name, _), column in zip(COLUMN_SPEC, self._raw)
        }

    def to_payload(self) -> Tuple[dict, bytes]:
        """(metadata, buffer) pair: the buffer is the concatenation of all
        columns in :data:`COLUMN_SPEC` order, the metadata is everything
        needed to rebuild the trace over that buffer (``from_buffer``)."""
        meta = {
            "schema": TRACE_SCHEMA_VERSION,
            "name": self.name,
            "seed": self.seed,
            "count": self._length,
        }
        payload = b"".join(self.column_bytes().values())
        return meta, payload

    @classmethod
    def from_buffer(cls, meta: dict, buffer) -> "Trace":
        """Rebuild a trace over ``buffer`` without copying.

        ``buffer`` is any buffer-protocol object laid out by
        :meth:`to_payload` (e.g. the ``bytes`` payload of a pickle).
        Columns become ``memoryview`` casts into it.
        """
        if meta.get("schema") != TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"trace schema {meta.get('schema')!r} != "
                f"{TRACE_SCHEMA_VERSION} (regenerate the trace)"
            )
        count = meta["count"]
        view = memoryview(buffer)
        columns: Columns = {}
        offset = 0
        for name, code in COLUMN_SPEC:
            width = array(code).itemsize * count
            columns[name] = view[offset : offset + width].cast(code)
            offset += width
        return cls._from_columns(columns, meta["name"], meta["seed"])

    def __reduce__(self):
        # Compact pickling: one bytes payload instead of an object graph.
        meta, payload = self.to_payload()
        return (_unpickle_trace, (meta, payload))


def _unpickle_trace(meta: dict, payload: bytes) -> Trace:
    return Trace.from_buffer(meta, payload)
