"""Packed trace representation: flat columns instead of per-item objects.

A :class:`PackedTrace` stores one synthetic trace as a handful of flat
``array``/``memoryview`` columns (opcode, pc, operand kinds/values, stack
frame geometry, thread, high-level event payloads) instead of millions of
:class:`~repro.isa.instruction.Instruction` /
:class:`~repro.workload.trace.HighLevelEvent` objects.  This kills the two
functional-work bounds of grid execution:

* **Generation** appends machine integers to columns — no frozen-dataclass
  construction per item (:class:`~repro.workload.generator.TraceGenerator`
  emits packed columns directly).
* **Pickling** is a single buffer: one compact ``bytes`` payload instead
  of a per-item object graph.  (Pool workers never receive traces at all:
  each synthesizes the traces of its own chunks, see
  :mod:`repro.api.runner`.)

Consumers that need real objects still get them: ``packed.items`` is a lazy
sequence view that materialises (and caches) the exact ``Instruction`` /
``HighLevelEvent`` an object trace would hold, so monitors, the bug-trace
tooling and user code read a packed trace unchanged.  The hot consumers
read the columns directly and never materialise per-item objects on the
built-in path: :meth:`repro.cores.retire.RetireModel.schedule`,
:func:`repro.system.simulator.build_plan` (one kind code per item) and the
simulator's event loop, which decodes the fields FADE filters on with
:func:`event_fields`.  The :class:`~repro.isa.events.MonitoredEvent` a
software handler receives is built by :meth:`PackedTrace.event`, only for
the items a handler actually runs on, and memoized per trace.

The column layout is versioned (:data:`TRACE_SCHEMA_VERSION`); the
content-addressed result store keys on it so cached results are invalidated
whenever the packed representation changes meaning.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.isa.events import MonitoredEvent, StackOp, StackUpdate
from repro.isa.instruction import Instruction, Operand, OperandKind
from repro.isa.opcodes import OpClass, known_event_ids
from repro.workload.trace import HighLevelEvent, HighLevelKind, Trace, TraceItem

#: Version of the packed column layout.  Bump on any change to the columns,
#: their encoding, or their semantics — the result store includes it in
#: every cache key, so stale cached results can never be served.
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
    decoded from :meth:`PackedTrace.column_lists`.

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


_new_tuple = tuple.__new__


def build_event(lists: Tuple[list, ...], index: int) -> MonitoredEvent:
    """``MonitoredEvent.from_instruction(items[index], sequence=index)``,
    straight from :meth:`PackedTrace.column_lists` (``tuple.__new__``
    skips the NamedTuple's Python-level constructor).  Callers memoize
    through :meth:`PackedTrace.event` or its ``events`` list."""
    op_code = lists[7][index]
    stack_op = STACK_OP_BY_CODE[op_code]
    if stack_op is None:
        event_id, app_addr, src1, src2, dest = event_fields(lists, index)
        return _new_tuple(MonitoredEvent, (
            event_id, lists[0][index], app_addr, src1, src2, dest, None, index,
        ))
    return _new_tuple(MonitoredEvent, (
        EVENT_ID_BY_SHAPE[(op_code << 4) | (lists[8][index] & 15)],
        lists[0][index], None, None, None, None,
        StackUpdate(stack_op, lists[4][index], lists[5][index]),
        index,
    ))


def _materialize(columns: Tuple[Column, ...], index: int) -> TraceItem:
    """The object representation of item ``index`` of raw ``columns`` (in
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


class PackedTraceBuilder:
    """Column accumulator used by the trace generator (and ``pack_trace``).

    Append-only: ``add_instruction``/``add_high_level`` push one row of
    machine integers; ``build`` freezes the columns into a
    :class:`PackedTrace`.
    """

    __slots__ = ("_columns", "appends")

    def __init__(self) -> None:
        self._columns: Dict[str, array] = {
            name: array(code) for name, code in COLUMN_SPEC
        }
        columns = self._columns
        #: Bound column appends in :data:`COLUMN_SPEC` order.  The trace
        #: generator's hot loop appends one instruction row through these
        #: directly (no per-item method call).
        self.appends = tuple(
            columns[name].append for name, _ in COLUMN_SPEC
        )

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

    def __len__(self) -> int:
        return len(self._columns["kind"])

    def build(self, name: str = "trace", seed: int = 0) -> "PackedTrace":
        return PackedTrace(self._columns, name=name, seed=seed)


class _PackedItems:
    """Lazy sequence view over a packed trace's items.

    Materialised objects are cached per index, so repeated passes (plan
    building for several monitors, user analysis loops) construct each
    ``Instruction``/``HighLevelEvent`` at most once — exactly the objects an
    object :class:`Trace` of the same content would hold.

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
        if isinstance(other, _PackedItems):
            if other is self:
                return True
            other = list(other)
        if not isinstance(other, (list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __add__(self, other):
        return list(self) + list(other)

    def __radd__(self, other):
        return list(other) + list(self)

    def __repr__(self) -> str:
        return f"_PackedItems({len(self)} items)"


class PackedTrace(Trace):
    """A trace stored as flat columns with a lazy object view.

    Drop-in compatible with :class:`~repro.workload.trace.Trace` for
    reading: ``items``, indexing/slicing, iteration, ``instructions()``,
    ``num_instructions``, ``to_jsonl`` and ``concat`` behave identically.
    Packed traces are immutable — ``extend`` raises.
    """

    def __init__(
        self,
        columns: Columns,
        name: str = "trace",
        seed: int = 0,
    ) -> None:
        # Deliberately no super().__init__: items are virtual.
        self.name = name
        self.seed = seed
        self._columns = columns
        self._raw = tuple(columns[name] for name, _ in COLUMN_SPEC)
        self._kind = columns["kind"]
        self._length = len(self._kind)
        self._num_instructions: Optional[int] = None
        self._lists: Optional[Tuple[list, ...]] = None
        self._view: Optional[_PackedItems] = None
        self._events: Optional[List[Optional[MonitoredEvent]]] = None

    # ------------------------------------------------------------ sequence

    @property
    def items(self) -> _PackedItems:
        if self._view is None:
            self._view = _PackedItems(self._raw)
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

        One C-speed ``tolist()`` per column, cached: hot consumers (the
        retire model, plan building) index plain lists instead of paying a
        per-access boxing cost on ``array``/``memoryview`` columns.
        """
        if self._lists is None:
            self._lists = tuple(
                column.tolist() if hasattr(column, "tolist") else list(column)
                for column in self._raw
            )
        return self._lists

    @property
    def events(self) -> List[Optional[MonitoredEvent]]:
        """Per-item memo of :meth:`event` (None where not built yet).  Hot
        loops read it directly: ``events[i] or trace.event(i)``."""
        if self._events is None:
            self._events = [None] * self._length
        return self._events

    def event(self, index: int) -> MonitoredEvent:
        """The :class:`MonitoredEvent` of instruction ``index``, equal to
        ``MonitoredEvent.from_instruction(self.items[index], sequence=index)``.

        Built from the columns on first request and memoized on the trace:
        events do not depend on the monitor, so every simulation of this
        trace shares them, and only items some handler (or the SUU) ran on
        are ever built."""
        events = self.events
        event = events[index]
        if event is None:
            event = events[index] = build_event(self.column_lists(), index)
        return event

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

    # ------------------------------------------------------------ mutation

    def extend(self, items) -> None:
        raise TypeError(
            "PackedTrace is immutable; use concat() or pack_trace() to build "
            "a new trace"
        )

    def concat(self, other: Trace) -> Trace:
        return Trace(
            list(self.items) + list(other.items), name=self.name, seed=self.seed
        )

    # ------------------------------------------------------ (de)serialising

    def column_bytes(self) -> Dict[str, bytes]:
        """Raw bytes of every column (copies; for payload assembly)."""
        return {
            name: (
                column.tobytes()
                if isinstance(column, array)
                else bytes(column)
            )
            for name, column in (
                (name, self._columns[name]) for name, _ in COLUMN_SPEC
            )
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
    def from_buffer(cls, meta: dict, buffer) -> "PackedTrace":
        """Rebuild a packed trace over ``buffer`` without copying.

        ``buffer`` is any buffer-protocol object laid out by
        :meth:`to_payload` (e.g. the ``bytes`` payload of a pickle).
        Columns become ``memoryview`` casts into it.
        """
        if meta.get("schema") != TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"packed trace schema {meta.get('schema')!r} != "
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
        return cls(columns, name=meta["name"], seed=meta["seed"])

    def __reduce__(self):
        # Compact pickling: one bytes payload instead of an object graph.
        meta, payload = self.to_payload()
        return (_unpickle_packed_trace, (meta, payload))


def _unpickle_packed_trace(meta: dict, payload: bytes) -> PackedTrace:
    return PackedTrace.from_buffer(meta, payload)


def pack_trace(trace: Trace) -> PackedTrace:
    """Pack an object trace into columns (inverse of materialisation).

    ``pack_trace(t).items == t.items`` holds for any trace whose field
    values fit the column encoding (all generated and crafted traces do).
    """
    builder = PackedTraceBuilder()
    add_instruction = builder.add_instruction
    add_high_level = builder.add_high_level
    for item in trace:
        if isinstance(item, Instruction):
            sources = item.sources
            src1 = sources[0] if len(sources) >= 1 else None
            src2 = sources[1] if len(sources) >= 2 else None
            add_instruction(
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
        else:
            add_high_level(
                HL_INDEX[item.kind],
                item.address,
                item.size,
                item.register,
                item.thread,
                item.startup,
            )
    return builder.build(name=trace.name, seed=trace.seed)
