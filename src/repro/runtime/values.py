"""Scheme-ish runtime values over the simulated heap.

The benchmark programs of Section 7 are Scheme programs; to reproduce
their allocation behaviour we provide a small Scheme-like data model
whose heap-allocated values live in the simulated heap:

==========  =====================  =========================
value       representation         heap cost (32-bit words)
==========  =====================  =========================
fixnum      :class:`Fixnum`        0 (immediate)
boolean     Python ``bool``        0 (immediate)
character   1-char Python ``str``  0 (immediate)
empty list  Python ``None``        0 (immediate)
pair        heap object "pair"     2
flonum      heap object "flonum"   4 (header, pad, 8 data bytes)
vector      heap object "vector"   length + 1
string      heap object "string"   ceil(length/4) + 1
symbol      heap object "symbol"   4 (interned, static area)
==========  =====================  =========================

The flonum cost reproduces the paper's observation (§7.2) that "each
of the 7 million floating point operations in nucleic2 allocates 16
bytes of heap storage: a header word, a word of padding, and two data
words".

Heap values are handled through :class:`Ref`, an *interned* handle:
the machine keeps one ``Ref`` per object that Python code may still
hold, and hands that same ``Ref`` to every reader.  While anything
besides the machine's table references it, the object it names is a GC
root — the count is the one CPython already keeps for every object, read
when a collection enumerates roots (see :mod:`repro.runtime.machine`).
This plays the role of the register/stack map a real runtime maintains,
and since CPython drops a reference the moment its holder goes away,
death times remain accurate.
"""

from __future__ import annotations

__all__ = [
    "Fixnum",
    "Ref",
    "SchemeValue",
    "fx",
    "word_size_of_string",
    "word_size_of_vector",
    "FLONUM_WORDS",
    "PAIR_WORDS",
    "SYMBOL_WORDS",
]

#: Heap cost of a pair (car + cdr; headerless cons cells, as in Larceny).
PAIR_WORDS = 2
#: Heap cost of a boxed IEEE double (§7.2: header, pad, two data words).
FLONUM_WORDS = 4
#: Heap cost of an interned symbol (header, name, hash, property slot).
SYMBOL_WORDS = 4


def word_size_of_vector(length: int) -> int:
    """Vector of n elements: header word plus one word per element."""
    if length < 0:
        raise ValueError(f"vector length must be non-negative, got {length!r}")
    return length + 1


def word_size_of_string(length: int) -> int:
    """String of n characters: header word plus 4 packed chars per word."""
    if length < 0:
        raise ValueError(f"string length must be non-negative, got {length!r}")
    return 1 + (length + 3) // 4


class Fixnum:
    """An immediate small integer (never heap-allocated).

    Raw Python ints cannot be stored in heap slots — the heap encodes
    references as ints — so fixnums are wrapped.  Small values are
    cached, mirroring tagged-immediate hardware where fixnums are free.
    """

    __slots__ = ("value",)
    _cache: dict[int, "Fixnum"] = {}

    def __new__(cls, value: int) -> "Fixnum":
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"fixnum requires an int, got {value!r}")
        cached = cls._cache.get(value)
        if cached is not None:
            return cached
        instance = super().__new__(cls)
        instance.value = value
        if -1024 <= value <= 1024:
            cls._cache[value] = instance
        return instance

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Fixnum) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("fx", self.value))

    def __repr__(self) -> str:
        return f"Fixnum({self.value})"


def fx(value: int) -> Fixnum:
    """Shorthand constructor for fixnums."""
    return Fixnum(value)


class Ref:
    """The tagged handle of one heap object, held by id.

    Only the machine builds handles, and it builds one per object: its
    table maps the id to *the* ``Ref``, constructors and slot reads
    return that one, and the object is a GC root for as long as some
    Python reference to it exists besides the table's.  Dropping the
    last such reference unroots the object; nothing runs when that
    happens (there is no ``__del__``) — the next root enumeration reads
    the reference count and forgets the entry.  Two handles are equal
    iff they name the same heap object.  Like a tagged pointer in
    Larceny, the handle carries the object's kind (fixed at birth), so
    type tests touch no memory; the heap is addressed through the id.
    It holds neither the machine nor its table, so a machine is in no
    reference cycle with its handles.
    """

    __slots__ = ("obj_id", "kind", "__weakref__")

    def __init__(self, obj_id: int, kind: str) -> None:
        self.obj_id = obj_id
        self.kind = kind

    def is_pair(self) -> bool:
        return self.kind == "pair"

    def is_vector(self) -> bool:
        return self.kind == "vector"

    def is_string(self) -> bool:
        return self.kind == "string"

    def is_symbol(self) -> bool:
        return self.kind == "symbol"

    def is_flonum(self) -> bool:
        return self.kind == "flonum"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ref) and other.obj_id == self.obj_id

    def __hash__(self) -> int:
        return hash(("ref", self.obj_id))

    def __repr__(self) -> str:
        return f"Ref({self.kind}#{self.obj_id})"


#: The union of program-visible values: immediates and handles.
SchemeValue = object
