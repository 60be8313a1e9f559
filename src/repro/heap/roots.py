"""The root set: global cells plus a shadow stack.

Programs running against the simulated heap hold onto objects in two
ways, mirroring a real language runtime:

* **global roots** — named cells (the benchmark programs use these for
  interned symbols, rule databases, and so on);
* **a shadow stack** — frames of local references pushed and popped
  around program activations, so that intermediate structures stay
  alive across an allocation that may trigger collection.

Every root cell holds an object id (or ``None``), and callers set it
by id; dangling roots are detected by the tracer.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["Frame", "RootSet"]


class Frame:
    """One shadow-stack frame: an ordered, growable list of root slots."""

    __slots__ = ("_cells",)

    def __init__(self) -> None:
        self._cells: list[int | None] = []

    def push(self, obj_id: int | None) -> int:
        """Append a slot holding ``obj_id``; returns its index."""
        self._cells.append(obj_id)
        return len(self._cells) - 1

    def set(self, index: int, obj_id: int | None) -> None:
        self._cells[index] = obj_id

    def ids(self) -> Iterator[int]:
        for ref in self._cells:
            if ref is not None:
                yield ref

    def __len__(self) -> int:
        return len(self._cells)


class RootSet:
    """Global roots, the shadow stack, and external root providers.

    A *provider* is a zero-argument callable returning an iterable of
    object ids; the runtime machine registers one that enumerates the
    live Python-side handles (see
    :class:`repro.runtime.machine.Machine`), playing the role of a
    real runtime's register/stack map.
    """

    __slots__ = ("_globals", "_stack", "_providers")

    def __init__(self) -> None:
        self._globals: dict[str, int | None] = {}
        self._stack: list[Frame] = []
        self._providers: list = []

    def add_provider(self, provider) -> None:
        """Register a callable yielding extra root ids at trace time."""
        self._providers.append(provider)

    # ------------------------------------------------------------------
    # Globals
    # ------------------------------------------------------------------

    def set_global(self, name: str, obj_id: int | None) -> None:
        self._globals[name] = obj_id

    def get_global_id(self, name: str) -> int | None:
        return self._globals.get(name)

    def remove_global(self, name: str) -> None:
        self._globals.pop(name, None)

    def global_names(self) -> Iterator[str]:
        return iter(self._globals.keys())

    # ------------------------------------------------------------------
    # Shadow stack
    # ------------------------------------------------------------------

    def push_frame(self) -> Frame:
        frame = Frame()
        self._stack.append(frame)
        return frame

    def pop_frame(self, frame: Frame) -> None:
        """Pop the top frame; passing the wrong frame is a bug."""
        if not self._stack or self._stack[-1] is not frame:
            raise ValueError("pop_frame called with a frame that is not on top")
        self._stack.pop()

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------

    def ids(self) -> Iterator[int]:
        """All root object ids (globals, stack frames, then providers)."""
        for ref in self._globals.values():
            if ref is not None:
                yield ref
        for frame in self._stack:
            yield from frame.ids()
        for provider in self._providers:
            yield from provider()

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """Serializable snapshot of the globals and the shadow stack.

        Global ordering is preserved (root enumeration order is
        observable through trace order).  Providers are deliberately
        excluded: they are live callables owned by the runtime layer,
        and a restored context re-registers its own.
        """
        return {
            "globals": [[name, ref] for name, ref in self._globals.items()],
            "frames": [list(frame._cells) for frame in self._stack],
        }

    def import_state(self, state: dict) -> None:
        """Replace the globals and shadow stack with a snapshot's.

        Providers registered on this root set are kept as they are.
        """
        self._globals = {name: ref for name, ref in state["globals"]}
        self._stack = []
        for slots in state["frames"]:
            frame = Frame()
            frame._cells = list(slots)
            self._stack.append(frame)

    def __len__(self) -> int:
        return sum(1 for _ in self.ids())
