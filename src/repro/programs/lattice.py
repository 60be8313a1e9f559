"""The lattice benchmark (Table 2: "enumeration of maps between
lattices").

Counts the monotone maps from one finite lattice to another.  Lattices
are products of chains; the enumeration extends a partial map one
element at a time (in a linear extension of the source order), keeping
the partial map as heap-allocated list structure and rebuilding the
candidate lists functionally at every step.

This reproduces the benchmark's storage signature ("typical of purely
functional programs"): a high allocation rate of short-lived pairs and
almost no long-lived storage — every partial map dies as soon as the
recursion backtracks past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from repro.runtime.machine import Machine
from repro.runtime.values import Fixnum, SchemeValue

__all__ = ["LatticeResult", "count_monotone_maps", "run_lattice"]


@dataclass(frozen=True)
class Lattice:
    """A product of chains: element ``i`` is a coordinate tuple."""

    dims: tuple[int, ...]
    elements: tuple[tuple[int, ...], ...]

    @staticmethod
    def chain_product(dims: tuple[int, ...]) -> "Lattice":
        if not dims or any(d < 1 for d in dims):
            raise ValueError(
                f"dimensions must be positive and non-empty, got {dims!r}"
            )
        elements = tuple(product(*(range(d) for d in dims)))
        return Lattice(dims=dims, elements=elements)

    def leq(self, a: int, b: int) -> bool:
        """Component-wise order on elements (by index)."""
        return all(
            x <= y for x, y in zip(self.elements[a], self.elements[b])
        )

    def __len__(self) -> int:
        return len(self.elements)


def count_monotone_maps(
    machine: Machine, source: Lattice, target: Lattice
) -> int:
    """Count monotone maps from ``source`` to ``target``.

    The partial map under construction is a Scheme list of fixnums
    (most recently assigned element first), extended functionally: each
    recursive call conses a new head, so backtracking abandons exactly
    the garbage a pure Scheme implementation would.
    """
    order = sorted(
        range(len(source)), key=lambda index: source.elements[index]
    )
    # predecessors[i] = positions (into `order`) of earlier elements
    # comparable to order[i], with the direction of the constraint.
    constraints: list[list[tuple[int, bool]]] = []
    for position, element in enumerate(order):
        entry: list[tuple[int, bool]] = []
        for earlier_position in range(position):
            earlier = order[earlier_position]
            if source.leq(earlier, element):
                entry.append((earlier_position, True))  # f(earlier) <= v
            elif source.leq(element, earlier):
                entry.append((earlier_position, False))  # v <= f(earlier)
        constraints.append(entry)

    return _extend(machine, constraints, target, 0, None)


# Module-level functions taking their state, not closures: ``extend``
# recursing through its own cell is a reference cycle that owns the
# machine, whose heap would then wait for CPython's cycle collector.


def _assigned_value(machine: Machine, partial: SchemeValue, back: int) -> int:
    """The value assigned ``back`` steps ago (list is newest-first)."""
    for _ in range(back):
        partial = machine.cdr(partial)
    head = machine.car(partial)
    assert isinstance(head, Fixnum)
    return head.value


def _extend(
    machine: Machine,
    constraints: list[list[tuple[int, bool]]],
    target: Lattice,
    position: int,
    partial: SchemeValue,
) -> int:
    if position == len(constraints):
        return 1
    count = 0
    depth = position  # length of the partial list
    for candidate in range(len(target)):
        ok = True
        for earlier_position, forward in constraints[position]:
            earlier_value = _assigned_value(
                machine, partial, depth - 1 - earlier_position
            )
            if forward:
                if not target.leq(earlier_value, candidate):
                    ok = False
                    break
            else:
                if not target.leq(candidate, earlier_value):
                    ok = False
                    break
        if ok:
            extended = machine.cons(Fixnum(candidate), partial)
            count += _extend(
                machine, constraints, target, position + 1, extended
            )
    return count


@dataclass(frozen=True)
class LatticeResult:
    """Outcome of one lattice run."""

    map_count: int
    source_size: int
    target_size: int
    words_allocated: int


def run_lattice(
    machine: Machine,
    source_dims: tuple[int, ...] = (2, 2, 2),
    target_dims: tuple[int, ...] = (3, 3),
) -> LatticeResult:
    """Run the lattice benchmark: count maps between two chain products."""
    words_before = machine.stats.words_allocated
    source = Lattice.chain_product(tuple(source_dims))
    target = Lattice.chain_product(tuple(target_dims))
    count = count_monotone_maps(machine, source, target)
    return LatticeResult(
        map_count=count,
        source_size=len(source),
        target_size=len(target),
        words_allocated=machine.stats.words_allocated - words_before,
    )
