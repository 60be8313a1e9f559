"""The nucleic2 benchmark (Table 2: "determination of nucleic acids'
spatial structure").

The original is Feeley et al.'s "pseudoknot": a backtracking search
over candidate 3D placements of RNA residues, dominated by
floating-point geometry.  Its GC-relevant signature (§7.2) is extreme:
"each of the 7 million floating point operations in nucleic2 allocates
16 bytes of heap storage", with under a megabyte live at the peak
(Table 3).

This reproduction keeps the computational shape — a depth-first search
placing residues by composing rigid-body transforms, pruning on a
distance constraint — over synthetic residue geometry (the real PDB-
derived conformation tables are not available offline; DESIGN.md
records the substitution).  All geometry uses boxed flonums through
the machine, so the allocation behaviour matches the original's.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.runtime.machine import Machine
from repro.runtime.values import Ref

__all__ = ["NucleicResult", "run_nucleic"]

# A rigid transform is a heap vector of 12 boxed flonums:
# a 3x3 rotation (row-major, slots 0..8) and a translation (9..11).


def _make_transform(machine: Machine, values: list[float]) -> Ref:
    transform = machine.make_vector(12)
    for slot, value in enumerate(values):
        machine.vector_set(transform, slot, machine.make_flonum(value))
    return transform


def _identity(machine: Machine) -> Ref:
    return _make_transform(
        machine, [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0]
    )


def _rotation(axis: int, angle: float, offset: tuple[float, float, float]) -> list[float]:
    c, s = math.cos(angle), math.sin(angle)
    if axis == 0:
        rot = [1, 0, 0, 0, c, -s, 0, s, c]
    elif axis == 1:
        rot = [c, 0, s, 0, 1, 0, -s, 0, c]
    else:
        rot = [c, -s, 0, s, c, 0, 0, 0, 1]
    return rot + list(offset)


def _compose(machine: Machine, a: Ref, b: Ref) -> Ref:
    """Transform composition a . b, every flop boxing a flonum."""
    fl = machine
    result = machine.make_vector(12)
    for row in range(3):
        for col in range(3):
            acc = fl.make_flonum(0.0)
            for k in range(3):
                acc = fl.fl_add(
                    acc,
                    fl.fl_mul(
                        fl.vector_ref(a, 3 * row + k),
                        fl.vector_ref(b, 3 * k + col),
                    ),
                )
            machine.vector_set(result, 3 * row + col, acc)
    for row in range(3):
        acc = fl.vector_ref(a, 9 + row)
        for k in range(3):
            acc = fl.fl_add(
                acc,
                fl.fl_mul(
                    fl.vector_ref(a, 3 * row + k), fl.vector_ref(b, 9 + k)
                ),
            )
        machine.vector_set(result, 9 + row, acc)
    return result


def _origin_distance2(machine: Machine, transform: Ref) -> float:
    """Squared distance of the transform's translation from the origin."""
    total = 0.0
    for slot in (9, 10, 11):
        value = machine.flonum_value(machine.vector_ref(transform, slot))
        total += value * value
    return total


@dataclass(frozen=True)
class NucleicResult:
    """Outcome of one nucleic run."""

    residues: int
    candidates: int
    solutions: int
    placements_tried: int
    words_allocated: int


@dataclass
class _Tally:
    solutions: int = 0
    tried: int = 0


def _place(
    machine: Machine,
    transforms: list[Ref],
    limit2: float,
    depth_left: int,
    tally: _Tally,
    frame: Ref,
) -> None:
    """Extend the chain ending at ``frame`` by ``depth_left`` residues.

    A module-level function taking its state, not a closure recursing
    through its own cell: that reference cycle would keep the candidate
    transforms' handles rooted after the search returned, until
    CPython's cycle collector ran.
    """
    if depth_left == 0:
        tally.solutions += 1
        return
    for transform in transforms:
        tally.tried += 1
        placed = _compose(machine, frame, transform)
        if _origin_distance2(machine, placed) <= limit2:
            _place(machine, transforms, limit2, depth_left - 1, tally, placed)


def run_nucleic(
    machine: Machine,
    *,
    residues: int = 7,
    candidates: int = 3,
    max_radius: float = 4.0,
    seed: int = 14,
) -> NucleicResult:
    """Search for conformations of a synthetic residue chain.

    Each residue may attach to its predecessor through one of
    ``candidates`` rigid transforms; a partial chain is pruned when its
    end wanders more than ``max_radius`` from the origin (the stand-in
    for the original's atom-clash constraint).  Counts complete
    conformations.
    """
    if residues < 1 or candidates < 1:
        raise ValueError("need at least one residue and one candidate")
    rng = random.Random(seed)
    candidate_transforms = [
        _make_transform(
            machine,
            _rotation(
                rng.randrange(3),
                rng.uniform(-math.pi / 3, math.pi / 3),
                (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)),
            ),
        )
        for _ in range(candidates)
    ]
    words_before = machine.stats.words_allocated
    tally = _Tally()
    _place(
        machine,
        candidate_transforms,
        max_radius * max_radius,
        residues,
        tally,
        _identity(machine),
    )
    return NucleicResult(
        residues=residues,
        candidates=candidates,
        solutions=tally.solutions,
        placements_tried=tally.tried,
        words_allocated=machine.stats.words_allocated - words_before,
    )
