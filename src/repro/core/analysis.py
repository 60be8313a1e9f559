"""Mathematical analysis of non-predictive collection (Section 5 of the paper).

The garbage collection problem for the radioactive decay model has two
degrees of freedom: the half-life ``h`` and the *inverse load factor*
``L`` (total heap size divided by live storage).  The non-predictive
collector adds one policy knob, ``g = j/k``, the fraction of the heap
devoted to the protected young generation.

The central function is

    ``l(f, g) = 1 - 2**(-L f / ln 2) * (1 - L (g - f))``
              ``= 1 - exp(-L f) * (1 - L (g - f))``

the fraction of live storage expected to reside in the protected steps
1..j at the beginning of the next collection, where ``N f`` is the
space available in those steps just after the previous collection
(``0 <= f <= g``).

From ``l`` the paper derives:

* **Theorem 3** — ``l(f, g)`` is the large-``h`` limit of the exact
  expectation ``live_h(f, g) / n``.
* **Theorem 4** — when ``f = g``, ``g <= 1/2`` and
  ``L (1 - 2 g) >= 1 - l(g, g)`` the collector reaches a stable
  equilibrium with mark/cons ratio
  ``(1 - l) / (L (1 - g) - (1 - l))``.
* **Corollary 5** — dividing by the non-generational mark/sweep ratio
  ``1 / (L - 1)`` gives the relative overhead plotted in Figure 1.
* **Equation 4** — outside the stable regime, a fixed point
  ``f = clamp(1 - g + (l(f, g) - 1) / L, 0, g)`` yields a lower bound
  on the mark/cons ratio (the thick lines in Figure 1).

All functions here are closed-form and deterministic; the simulation
cross-checks live in :mod:`repro.experiments.figure1`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "MarkConsEstimate",
    "OverheadPoint",
    "expected_live",
    "fixed_point_f",
    "live_fraction",
    "mark_cons_ratio",
    "nongenerational_mark_cons",
    "optimal_generation_fraction",
    "overhead_curve",
    "relative_overhead",
    "stable_equilibrium_holds",
]


def _check_parameters(f: float, g: float, load: float) -> None:
    """Validate the (f, g, L) triple shared by the analysis functions."""
    if load <= 1.0:
        raise ValueError(
            f"inverse load factor L must exceed 1 (heap larger than live "
            f"storage), got {load!r}"
        )
    if not 0.0 <= g <= 0.5:
        raise ValueError(f"generation fraction g must be in [0, 1/2], got {g!r}")
    if not 0.0 <= f <= g + 1e-12:
        raise ValueError(f"free fraction f must be in [0, g]; got f={f!r}, g={g!r}")


def live_fraction(f: float, g: float, load: float) -> float:
    """The paper's ``l(f, g)`` for inverse load factor ``load``.

    This is the expected fraction of all live storage that resides in
    the protected steps 1..j at the start of the next collection.  The
    exponent ``-L f / ln 2`` (base 2) simplifies to ``-L f`` base e.
    """
    _check_parameters(f, g, load)
    return 1.0 - math.exp(-load * f) * (1.0 - load * (g - f))


def expected_live(f: float, g: float, load: float, half_life: float) -> float:
    """Exact expectation ``live_h(f, g)``: live objects in steps 1..j.

    Computed from the finite geometric sum in Section 5,

        ``live_h(f, g) = r (1 - r**(N f)) / (1 - r) + N (g - f) r**(N f)``

    with ``r = 2**(-1/h)``, ``n = 1/(1-r)`` (exact Equation 1) and heap
    size ``N = n L``.  Theorem 3 states ``live_h(f, g)/n -> l(f, g)``
    as ``h -> ∞``; tests verify the convergence.
    """
    _check_parameters(f, g, load)
    if half_life <= 0:
        raise ValueError(f"half-life must be positive, got {half_life!r}")
    r = 2.0 ** (-1.0 / half_life)
    n = 1.0 / (1.0 - r)
    heap_size = n * load
    r_to_nf = r**(heap_size * f)
    geometric = r * (1.0 - r_to_nf) / (1.0 - r)
    return geometric + heap_size * (g - f) * r_to_nf


def stable_equilibrium_holds(g: float, load: float) -> bool:
    """Theorem 4's hypothesis: ``L (1 - 2 g) >= 1 - l(g, g)``.

    When this holds (with ``f = g``), the space reclaimed by each
    collection suffices to keep steps 1..j entirely free, so the
    collector sits at a stable equilibrium and Theorem 4's closed form
    is exact.
    """
    _check_parameters(g, g, load)
    return load * (1.0 - 2.0 * g) >= 1.0 - live_fraction(g, g, load)


def nongenerational_mark_cons(load: float) -> float:
    """Mark/cons ratio ``1 / (L - 1)`` of a non-generational mark/sweep GC.

    A non-generational collector marks ``n`` live words per collection
    and reclaims ``N - n`` words, so amortized it marks
    ``n / (N - n) = 1 / (L - 1)`` words per word allocated.
    """
    if load <= 1.0:
        raise ValueError(
            f"inverse load factor L must exceed 1, got {load!r}"
        )
    return 1.0 / (load - 1.0)


def fixed_point_f(
    g: float,
    load: float,
    *,
    tolerance: float = 1e-12,
    max_iterations: int = 200,
) -> float:
    """Solve Equation 4 for the equilibrium free fraction ``f``.

    Equation 4 is ``f = max(0, min(1 - g + (l(f, g) - 1)/L, g))``.  The
    update map is monotonically decreasing in ``f`` (more free space in
    the protected steps means fewer live objects end up there), so the
    clamped fixed point is unique.  At ``f = 0`` the unclamped update is
    ``1 - 1/L > 0``, so the root is found by bisection on [0, g]; when
    the update at ``f = g`` is still at least ``g`` — exactly Theorem
    4's hypothesis — the clamp pins ``f = g``.
    """
    _check_parameters(g, g, load)
    if g == 0.0:
        return 0.0

    def update(f: float) -> float:
        raw = 1.0 - g + (live_fraction(f, g, load) - 1.0) / load
        return max(0.0, min(raw, g))

    if update(g) >= g:
        return g

    lo, hi = 0.0, g
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        if update(mid) > mid:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tolerance:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class MarkConsEstimate:
    """A mark/cons estimate for the non-predictive collector.

    Attributes:
        value: the estimated mark/cons ratio.
        exact: true when Theorem 4's hypotheses hold and the value is
            the exact equilibrium expectation; false when the value is
            the Equation-4 lower bound (Figure 1's thick lines).
        free_fraction: the ``f`` at which the estimate was evaluated
            (``g`` in the stable regime, the fixed point otherwise).
    """

    value: float
    exact: bool
    free_fraction: float


def mark_cons_ratio(g: float, load: float) -> MarkConsEstimate:
    """Expected mark/cons ratio of the non-predictive collector.

    In the stable regime this is Theorem 4's

        ``(1 - l(g, g)) / (L (1 - g) - (1 - l(g, g)))``

    — the collector marks the live part of steps j+1..k and the
    allocation between collections equals the space those steps free.
    Outside the stable regime the same quotient is evaluated at the
    Equation-4 fixed point and is only a lower bound.

    A ``g`` of zero degenerates to a non-generational collector that
    sweeps the whole heap; the formula then reduces to ``1 / (L - 1)``.
    """
    _check_parameters(g, g, load)
    if stable_equilibrium_holds(g, load):
        f = g
        exact = True
    else:
        f = fixed_point_f(g, load)
        exact = False
    dead_fraction = 1.0 - live_fraction(f, g, load)
    denominator = load * (1.0 - g) - dead_fraction
    if denominator <= 0:
        raise ValueError(
            f"no allocation headroom at g={g!r}, L={load!r}: the old "
            f"generation cannot reclaim any space"
        )
    return MarkConsEstimate(
        value=dead_fraction / denominator, exact=exact, free_fraction=f
    )


def relative_overhead(g: float, load: float) -> MarkConsEstimate:
    """Corollary 5: non-predictive mark/cons relative to mark/sweep.

    Values below 1 mean the non-predictive generational collector does
    less marking work per word allocated than the non-generational
    baseline — the paper's headline result is that such values exist
    for every ``L > 1``.
    """
    estimate = mark_cons_ratio(g, load)
    baseline = nongenerational_mark_cons(load)
    return MarkConsEstimate(
        value=estimate.value / baseline,
        exact=estimate.exact,
        free_fraction=estimate.free_fraction,
    )


@dataclass(frozen=True)
class OverheadPoint:
    """One point of a Figure 1 curve."""

    g: float
    load: float
    relative_overhead: float
    exact: bool


def overhead_curve(
    load: float, gs: Sequence[float] | None = None, *, samples: int = 100
) -> list[OverheadPoint]:
    """A Figure 1 curve: relative overhead as a function of ``g``.

    Args:
        load: the inverse load factor ``L``.
        gs: explicit sample points; defaults to ``samples`` evenly
            spaced values spanning (0, 1/2].
        samples: number of points when ``gs`` is not given.
    """
    if gs is None:
        gs = [0.5 * (i + 1) / samples for i in range(samples)]
    points = []
    for g in gs:
        estimate = relative_overhead(g, load)
        points.append(
            OverheadPoint(
                g=g,
                load=load,
                relative_overhead=estimate.value,
                exact=estimate.exact,
            )
        )
    return points


def optimal_generation_fraction(
    load: float, *, tolerance: float = 1e-9
) -> OverheadPoint:
    """The ``g`` in [0, 1/2] minimizing relative overhead, by golden section.

    The overhead curve is smooth and unimodal on (0, 1/2] (it decreases
    while protecting more young storage saves marking, then rises as
    the old generation is squeezed), so golden-section search finds the
    global minimum.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 1e-9, 0.5

    def objective(g: float) -> float:
        return relative_overhead(g, load).value

    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > tolerance:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = objective(x2)
    best_g = 0.5 * (lo + hi)
    estimate = relative_overhead(best_g, load)
    return OverheadPoint(
        g=best_g,
        load=load,
        relative_overhead=estimate.value,
        exact=estimate.exact,
    )


def register(subparsers) -> None:
    """``repro-gc analyze``."""
    from repro.cli import finite_float

    sub = subparsers.add_parser(
        "analyze", help="print Section 5 quantities for (g, L)"
    )
    sub.add_argument("--g", type=finite_float, default=0.25)
    sub.add_argument("--load", type=finite_float, default=3.5)
    sub.set_defaults(func=_cmd_analyze)


def _cmd_analyze(args) -> int:
    import sys

    g, load = args.g, args.load
    try:
        estimate = mark_cons_ratio(g, load)
        relative = relative_overhead(g, load)
        best = optimal_generation_fraction(load)
    except ValueError as exc:
        print(f"repro-gc analyze: error: {exc}", file=sys.stderr)
        return 2
    print(f"g = {g}, L = {load}")
    print(f"l(g,g)                    = {live_fraction(g, g, load):.4f}")
    print(f"stable equilibrium holds  = {stable_equilibrium_holds(g, load)}")
    print(
        f"mark/cons (non-predictive) = {estimate.value:.4f}"
        f" ({'exact' if estimate.exact else 'lower bound'})"
    )
    print(
        f"mark/cons (mark/sweep)     = "
        f"{nongenerational_mark_cons(load):.4f}"
    )
    print(f"relative overhead          = {relative.value:.4f}")
    print(
        f"optimal g for this L       = {best.g:.4f} "
        f"(overhead {best.relative_overhead:.4f})"
    )
    return 0
