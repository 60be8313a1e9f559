"""Reproduction self-check: every paper claim, verified in one run.

``python -m repro validate`` runs a scaled-down version of each
experiment and checks the paper's shape claims programmatically — the
same assertions the benchmark suite makes, packaged as a quick
(~1 minute) smoke test a user can run right after installing.

Each check returns a :class:`CheckResult`; the command exits non-zero
if any check fails, so this doubles as a CI gate for the reproduction
itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core import analysis
from repro.experiments.antiprediction import run_antiprediction
from repro.experiments.equilibrium import run_equilibrium
from repro.experiments.figure1 import simulate_relative_overhead
from repro.experiments.remset_growth import run_remset_growth
from repro.experiments.table1 import run_table1

__all__ = ["CheckResult", "run_validation", "VALIDATIONS"]


@dataclass(frozen=True)
class CheckResult:
    """One validated claim."""

    name: str
    passed: bool
    detail: str


def _check_table1() -> CheckResult:
    result = run_table1()
    deviation = result.max_deviation()
    passed = deviation <= 2 and abs(result.mark_cons - 0.2) < 0.01
    return CheckResult(
        name="Table 1: idealized step table, mark/cons 0.2",
        passed=passed,
        detail=(
            f"max deviation {deviation} words, "
            f"mark/cons {result.mark_cons:.3f}"
        ),
    )


def _check_equation1() -> CheckResult:
    result = run_equilibrium(
        half_life=800.0, half_lives_to_run=16, samples=6
    )
    passed = result.relative_error < 0.08
    return CheckResult(
        name="Equation 1: equilibrium live storage = h/ln2",
        passed=passed,
        detail=(
            f"predicted {result.predicted_live:.0f}, measured "
            f"{result.measured_live_mean:.0f} "
            f"({100 * result.relative_error:.1f}% error)"
        ),
    )


def _check_theorem4() -> CheckResult:
    point = simulate_relative_overhead(
        0.25, 3.5, half_life=1_000.0, cycles=15
    )
    passed = point.exact and point.relative_error < 0.10
    return CheckResult(
        name="Theorem 4/Corollary 5: simulation matches the closed form",
        passed=passed,
        detail=(
            f"theory {point.predicted:.3f}, simulated {point.simulated:.3f} "
            f"({100 * point.relative_error:.1f}% off)"
        ),
    )


def _check_headline() -> CheckResult:
    # The paper's main result, stated analytically: for every tested
    # load there is a g with relative overhead below 1.
    passed = all(
        analysis.optimal_generation_fraction(load).relative_overhead < 1.0
        for load in (1.5, 2.0, 3.5, 8.0)
    )
    return CheckResult(
        name="Headline: non-predictive beats non-generational at every L",
        passed=passed,
        detail="optimal g overhead < 1 for L in {1.5, 2, 3.5, 8}",
    )


def _check_antiprediction() -> CheckResult:
    result = run_antiprediction(half_life=800.0, cycles=12)
    passed = result.conventional_loses and result.nonpredictive_wins
    return CheckResult(
        name="Section 3: conventional loses, non-predictive wins, on decay",
        passed=passed,
        detail=(
            f"generational {result.mark_cons['generational']:.3f} vs "
            f"mark/sweep {result.mark_cons['mark-sweep']:.3f} vs "
            f"non-predictive {result.mark_cons['non-predictive']:.3f}"
        ),
    )


def _check_differential() -> CheckResult:
    from repro.verify.differential import run_differential
    from repro.verify.replay import generate_script

    script = generate_script(600, 3, max_live_words=60)
    report = run_differential(script)
    passed = report.ok
    if passed:
        detail = (
            f"{len(report.results)} collectors agree over "
            f"{len(script.ops)} ops (checked mode)"
        )
    else:
        detail = report.divergences[0].summary()
    return CheckResult(
        name="Differential oracle: five collectors, identical live graphs",
        passed=passed,
        detail=detail,
    )


def _check_remset() -> CheckResult:
    result = run_remset_growth()
    passed = (
        result.conventional_peak < 10
        and result.hybrid_unconstrained_peak > 300
        and result.hybrid_capped_peak <= result.cap
    )
    return CheckResult(
        name="Section 8.3: remset growth and the j valve",
        passed=passed,
        detail=(
            f"conventional {result.conventional_peak}, unconstrained "
            f"{result.hybrid_unconstrained_peak}, capped "
            f"{result.hybrid_capped_peak}"
        ),
    )


#: The validation battery, in presentation order.
VALIDATIONS: tuple[Callable[[], CheckResult], ...] = (
    _check_headline,
    _check_equation1,
    _check_table1,
    _check_theorem4,
    _check_antiprediction,
    _check_remset,
    _check_differential,
)


def run_validation() -> list[CheckResult]:
    """Run every check; failures are reported, never raised."""
    results = []
    for check in VALIDATIONS:
        try:
            results.append(check())
        except Exception as error:  # a crash is a failed check
            results.append(
                CheckResult(
                    name=check.__name__,
                    passed=False,
                    detail=f"crashed: {error!r}",
                )
            )
    return results


def register(subparsers) -> None:
    """``repro-gc validate``."""
    sub = subparsers.add_parser(
        "validate",
        help="quick self-check: verify the paper's claims end to end",
    )
    sub.set_defaults(func=_cmd_validate)


def _cmd_validate(_args) -> int:
    results = run_validation()
    for result in results:
        print(f"[{'PASS' if result.passed else 'FAIL'}] {result.name}")
        print(f"       {result.detail}")
    failures = sum(not result.passed for result in results)
    print()
    print(f"{len(results) - failures}/{len(results)} paper claims verified")
    return 1 if failures else 0
