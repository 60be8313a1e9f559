"""The experiment registry: every paper artifact, one name each.

``run_experiment(name)`` executes one artifact's driver with default
parameters and returns ``(result, rendered_text)``.  The CLI and the
benchmark harness both go through this registry, so DESIGN.md's
per-experiment index maps one-to-one onto runnable names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.experiments.antiprediction import (
    render_antiprediction,
    run_antiprediction,
)
from repro.experiments.equilibrium import render_equilibrium, run_equilibrium
from repro.experiments.figure1 import render_figure1, run_figure1
from repro.experiments.hazard import render_hazard, run_hazard
from repro.experiments.promotion import render_promotion, run_promotion
from repro.experiments.remset_growth import (
    render_remset_growth,
    run_remset_growth,
)
from repro.experiments.storage_profiles import (
    render_profile,
    run_figure2,
    run_figure3,
    run_figure4,
)
from repro.experiments.survival_tables import (
    render_survival,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
)
from repro.experiments.table1 import render_table1, run_table1
from repro.experiments.table2 import render_table2, run_table2
from repro.experiments.table3 import render_table3, run_table3
from repro.experiments.tuning import render_tuning, run_tuning
from repro.experiments.weak_hypothesis import (
    render_weak_hypothesis,
    run_weak_hypothesis,
)

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "experiment_names",
    "run_experiment",
    "run_experiment_instrumented",
    "run_experiments",
]


@dataclass(frozen=True)
class Experiment:
    """One regenerable paper artifact."""

    name: str
    paper_artifact: str
    run: Callable[[], object]
    render: Callable[[object], str]


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        "table1",
        "Table 1: live storage in a non-predictive collector",
        run_table1,
        render_table1,
    ),
    Experiment(
        "figure1",
        "Figure 1: relative mark/cons overhead curves",
        run_figure1,
        render_figure1,
    ),
    Experiment(
        "table2", "Table 2: the six benchmarks", run_table2, render_table2
    ),
    Experiment(
        "table3",
        "Table 3: allocation and gc overheads",
        run_table3,
        render_table3,
    ),
    Experiment(
        "figure2",
        "Figure 2: live storage, one dynamic iteration",
        run_figure2,
        render_profile,
    ),
    Experiment(
        "table4",
        "Table 4: survival by age, one dynamic iteration",
        run_table4,
        render_survival,
    ),
    Experiment(
        "table5",
        "Table 5: survival by age, full 10dynamic",
        run_table5,
        render_survival,
    ),
    Experiment(
        "figure3",
        "Figure 3: live storage, nboyer",
        run_figure3,
        render_profile,
    ),
    Experiment(
        "table6",
        "Table 6: survival by age, nboyer",
        run_table6,
        render_survival,
    ),
    Experiment(
        "figure4",
        "Figure 4: live storage, sboyer",
        run_figure4,
        render_profile,
    ),
    Experiment(
        "table7",
        "Table 7: survival by age, sboyer",
        run_table7,
        render_survival,
    ),
    Experiment(
        "equilibrium",
        "Equation 1: decay-model equilibrium",
        run_equilibrium,
        render_equilibrium,
    ),
    Experiment(
        "antiprediction",
        "Section 3: conventional generational loses, non-predictive wins",
        run_antiprediction,
        render_antiprediction,
    ),
    Experiment(
        "tuning",
        "Section 8.1: tuning-parameter ablation",
        run_tuning,
        render_tuning,
    ),
    Experiment(
        "remset",
        "Section 8.3: remembered-set growth and the j valve",
        run_remset_growth,
        render_remset_growth,
    ),
    Experiment(
        "hazard",
        "Section 9: survival-rate regimes vs. collector choice",
        run_hazard,
        render_hazard,
    ),
    Experiment(
        "promotion",
        "Section 9: promotion-policy ablation (tenuring vs. promote-all)",
        run_promotion,
        render_promotion,
    ),
    Experiment(
        "weakhyp",
        "Section 7: the weak-hypothesis regime, where conventional wins",
        run_weak_hypothesis,
        render_weak_hypothesis,
    ),
)


def experiment_names() -> list[str]:
    return [experiment.name for experiment in EXPERIMENTS]


def run_experiment(name: str) -> tuple[object, str]:
    """Run one experiment by name; returns (result, rendered text)."""
    for experiment in EXPERIMENTS:
        if experiment.name == name:
            result = experiment.run()
            return result, experiment.render(result)
    raise KeyError(
        f"unknown experiment {name!r}; available: {experiment_names()}"
    )


def run_experiment_instrumented(name: str):
    """Run one experiment with the metrics plane armed.

    Every collector the experiment constructs self-attaches to a
    process-wide :class:`~repro.metrics.instrument.MetricsSession`, so
    experiments gain pause histograms, the mark/cons decomposition,
    and the telemetry event stream without any change to their code.
    Returns ``(result, rendered text, session)``.  Instrumentation is
    read-only, so the result is byte-identical to an uninstrumented
    run (the metrics-off invariance tests pin this).
    """
    from repro.metrics.instrument import metrics_session

    with metrics_session() as session:
        result, text = run_experiment(name)
    return result, text, session


def run_experiments(
    names=None,
    *,
    jobs=1,
    cache=None,
    timeout=None,
    retries=1,
    failures=None,
):
    """Regenerate several artifacts, optionally in parallel and cached.

    A thin front door over
    :func:`repro.perf.parallel.run_experiment_records` (imported
    lazily; the perf layer imports this module from its workers).
    Defaults to the full registry in registry order; returns
    :class:`~repro.perf.parallel.ExperimentRecord` objects, which carry
    the rendered text and the JSON-able payload rather than live result
    objects — see that module for why.  The resilience knobs
    (``timeout``, ``retries``, ``failures``) pass through
    to the hardened engine untouched; a quarantined experiment's name
    is absent from the returned records and described in ``failures``.
    """
    from repro.perf.parallel import run_experiment_records

    if names is None:
        names = experiment_names()
    unknown = set(names) - set(experiment_names())
    if unknown:
        raise KeyError(
            f"unknown experiments {sorted(unknown)}; "
            f"available: {experiment_names()}"
        )
    return run_experiment_records(
        list(names),
        jobs=jobs,
        cache=cache,
        timeout=timeout,
        retries=retries,
        failures=failures,
    )


def register(subparsers) -> None:
    """``repro-gc list``, ``experiment`` and ``all``."""
    from repro.cli import (
        experiment_selection,
        non_negative_int,
        positive_float,
        positive_int,
    )

    sub = subparsers.add_parser("list", help="list experiments and benchmarks")
    sub.set_defaults(func=_cmd_list)

    sub = subparsers.add_parser(
        "experiment", help="regenerate one paper artifact"
    )
    sub.add_argument("name", choices=experiment_names())
    sub.add_argument(
        "--json",
        action="store_true",
        help="emit the result as JSON instead of rendered text",
    )
    sub.set_defaults(func=_cmd_experiment)

    sub = subparsers.add_parser("all", help="regenerate every artifact")
    sub.add_argument(
        "--output",
        help="also write each artifact's text and JSON into this directory",
    )
    sub.add_argument(
        "--only",
        type=experiment_selection,
        help="comma-separated experiment names to regenerate",
    )
    sub.add_argument(
        "--jobs",
        type=positive_int,
        default=1,
        help="worker processes for independent experiments (default: 1)",
    )
    sub.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not update the artifact cache (.repro_cache/)",
    )
    sub.add_argument(
        "--task-timeout",
        type=positive_float,
        help=(
            "per-experiment wall-clock budget in seconds when running "
            "with --jobs > 1 (default: none)"
        ),
    )
    sub.add_argument(
        "--retries",
        type=non_negative_int,
        default=1,
        help=(
            "extra attempts before a failing experiment is "
            "quarantined (default: 1)"
        ),
    )
    sub.set_defaults(func=_cmd_all)


def _cmd_list(_args) -> int:
    from repro.programs.registry import BENCHMARKS, EXTRA_BENCHMARKS

    print("experiments:")
    for experiment in EXPERIMENTS:
        print(f"  {experiment.name:<14} {experiment.paper_artifact}")
    print()
    print("benchmarks (the paper's Table 2):")
    for benchmark in BENCHMARKS:
        print(f"  {benchmark.name:<14} {benchmark.description}")
    print()
    print("extra workloads:")
    for benchmark in EXTRA_BENCHMARKS:
        print(f"  {benchmark.name:<14} {benchmark.description}")
    return 0


def _cmd_experiment(args) -> int:
    import json

    from repro.experiments.export import to_jsonable

    result, text = run_experiment(args.name)
    print(json.dumps(to_jsonable(result), indent=2) if args.json else text)
    return 0


def _cmd_all(args) -> int:
    import time
    from pathlib import Path

    from repro.perf.cache import ArtifactCache
    from repro.resilience.atomic import atomic_write_json, atomic_write_text

    selected = EXPERIMENTS
    if args.only:
        selected = tuple(e for e in EXPERIMENTS if e.name in args.only)
    output = Path(args.output) if args.output else None
    if output is not None:
        output.mkdir(parents=True, exist_ok=True)
    cache = None if args.no_cache else ArtifactCache.default()

    names = [experiment.name for experiment in selected]
    failures: list = []
    start = time.perf_counter()
    records = run_experiments(
        names,
        jobs=args.jobs,
        cache=cache,
        timeout=args.task_timeout,
        retries=args.retries,
        failures=failures,
    )
    wall_seconds = time.perf_counter() - start
    by_name = {record.name: record for record in records}
    for experiment in selected:
        record = by_name.get(experiment.name)
        print(f"=== {experiment.name}: {experiment.paper_artifact} ===")
        if record is None:
            print("(quarantined — see the failure report below)")
            print()
            continue
        print(record.text)
        print()
        if output is not None:
            atomic_write_text(
                output / f"{experiment.name}.txt", record.text + "\n"
            )
            atomic_write_json(
                output / f"{experiment.name}.json", record.payload
            )
    if output is not None:
        print(f"artifacts written to {output}/")
        print()
    cache_hits = sum(1 for record in records if record.cached)
    print("=== timing ===")
    print(f"{'experiment':<16} {'seconds':>8}  source")
    for record in records:
        source = "cache" if record.cached else "run"
        print(f"{record.name:<16} {record.seconds:>8.2f}  {source}")
    print(
        f"{'TOTAL (wall)':<16} {wall_seconds:>8.2f}  "
        f"jobs={args.jobs}, cache hits {cache_hits}/{len(records)}"
    )
    if failures:
        print()
        print(f"[FAIL] {len(failures)} experiment(s) quarantined:")
        for failure in failures:
            print(f"  - {failure.summary()}")
        print("rerun to retry just them")
        return 1
    return 0
