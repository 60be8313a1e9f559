"""Compare two sides of benchmark results, metric by metric.

``python bench/compare.py A.json B.json``
    One results file a side (``bench/out/results.json`` as written by
    ``run.py``): parent first, change second.

``python bench/compare.py --parent a1.json a2.json ... --change b1.json ...``
    Several runs a side, as a performance claim needs them: each side's
    value is the median over its runs and the spread is the distance
    between the quartiles of those runs as a share of their median.

One row per workload and metric — every ``end_to_end`` metric of
``BENCHMARK.json`` with its bound, then the ledger metrics untraced runs
also record (per-kind rates and the exact counts) with the bounds in
``harness.LEDGER_BOUNDS`` — showing both values, the ratio, the bound
and a verdict:

``ok``          not worse than the parent by more than the bound
``worse``       worse by more than the bound
``unresolved``  the run-to-run spread exceeds the bound, so the runs
                cannot tell (unless every run of the change reads
                better than every run of the parent, which is ``ok``);
                needs at least three runs on a side to be detected
``changed``     an exact count differs at the same seed
``n/a``         an exact count, but the sides used different seeds

Exit code 1 if any row is ``worse`` or ``changed``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402


def metric_table(catalogue: dict[str, Any]) -> list[dict[str, Any]]:
    """Every compared metric: name, direction, bound, exactness."""
    table = [
        {**entry, "exact": False} for entry in catalogue["end_to_end"]
    ]
    directions = {
        entry["name"]: entry["better"] for entry in catalogue["per_layer"]
    }
    for name, bound in harness.LEDGER_BOUNDS.items():
        table.append(
            {
                "name": name,
                "better": directions[name],
                "bound": bound,
                "exact": name in harness.EXACT_METRICS,
            }
        )
    return table


def values_of(
    documents: list[dict[str, Any]], workload: str, name: str
) -> list[float]:
    """The metric's value in each run that has it."""
    values = []
    for document in documents:
        run = document["workloads"].get(workload, {}).get("end_to_end")
        if run is None:
            continue
        row = run["metrics"].get(name) or run.get("ledger", {}).get(name)
        if row is not None:
            values.append(row["value"])
    return values


def verdict_for(
    metric: dict[str, Any],
    parent: list[float],
    change: list[float],
    same_seeds: bool,
) -> tuple[str, float]:
    """The row's verdict and the spread it was judged against."""
    if metric["exact"]:
        if not same_seeds:
            return "n/a", 0.0
        return ("ok" if set(parent) == set(change) else "changed"), 0.0
    a, b = harness.median(parent), harness.median(change)
    higher = metric["better"] == "higher"
    worse_by = (a - b) / a if higher else (b - a) / a
    spread = max(harness.spread(parent), harness.spread(change))
    if spread > metric["bound"]:
        clear_win = (
            min(change) > max(parent) if higher else max(change) < min(parent)
        )
        return ("ok" if clear_win else "unresolved"), spread
    return ("worse" if worse_by > metric["bound"] else "ok"), spread


def compare(
    parents: list[dict[str, Any]] | dict[str, Any],
    changes: list[dict[str, Any]] | dict[str, Any],
    catalogue: dict[str, Any],
) -> list[dict[str, Any]]:
    parents = parents if isinstance(parents, list) else [parents]
    changes = changes if isinstance(changes, list) else [changes]
    seeds = {document["seed"] for document in parents + changes}
    rows = []
    for workload in harness.workload_names(catalogue):
        for metric in metric_table(catalogue):
            parent = values_of(parents, workload, metric["name"])
            change = values_of(changes, workload, metric["name"])
            if not parent or not change:
                continue
            verdict, spread = verdict_for(
                metric, parent, change, len(seeds) == 1
            )
            a, b = harness.median(parent), harness.median(change)
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "better": metric["better"],
                    "parent": a,
                    "change": b,
                    "ratio": b / a if a else float("nan"),
                    "bound": metric["bound"],
                    "spread": spread,
                    "runs": [len(parent), len(change)],
                    "verdict": verdict,
                }
            )
    return rows


def render(rows: list[dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<13} {'metric':<28} {'parent':>12} {'change':>12} "
        f"{'ratio':>7} {'bound':>6} {'spread':>7}  verdict"
    ]
    for row in rows:
        runs = row["runs"]
        spread = f"{row['spread']:.3f}" if min(runs) >= 3 else "-"
        lines.append(
            f"{row['workload']:<13} {row['metric']:<28} "
            f"{row['parent']:>12.6g} {row['change']:>12.6g} "
            f"{row['ratio']:>7.3f} {row['bound']:>6.2f} {spread:>7}  "
            f"{row['verdict']}"
        )
    if rows and min(min(row["runs"]) for row in rows) < 3:
        lines.append(
            "fewer than three runs on a side: run-to-run spread unknown, "
            "so no row can read 'unresolved'"
        )
    return "\n".join(lines)


def load(paths: list[str]) -> list[dict[str, Any]]:
    documents = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return documents


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("files", nargs="*", help="A.json B.json")
    parser.add_argument("--parent", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    args = parser.parse_args(argv)
    if len(args.files) == 2 and not (args.parent or args.change):
        parent, change = [args.files[0]], [args.files[1]]
    elif args.parent and args.change and not args.files:
        parent, change = args.parent, args.change
    else:
        parser.error("give A.json B.json, or --parent ... --change ...")
    rows = compare(load(parent), load(change), harness.load_catalogue())
    print(render(rows))
    bad = [row for row in rows if row["verdict"] in ("worse", "changed")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
