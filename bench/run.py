"""The committed benchmark's one command.

Two ways in:

``python bench/run.py [--seed N] [--workload NAME] [--quick]``
    The whole benchmark: every workload (or the one named) in its own
    fresh child interpreter, first untraced for the end-to-end
    metrics, then a separate traced run for the per-layer metrics.
    Prints every metric by name with its unit, checks the outputs,
    checks that traced and untraced runs agree on every exact count,
    and writes ``bench/out/results.json``.  ``--repeat-check`` instead
    runs the end-to-end set twice and compares the two with
    ``compare.py``'s rule (``--repeat-check 6``: three sets a side,
    which is what it takes to see a run-to-run spread).

``python bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload in this process, as the benchmark driver
    calls it.  The last line of standard output is one JSON object:
    ``correct``, ``attempted``, ``failed`` and ``metrics`` (every
    ``end_to_end`` metric of ``BENCHMARK.json`` with ``--trace 0``,
    every ``per_layer`` metric with ``--trace 1``).

Exit code 0 means every output check passed and no operation failed.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from harness import BenchFailure, RunResult  # noqa: E402

CHILD_TIMEOUT_S = 600


def run_single(args: argparse.Namespace, catalogue: dict[str, Any]) -> int:
    """One workload, one pass, in this process."""
    environment = harness.environment_record()
    result = RunResult(args.workload, args.seed, bool(args.trace))
    zeros = dict.fromkeys(harness.metric_units(catalogue, "per_layer"), 0.0)
    if args.workload.startswith("serve-"):
        import serve

        import_s = time.perf_counter() - _STARTED
        if args.trace:
            serve.run_traced(
                result, args.workload, args.seed, args.quick, zeros
            )
        else:
            serve.run_end_to_end(
                result, args.workload, args.seed, args.seconds, args.quick,
                import_s,
            )
    else:
        if args.workload == "alloc-decay":
            import alloc as module
        else:
            import programs as module

        import_s = time.perf_counter() - _STARTED
        if args.trace:
            module.run_traced(result, args.seed, args.quick, zeros)
        else:
            module.run_end_to_end(
                result, args.seed, args.seconds, args.quick, import_s
            )
    # Pool workers (the concurrent collector's marker) are told to stop
    # when their collector closes; do not leave before they have.
    for child in multiprocessing.active_children():
        child.join(timeout=30)
    result.detail["environment"] = environment
    result.detail["import_s"] = import_s
    result.detail["quick"] = args.quick
    result.detail["seconds_requested"] = args.seconds
    return harness.finish(result, catalogue)


# ----------------------------------------------------------------------
# The whole benchmark
# ----------------------------------------------------------------------


def run_child(
    workload: str, seed: int, seconds: float, trace: int, quick: bool
) -> dict[str, Any]:
    """One run in a fresh interpreter; returns its detail record."""
    command = [
        sys.executable, str(harness.BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if quick:
        command.append("--quick")
    completed = subprocess.run(
        command, cwd=harness.ROOT, timeout=CHILD_TIMEOUT_S
    )
    record_path = harness.OUT_DIR / f"run-{workload}-trace{trace}.json"
    if completed.returncode not in (0, 1) or not record_path.exists():
        raise BenchFailure(
            f"{workload} (trace {trace}) exited with code "
            f"{completed.returncode} and no result"
        )
    with record_path.open(encoding="utf-8") as handle:
        return json.load(handle)


def run_set(
    workloads: list[str],
    seed: int,
    seconds: float,
    quick: bool,
    traced: bool,
) -> dict[str, Any]:
    """Every workload once (twice with ``traced``); one results document."""
    document: dict[str, Any] = {
        "schema": 1,
        "seed": seed,
        "quick": quick,
        "run_seconds": seconds,
        "environment": harness.environment_record(),
        "workloads": {},
    }
    for workload in workloads:
        entry: dict[str, Any] = {
            "end_to_end": run_child(workload, seed, seconds, 0, quick)
        }
        if traced:
            entry["per_layer"] = run_child(workload, seed, seconds, 1, quick)
            agree = entry["per_layer"]["exact"] == entry["end_to_end"]["exact"]
            entry["traced_counts_agree"] = agree
            print(
                f"{workload}: traced and untraced runs "
                f"{'agree' if agree else 'DISAGREE'} on every exact count"
            )
        document["workloads"][workload] = entry
    return document


def set_is_correct(document: dict[str, Any]) -> bool:
    return all(
        run["correct"]
        for entry in document["workloads"].values()
        for run in (entry["end_to_end"], entry.get("per_layer"))
        if run is not None
    ) and all(
        entry.get("traced_counts_agree", True)
        for entry in document["workloads"].values()
    )


def run_suite(args: argparse.Namespace, catalogue: dict[str, Any]) -> int:
    known = harness.workload_names(catalogue)
    workloads = [args.workload] if args.workload else known
    seconds = args.seconds
    if args.repeat_check:
        import compare

        # Sets alternate between the two sides, so a drift of the host
        # lands on both.
        sides: tuple[list, list] = ([], [])
        for index in range(args.repeat_check):
            document = run_set(workloads, args.seed, seconds, args.quick, False)
            harness.write_json(
                harness.OUT_DIR / f"repeat-{'ab'[index % 2]}{index // 2}.json",
                document,
            )
            sides[index % 2].append(document)
        rows = compare.compare(sides[0], sides[1], catalogue)
        print(compare.render(rows))
        verdicts = {row["verdict"] for row in rows}
        ok = all(
            set_is_correct(document) for document in sides[0] + sides[1]
        ) and not verdicts & {"worse", "changed"}
        return 0 if ok else 1
    document = run_set(workloads, args.seed, seconds, args.quick, True)
    harness.write_json(harness.OUT_DIR / "results.json", document)
    print(f"wrote {harness.OUT_DIR / 'results.json'}")
    failed = sum(
        entry["end_to_end"]["failed"]
        for entry in document["workloads"].values()
    )
    print(f"failed operations across workloads: {failed}")
    return 0 if set_is_correct(document) else 1


def main(argv: list[str] | None = None) -> int:
    catalogue = harness.load_catalogue()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument(
        "--workload", choices=harness.workload_names(catalogue)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(catalogue["run_seconds"]),
        help="timed phase per run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="single run: 0 end-to-end metrics, 1 per-layer metrics",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes, for bench/test_bench.py; numbers mean nothing",
    )
    parser.add_argument(
        "--repeat-check", type=int, nargs="?", const=2, default=0,
        metavar="SETS",
        help="run the end-to-end set SETS times (default 2, even),\n"
        "alternating sides, and compare the sides as compare.py does",
    )
    args = parser.parse_args(argv)
    try:
        if args.repeat_check % 2:
            parser.error("--repeat-check needs an even number of sets")
        if args.trace is not None:
            if args.workload is None:
                parser.error("--trace needs --workload")
            return run_single(args, catalogue)
        return run_suite(args, catalogue)
    except BenchFailure as failure:
        print(f"bench: {failure}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
