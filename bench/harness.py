"""Shared plumbing for the committed benchmark.

Everything a workload module needs that is not the workload itself:
the metric catalogue read from ``BENCHMARK.json`` (the single list of
names, units, directions and bounds), small order statistics, an
in-memory span recorder, the environment record attached to every
result, and the one place a run's last output line is produced.

The benchmark measures ``src/repro`` strictly from outside: workload
modules time calls into public functions and read public counters.
Nothing here imports ``repro`` — :func:`add_source_path` makes it
importable for the modules that do.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Collector kinds in registry order.  Spelled out (not imported) so
#: the catalogue check below also notices a kind added to the registry
#: without a matching ``words_per_s.<kind>`` metric.
KINDS = (
    "mark-sweep",
    "stop-and-copy",
    "generational",
    "non-predictive",
    "hybrid",
    "incremental",
    "concurrent",
)

#: Counts in the paper's allocation-time units.  At one seed they must
#: repeat exactly: a change that only makes the host faster leaves them
#: identical, traced and untraced runs must agree on them, and
#: ``compare.py`` reports any difference as ``changed``.
EXACT_METRICS = ("mark_cons_ratio", "pause_words_max")

#: Metrics every *untraced* run also measures, although
#: ``BENCHMARK.json`` lists them under ``per_layer``.  The driver runs
#: each workload at ten seeds and wants every end-to-end metric steady
#: across them on every workload.  These are steady only where they mean
#: something (a collector kind's own rate on the in-process workloads;
#: the exact counts at one seed) or, for the 90th-percentile latency, not
#: steady enough on this host for any bound the driver allows, so they
#: cannot sit in ``end_to_end``.  They stay in the results file with the
#: bound the issue gave them, and ``compare.py`` holds them to it.
LEDGER_BOUNDS = {
    "request_latency_p90_ms": 0.15,
    **{f"words_per_s.{kind}": 0.10 for kind in KINDS},
    **{name: 0.0 for name in EXACT_METRICS},
}


class BenchFailure(Exception):
    """The benchmark cannot produce a result (not an output-check miss)."""


def add_source_path() -> None:
    """Make ``repro`` importable from this checkout's ``src/``."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        raise BenchFailure(
            f"{source}/repro not found: the benchmark measures the "
            f"program in this checkout and there is none"
        )
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))


def child_env() -> dict[str, str]:
    """Environment for subprocesses: this checkout's source first, and
    none of the ``REPRO_*`` knobs that would change what is measured."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + inherited if inherited else ""
    )
    return env


# ----------------------------------------------------------------------
# The catalogue
# ----------------------------------------------------------------------


def load_catalogue() -> dict[str, Any]:
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


def workload_names(catalogue: dict[str, Any]) -> list[str]:
    return [entry["name"] for entry in catalogue["workloads"]]


def metric_units(catalogue: dict[str, Any], section: str) -> dict[str, str]:
    """``name -> unit`` for ``end_to_end`` or ``per_layer``."""
    return {entry["name"]: entry["unit"] for entry in catalogue[section]}


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------


def median(values: Iterable[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def geometric_mean(values: Iterable[float]) -> float:
    logs = [math.log(value) for value in values]
    return math.exp(sum(logs) / len(logs))


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 below 3
    samples, where quartiles say nothing)."""
    if len(values) < 3:
        return 0.0
    first, middle, third = statistics.quantiles(values, n=4)
    return (third - first) / middle if middle else 0.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class Tracer:
    """In-memory spans: ``[layer, start, end, parent, correlation id]``.

    ``parent`` is the index of the enclosing span (``None`` at the
    top), so a layer's self time is its duration minus its children's.
    Spans are only written out by :meth:`dump`, after the run.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.origin = time.perf_counter()

    def call(
        self,
        layer: str,
        cid: object,
        func: Callable[..., Any],
        *args: Any,
    ) -> Any:
        """Run ``func(*args)`` inside a span."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [layer, 0.0, 0.0, parent, cid]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            return func(*args)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def dump(self, path: Path, **header: Any) -> None:
        origin = self.origin
        document = dict(header)
        document["columns"] = ["layer", "start_s", "end_s", "parent", "cid"]
        document["spans"] = [
            [layer, round(start - origin, 7), round(end - origin, 7), parent, cid]
            for layer, start, end, parent, cid in self.spans
        ]
        write_json(path, document, indent=None)


def plain_call(
    layer: str, cid: object, func: Callable[..., Any], *args: Any
) -> Any:
    """:meth:`Tracer.call` without the span: what a span-free pass uses
    so that both passes run the same code."""
    return func(*args)


# ----------------------------------------------------------------------
# Environment and files
# ----------------------------------------------------------------------


def allowed_cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0))


def environment_record() -> dict[str, Any]:
    """What the numbers were measured on (taken at process start)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "allowed_cpus": allowed_cpus(),
        "loadavg_1m": os.getloadavg()[0],
        "platform": platform.platform(),
    }


def self_peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def close_collector(collector: Any) -> None:
    """Release a collector's worker pool, if it has one."""
    close = getattr(collector, "close", None)
    if close is not None:
        close()


def write_json(path: Path, document: Any, *, indent: int | None = 2) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=indent, sort_keys=indent is not None)
        handle.write("\n")


# ----------------------------------------------------------------------
# The result of one run
# ----------------------------------------------------------------------


class RunResult:
    """One workload run: metrics, operation counts, output checks.

    Workloads :meth:`put` every metric they measure and :meth:`check`
    every output they verify; :func:`finish` prints the named metrics
    and the final JSON line the driver parses.
    """

    def __init__(self, workload: str, seed: int, traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        #: Per-round (or per-sample) values behind a metric's median.
        self.samples: dict[str, list[float]] = {}
        self.failures: list[str] = []
        self.checks = 0
        #: Exact counts, for the traced/untraced agreement check.
        self.exact: dict[str, Any] = {}
        #: Timed end-to-end metrics in host seconds, before the
        #: host-speed correction (see ``hostspeed``).
        self.raw: dict[str, float] = {}
        self.detail: dict[str, Any] = {}

    def put(
        self, name: str, value: float, samples: Sequence[float] | None = None
    ) -> None:
        self.metrics[name] = value
        if samples is not None:
            self.samples[name] = list(samples)

    def put_median(self, name: str, samples: Sequence[float]) -> None:
        self.put(name, median(samples), samples)

    def operation(self, ok: bool) -> None:
        """Count one attempted operation and whether it failed."""
        self.attempted += 1
        self.failed += 0 if ok else 1

    def put_setup(
        self, import_s: float, samples: Sequence[tuple[float, float]]
    ) -> None:
        """``setup_s`` from repeated set-ups, each given as its host
        seconds and its host-speed factor.  The interpreter's start and
        the imports, which happen once, take the first set-up's factor."""
        corrected = [seconds * factor for seconds, factor in samples]
        self.put(
            "setup_s", import_s * samples[0][1] + median(corrected), corrected
        )
        self.raw["setup_s"] = import_s + median(s for s, _ in samples)

    def put_cell_timing(
        self,
        rounds: Sequence[Sequence[float]],
        host_rounds: Sequence[Sequence[float]],
    ) -> None:
        """The request metrics of an in-process workload, where a
        request is one cell: ``rounds`` holds each round's cell times in
        reference seconds, ``host_rounds`` the same in host seconds."""

        def timing(source: Sequence[Sequence[float]]) -> dict[str, float]:
            return {
                "requests_per_s": median(
                    len(cells) / sum(cells) for cells in source
                ),
                **{
                    f"request_latency_{name}_ms": median(
                        1e3 * percentile(cells, q) for cells in source
                    )
                    for name, q in (("p50", 0.50), ("p90", 0.90))
                },
            }

        self.metrics.update(timing(rounds))
        self.raw.update(timing(host_rounds))
        self.detail["cell_seconds_host"] = [list(c) for c in host_rounds]

    def check(self, condition: bool, message: str) -> bool:
        """Record one output check; a miss makes the run incorrect."""
        self.checks += 1
        if not condition:
            self.failures.append(message)
        return condition

    @property
    def correct(self) -> bool:
        return not self.failures and self.failed == 0


def finish(result: RunResult, catalogue: dict[str, Any]) -> int:
    """Print every metric by name, then the driver's JSON line.

    An untraced run must have produced every ``end_to_end`` metric (the
    JSON line carries exactly those) and may add the ledger metrics of
    :data:`LEDGER_BOUNDS`; a traced run must have produced exactly the
    ``per_layer`` metrics.  Returns the process exit code: 0 only for a
    correct run.
    """
    layer_units = metric_units(catalogue, "per_layer")
    if result.traced:
        units, also = layer_units, {}
    else:
        units = metric_units(catalogue, "end_to_end")
        also = {name: layer_units[name] for name in LEDGER_BOUNDS}
    missing = sorted(set(units) - set(result.metrics))
    unknown = sorted(set(result.metrics) - set(units) - set(also))
    if missing or unknown:
        raise BenchFailure(
            f"{result.workload}: metrics out of step with BENCHMARK.json "
            f"(missing {missing}, unlisted {unknown})"
        )

    def rows(names: dict[str, str]) -> dict[str, dict[str, Any]]:
        return {
            name: {"value": result.metrics[name], "unit": unit}
            for name, unit in names.items()
            if name in result.metrics
        }

    def show(names: dict[str, str]) -> None:
        for name, row in rows(names).items():
            samples = result.samples.get(name)
            note = f"  [{len(samples)} samples]" if samples else ""
            print(f"{name:<44} {row['value']:>16.6g} {row['unit']}{note}")

    print(
        f"== {result.workload} seed={result.seed} "
        f"{'per-layer (traced)' if result.traced else 'end-to-end'} =="
    )
    show(units)
    if also:
        print("-- also measured untraced (listed under per_layer) --")
        show(also)
    print(
        f"operations: attempted={result.attempted} "
        f"succeeded={result.attempted - result.failed} "
        f"failed={result.failed}; output checks: {result.checks} run, "
        f"{len(result.failures)} missed"
    )
    for message in result.failures[:20]:
        print(f"CHECK FAILED: {message}")

    write_json(
        OUT_DIR / f"run-{result.workload}-trace{int(result.traced)}.json",
        {
            "workload": result.workload,
            "seed": result.seed,
            "traced": result.traced,
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "checks": result.checks,
            "failures": result.failures,
            "metrics": rows(units),
            "ledger": rows(also),
            "samples": result.samples,
            "raw": result.raw,
            "exact": result.exact,
            "detail": result.detail,
        },
    )
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": rows(units),
            }
        ),
        flush=True,
    )
    return 0 if result.correct else 1
