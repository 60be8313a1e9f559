"""Command-line interface: ``repro-gc`` (or ``python -m repro``).

Subcommands:

* ``list`` — show the available experiments and benchmarks;
* ``experiment NAME`` — regenerate one paper artifact (table1,
  figure1, table3, ...) and print it;
* ``all [--jobs N] [--no-cache] [--resume]`` — regenerate every
  artifact in order, fanning independent experiments across worker
  processes, serving unchanged artifacts from the ``.repro_cache/``
  artifact cache, and printing a per-experiment wall-clock table.
  Every completion is journalled to ``.repro_cache/journal.json``;
  ``--resume`` picks a killed sweep up where it stopped.  Per-task
  timeouts and retry budgets come from ``--task-timeout``/``--retries``
  (or the ``REPRO_TASK_TIMEOUT``/``REPRO_TASK_RETRIES`` environment
  knobs); a task that exhausts its retries is quarantined and reported
  without sinking the rest of the sweep;
* ``chaos`` — fault-injection harness: corrupt live collector state
  mid-replay (dangling slots, dropped remset entries, stale forwards,
  skipped roots, mis-renumbered steps) and require the verify layer to
  detect every corruption, printing the fault x collector detection
  matrix (``--output`` exports it as JSON; ``--safepoint`` defers each
  injection to a mutator safepoint with a live mark wavefront — an
  incremental gray stack or a concurrent marker holding its
  snapshot);
* ``metrics`` — the observability plane: run an experiment (default
  antiprediction) or a seeded collector sweep with the
  :mod:`repro.metrics` instrumentation armed, and render pause-cost
  histograms (p50/p95/max in words of work) plus the
  mark/copy/sweep/root decomposition; ``--json``/``--prometheus``
  switch the output format, ``--events`` dumps the NDJSON telemetry
  stream, ``--overhead`` checks the plane's wall-clock cost;
* ``bench NAME --collector KIND`` — run one of the six benchmarks
  under a chosen collector and print its GC statistics;
* ``analyze`` — print Section 5 quantities for a given (g, L);
* ``trace record|survival|profile`` — record a benchmark's lifetime
  trace to a file and re-analyze it offline;
* ``validate`` — run the reproduction self-check;
* ``verify`` — equivalence testing: replay one deterministic mutator
  script under every collector and require identical live graphs,
  shrinking any counterexample; at most one of ``--budgets``,
  ``--concurrent`` and ``--resume`` picks another suite of
  :mod:`repro.verify.differential` to run the same way;
* ``snapshot save|load|verify`` — crash-consistent heap snapshots:
  checkpoint a live collector (heap contents, roots, collector state,
  stats) to a versioned, checksummed JSON file via the atomic write
  helpers, validate a file's integrity, or restore one into a fresh
  context;
* ``slo`` — the pause SLO gate: p99 incremental pause at most 1/50 of
  mark-sweep's full-collection p99, and p99 concurrent
  mutator-visible pause (handoff + reconcile) at most the incremental
  p99, on the decay and gcbench workloads, persisted to
  ``SLO_pause.json``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core import analysis
from repro.experiments.export import to_jsonable
from repro.experiments.harness import run_benchmark_under
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.experiments.validate import run_validation
from repro.gc.registry import COLLECTOR_KINDS
from repro.programs.registry import (
    BENCHMARKS,
    EXTRA_BENCHMARKS,
    benchmark_names,
    get_benchmark,
)

__all__ = ["main"]

_COLLECTORS = COLLECTOR_KINDS


def _cmd_list(_: argparse.Namespace) -> int:
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


def _cmd_experiment(args: argparse.Namespace) -> int:
    result, text = run_experiment(args.name)
    if args.json:
        print(json.dumps(to_jsonable(result), indent=2))
    else:
        print(text)
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    import time
    from pathlib import Path

    from repro.experiments.runner import run_experiments
    from repro.perf.cache import CACHE_DIR_NAME, ArtifactCache, source_digest
    from repro.perf.parallel import default_jobs
    from repro.resilience.atomic import atomic_write_json, atomic_write_text
    from repro.resilience.journal import JOURNAL_FILENAME, SweepJournal

    jobs = args.jobs if args.jobs is not None else default_jobs()

    selected = EXPERIMENTS
    if args.only:
        wanted = {name.strip() for name in args.only.split(",")}
        unknown = wanted - {experiment.name for experiment in EXPERIMENTS}
        if unknown:
            raise SystemExit(f"unknown experiments: {sorted(unknown)}")
        selected = tuple(
            experiment
            for experiment in EXPERIMENTS
            if experiment.name in wanted
        )
    output = Path(args.output) if args.output else None
    if output is not None:
        output.mkdir(parents=True, exist_ok=True)
    cache = None if args.no_cache else ArtifactCache.default()

    names = [experiment.name for experiment in selected]
    digest = cache.digest if cache is not None else source_digest()
    journal_path = Path.cwd() / CACHE_DIR_NAME / JOURNAL_FILENAME
    if args.resume:
        journal = SweepJournal.resume(journal_path, names, digest)
        if journal.completed:
            print(
                f"resuming: {len(journal.completed)}/{len(names)} "
                f"experiments already journalled"
            )
    else:
        journal = SweepJournal.fresh(journal_path, names, digest)

    failures: list = []
    start = time.perf_counter()
    records = run_experiments(
        names,
        jobs=jobs,
        cache=cache,
        timeout=args.task_timeout,
        retries=args.retries,
        journal=journal,
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
        f"jobs={jobs}, cache hits {cache_hits}/{len(records)}"
    )
    if failures:
        print()
        print(f"[FAIL] {len(failures)} experiment(s) quarantined:")
        for failure in failures:
            print(f"  - {failure.summary()}")
        print(
            "the journal keeps their quarantine record; rerun with "
            "--resume to retry just them"
        )
        return 1
    # A fully successful sweep needs no resume point.
    journal.discard()
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.resilience.atomic import atomic_write_json
    from repro.resilience.chaos import (
        DetectionMatrix,
        run_chaos_matrix,
        run_snapshot_chaos,
    )

    events = None
    if args.events:
        from repro.metrics.events import EventStream

        events = EventStream()
    if args.collectors:
        collectors = tuple(args.collectors)
    elif args.safepoint:
        # Safepoint windows only open while a mark wavefront is live —
        # an in-thread incremental wavefront, or a concurrent cycle
        # whose marker holds the snapshot — so the mode targets the
        # two collectors that have one.
        collectors = ("incremental", "concurrent")
    else:
        collectors = _COLLECTORS
    matrix = run_chaos_matrix(
        seed=args.seed,
        op_count=args.ops,
        collectors=collectors,
        quick=args.quick,
        events=events,
        safepoint=args.safepoint,
    )
    if not args.safepoint:
        # The snapshot-corrupt family rides along with every default
        # sweep: corrupted checkpoint files must fail restore() with
        # 100% detection.  Safepoint mode targets mid-wavefront state
        # corruption specifically, so it keeps its focused matrix.
        snapshot_matrix = run_snapshot_chaos(
            seed=args.seed,
            op_count=args.ops,
            collectors=collectors,
            quick=args.quick,
            events=events,
        )
        matrix = DetectionMatrix(
            seed=matrix.seed,
            op_count=matrix.op_count,
            collectors=matrix.collectors,
            kinds=matrix.kinds + snapshot_matrix.kinds,
            outcomes=matrix.outcomes + snapshot_matrix.outcomes,
        )
    if events is not None:
        events.write(Path(args.events))
        print(f"{len(events)} telemetry events written to {args.events}")
    if args.json:
        print(json.dumps(matrix.to_json(), indent=2))
    else:
        print(matrix.render())
    if args.output:
        path = Path(args.output)
        atomic_write_json(path, matrix.to_json())
        print(f"detection matrix written to {path}")
    if not matrix.ok:
        print()
        for outcome in matrix.failures():
            print(
                f"[FAIL] {outcome.fault} x {outcome.collector}: "
                f"{outcome.status} — {outcome.detail}",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.metrics.export import (
        registries_to_jsonable,
        render_summary,
        to_prometheus,
    )

    if args.overhead:
        from repro.metrics.sweep import measure_overhead

        result = measure_overhead(repeats=args.repeats)
        ratio = result["overhead_ratio"]
        print(
            f"metrics-off: {result['metrics_off_seconds'] * 1000:.1f}ms  "
            f"metrics-on: {result['metrics_on_seconds'] * 1000:.1f}ms  "
            f"overhead: {100 * (ratio - 1):+.1f}%"
        )
        if ratio > 1.0 + args.overhead_tolerance:
            print(
                f"[FAIL] overhead exceeds "
                f"{100 * args.overhead_tolerance:.0f}%"
            )
            return 1
        print(
            f"[PASS] within the {100 * args.overhead_tolerance:.0f}% "
            f"overhead budget"
        )
        return 0

    stream = None
    if args.sweep:
        from repro.metrics.sweep import run_metrics_sweep
        from repro.perf.parallel import default_jobs

        jobs = args.jobs if args.jobs is not None else default_jobs()
        sweep = run_metrics_sweep(
            runs=args.runs, jobs=jobs, seed=args.seed, quick=args.quick
        )
        registries = list(sweep["collectors"].values())
        source = (
            f"decay sweep: {args.runs} run(s) per collector, "
            f"seed {args.seed}, jobs {jobs}"
        )
    else:
        from repro.experiments.runner import run_experiment_instrumented

        _result, _text, session = run_experiment_instrumented(
            args.experiment
        )
        registries = session.registries()
        stream = session.stream
        source = f"experiment: {args.experiment}"

    if args.json:
        print(json.dumps(registries_to_jsonable(registries), indent=2))
    elif args.prometheus:
        print(to_prometheus(registries), end="")
    else:
        print(f"metrics — {source}")
        print()
        print(render_summary(registries))
    if args.output:
        from repro.resilience.atomic import atomic_write_json

        path = Path(args.output)
        atomic_write_json(path, registries_to_jsonable(registries))
        print(f"metrics written to {path}")
    if args.events:
        path = Path(args.events)
        if stream is None:
            print(
                "repro-gc metrics: --events requires an experiment run "
                "(the sweep workers do not share one stream)",
                file=sys.stderr,
            )
            return 2
        stream.write(path)
        print(f"{len(stream)} events written to {path}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    benchmark = get_benchmark(args.name)
    outcome = run_benchmark_under(
        benchmark, args.collector, scale=args.scale
    )
    print(f"benchmark  : {outcome.benchmark}")
    print(f"collector  : {outcome.collector}")
    print(f"allocated  : {outcome.words_allocated:,} words")
    print(f"peak live  : {outcome.peak_live_words:,} words")
    print(f"gc work    : {outcome.gc_work:,} words")
    print(f"mark/cons  : {outcome.mark_cons:.4f}")
    print(f"gc/mutator : {100 * outcome.gc_mutator_ratio:.1f}%")
    print(
        f"collections: {outcome.collections} "
        f"({outcome.minor_collections} minor)"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.runtime.machine import Machine
    from repro.trace.collector import TracingCollector
    from repro.trace.io import load_trace, save_trace
    from repro.trace.profile import storage_profile
    from repro.trace.recorder import LifetimeRecorder
    from repro.trace.survival import survival_table

    if args.trace_command == "record":
        benchmark = get_benchmark(args.benchmark)
        # A dry run sizes the sampling epoch from the total allocation.
        dry = Machine(TracingCollector)
        benchmark.run(dry, args.scale)
        epoch = max(1, dry.stats.words_allocated // args.epochs)
        machine = Machine(TracingCollector)
        recorder = LifetimeRecorder(machine, epoch)
        benchmark.run(machine, args.scale)
        trace = recorder.finish()
        save_trace(trace, args.output)
        print(
            f"recorded {trace.object_count:,} objects "
            f"({trace.words_allocated:,} words, epoch {epoch:,}) "
            f"to {args.output}"
        )
        return 0
    try:
        trace = load_trace(args.file)
    except (OSError, ValueError) as exc:  # TraceFormatError, bad bytes
        print(
            f"repro-gc trace {args.trace_command}: error: {exc}",
            file=sys.stderr,
        )
        return 2
    span = max(1, trace.end_clock - trace.start_clock)
    if args.trace_command == "survival":
        age_step = args.age_step or max(1, span // 12)
        print(
            survival_table(
                trace, age_step, bracket_count=args.brackets
            ).to_text()
        )
        return 0
    epoch = args.epoch or max(1, span // 20)
    print(storage_profile(trace, epoch).to_text())
    return 0


def positive_int(token: str) -> int:
    """A count argument: an integer of at least 1.

    An argparse ``type``, named for the error text argparse builds
    from it ("invalid positive_int value"), so a bad count is a usage
    error (exit 2), never a traceback from deep inside the command.
    """
    value = int(token)
    if value < 1:
        raise ValueError(f"must be positive, got {value}")
    return value


def non_negative_int(token: str) -> int:
    """A ``--jobs``/``--retries`` argument, where 0 means none."""
    value = int(token)
    if value < 0:
        raise ValueError(f"must be non-negative, got {value}")
    return value


def slice_budget(token: str) -> int | None:
    """One ``verify --budgets`` value: a positive integer or ``inf``.

    An argparse ``type``, named for the error text argparse builds
    from it ("invalid slice_budget value").
    """
    if token in ("inf", "none"):
        return None
    value = int(token)
    if value < 1:
        raise ValueError(f"budget must be positive, got {value}")
    return value


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import SUITES, generate_script, shrink_script

    # The mode flags pick the suite and what it is built from.
    kinds = tuple(args.collectors)
    try:
        script = generate_script(
            args.ops, args.seed, max_live_words=args.max_live
        )
        if args.budgets is not None:
            name = "budgets"
            options = {"budgets": tuple(args.budgets)} if args.budgets else {}
        elif args.concurrent:
            name, options = "concurrent", {}
        elif args.resume:
            name = "resume"
            options = {"kinds": kinds, "resume_interval": args.resume_interval}
        else:
            name, options = "collectors", {"kinds": kinds}
        suite = SUITES[name](**options)
    except ValueError as exc:
        print(f"repro-gc verify: error: {exc}", file=sys.stderr)
        return 2
    checked = not args.unchecked
    # The budget, concurrent and resume suites keep the heading they
    # printed when they ran once per heap backend.
    heading = "" if name == "collectors" else "backend flat: "
    report = suite.run(script, checked=checked)
    if report.ok:
        print(f"[PASS] {heading}{report.summary()}")
        if name == "collectors":
            # The collector suite also lists every replay.
            for label, result in report.results.items():
                print(
                    f"       {label:<14} "
                    f"collections={result.collections:<4} "
                    f"checkpoints={len(result.checkpoints)}"
                )
        return 0
    print(f"[FAIL] {heading}{report.summary()}")
    if not args.no_shrink:
        where = f" ({heading[:-2]})" if heading else ""
        print()
        print(f"shrinking the counterexample{where} ...")

        def fails(candidate) -> bool:
            return not suite.run(candidate, checked=checked).ok

        small = shrink_script(script, fails)
        print(f"minimal failing script ({len(small.ops)} ops):")
        print(small.to_text())
        print()
        print(suite.run(small, checked=checked).summary())
    return 1


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.resilience.snapshot import (
        SnapshotError,
        checkpoint,
        load_snapshot,
        restore,
        save_snapshot,
    )

    path = Path(args.path)
    if args.snapshot_command == "save":
        from repro.gc.registry import collector_factory
        from repro.verify.differential import VERIFY_GEOMETRY
        from repro.verify.replay import ReplayContext, generate_script

        script = generate_script(args.ops, args.seed)
        context = ReplayContext(
            collector_factory(args.collector, VERIFY_GEOMETRY)
        )
        context.run(script)
        collector = context.collector
        document = checkpoint(collector, args.collector, VERIFY_GEOMETRY)
        save_snapshot(path, document)
        payload = document["payload"]
        print(
            f"snapshot of {args.collector} on backend "
            f"{payload['backend']} (clock {collector.heap.clock}, "
            f"{collector.heap.object_count} live objects) "
            f"written to {path}"
        )
        return 0
    try:
        document = load_snapshot(path)
    except SnapshotError as exc:
        print(f"[FAIL] {path}: {exc}", file=sys.stderr)
        return 1
    payload = document["payload"]
    descriptor = payload.get("collector", {})
    if args.snapshot_command == "verify":
        print(
            f"[PASS] {path}: valid version-{document['version']} "
            f"snapshot of {descriptor.get('kind')} on backend "
            f"{payload.get('backend')} "
            f"(checksum {document['checksum'][:12]}...)"
        )
        return 0
    try:
        heap, _roots, collector = restore(document)
    except SnapshotError as exc:
        print(f"[FAIL] {path}: {exc}", file=sys.stderr)
        return 1
    print(
        f"restored {collector.name} on backend {heap.backend_name}: "
        f"clock {heap.clock}, {heap.object_count} live "
        f"objects, {collector.stats.collections} collections on record"
    )
    return 0


def _cmd_validate(_: argparse.Namespace) -> int:
    results = run_validation()
    failures = 0
    for result in results:
        mark = "PASS" if result.passed else "FAIL"
        print(f"[{mark}] {result.name}")
        print(f"       {result.detail}")
        if not result.passed:
            failures += 1
    print()
    print(
        f"{len(results) - failures}/{len(results)} paper claims verified"
    )
    return 1 if failures else 0


def _cmd_slo(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.perf.slo import (
        SLO_FACTOR,
        SLO_FILENAME,
        run_pause_slo,
        write_slo_report,
    )

    mode = "quick" if args.quick else "full"
    print(
        f"pause SLO ({mode}): incremental p99 pause * {SLO_FACTOR} <= "
        f"mark-sweep full-collection p99, in words of work"
    )
    report = run_pause_slo(quick=args.quick, seed=args.seed)
    for name, verdict in report["workloads"].items():
        inc = verdict["incremental"]
        ratio = verdict["ratio"]
        mark = "PASS" if verdict["pass"] else "FAIL"
        print(
            f"[{mark}] {name:<8} incremental p99 "
            f"{inc['p99_pause_words']:>6} words over {inc['pauses']} "
            f"pauses vs full-GC p99 {verdict['full_p99_pause_words']:>6} "
            f"words (ratio 1/{ratio:.0f})"
            if ratio is not None
            else f"[{mark}] {name:<8} unmeasured — no pauses recorded"
        )
        conc = verdict.get("concurrent")
        if conc is not None:
            cmark = "PASS" if conc["pass"] else "FAIL"
            print(
                f"[{cmark}] {name:<8} concurrent mutator-visible p99 "
                f"{conc['p99_mutator_visible_pause_words']:>6} words over "
                f"{conc['pauses']} pauses vs incremental p99 "
                f"{conc['incremental_p99_pause_words']:>6} words"
                if conc["measured"]
                else f"[{cmark}] {name:<8} concurrent unmeasured — "
                f"no handoff pauses recorded"
            )
    if not args.no_write:
        path = Path(args.output) if args.output else Path.cwd() / SLO_FILENAME
        write_slo_report(path, report)
        print(f"written to {path.name}")
    return 0 if report["pass"] else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    g, load = args.g, args.load
    try:
        estimate = analysis.mark_cons_ratio(g, load)
        relative = analysis.relative_overhead(g, load)
        best = analysis.optimal_generation_fraction(load)
    except ValueError as exc:
        print(f"repro-gc analyze: error: {exc}", file=sys.stderr)
        return 2
    print(f"g = {g}, L = {load}")
    print(f"l(g,g)                    = {analysis.live_fraction(g, g, load):.4f}")
    print(
        f"stable equilibrium holds  = "
        f"{analysis.stable_equilibrium_holds(g, load)}"
    )
    print(
        f"mark/cons (non-predictive) = {estimate.value:.4f}"
        f" ({'exact' if estimate.exact else 'lower bound'})"
    )
    print(
        f"mark/cons (mark/sweep)     = "
        f"{analysis.nongenerational_mark_cons(load):.4f}"
    )
    print(f"relative overhead          = {relative.value:.4f}")
    print(
        f"optimal g for this L       = {best.g:.4f} "
        f"(overhead {best.relative_overhead:.4f})"
    )
    return 0


def _parse_kinds(text: str | None) -> tuple[str, ...]:
    from repro.gc.registry import COLLECTOR_KINDS

    if not text:
        return COLLECTOR_KINDS
    kinds = tuple(part.strip() for part in text.split(",") if part.strip())
    unknown = [kind for kind in kinds if kind not in COLLECTOR_KINDS]
    if unknown:
        raise SystemExit(
            f"unknown collector kind(s): {', '.join(unknown)} "
            f"(known: {', '.join(COLLECTOR_KINDS)})"
        )
    return kinds


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.server import HeapServer

    server = HeapServer(
        shards=args.shards,
        jobs=args.jobs,
        tenant_cap=args.tenant_cap,
        timeout=args.task_timeout,
        retries=args.task_retries,
    )

    async def run() -> None:
        port = await server.start(args.host, args.port)
        # The bound port on one parseable line, flushed immediately, so
        # scripts (and the CI smoke job) can serve on port 0 and read
        # back where the listener landed.
        print(f"repro-gc serve: listening on {args.host}:{port}", flush=True)
        print(
            f"  shards={args.shards} jobs={args.jobs} "
            f"tenant_cap={args.tenant_cap}",
            flush=True,
        )
        try:
            await server.serve_until_closed()
        finally:
            stats = server.stats()
            print(f"repro-gc serve: closed after {stats}", flush=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        # Ctrl-C cancels serve_until_closed before server.close() runs.
        server.executor.close()
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    import asyncio
    import json as json_module

    from repro.service.loadgen import build_plan, plan_fingerprint, run_load
    from repro.service.report import (
        build_scale_report,
        check_pause_regression,
        render_scale_report,
        validate_scale_report,
    )
    from repro.service.server import HeapServer

    plan = build_plan(
        args.tenants,
        seed=args.seed,
        profile=args.profile,
        kinds=_parse_kinds(args.kinds),
        ops_per_tenant=args.ops,
    )
    if args.fingerprint:
        print(plan_fingerprint(plan))
        return 0

    async def run():
        if args.connect is not None:
            host, _, port_text = args.connect.rpartition(":")
            host = host or "127.0.0.1"
            result = await run_load(
                plan, host, int(port_text), connections=args.connections
            )
            if args.shutdown:
                from repro.service.loadgen import _Connection
                from repro.service.protocol import PROTOCOL_VERSION

                reader, writer = await asyncio.open_connection(
                    host, int(port_text)
                )
                connection = _Connection(reader, writer)
                await connection.request(
                    {"v": PROTOCOL_VERSION, "id": "load:bye", "op": "shutdown"}
                )
                await connection.close()
            return result, "server"
        server = HeapServer(
            shards=args.shards, jobs=args.jobs, tenant_cap=args.tenant_cap
        )
        port = await server.start()
        try:
            result = await run_load(
                plan, "127.0.0.1", port, connections=args.connections
            )
        finally:
            await server.close()
        return result, "self-serve"

    result, mode = asyncio.run(run())
    report = build_scale_report(plan, result, mode=mode)
    problems = validate_scale_report(report)
    print(render_scale_report(report))
    if problems:
        for problem in problems:
            print(f"schema: {problem}")
        return 1
    if result.error_total and not args.allow_errors:
        print(f"load run saw {result.error_total} error response(s)")
        return 1
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json_module.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.report}")
    if args.check:
        with open(args.check, "r", encoding="utf-8") as handle:
            committed = json_module.load(handle)
        gate = validate_scale_report(committed)
        gate += check_pause_regression(
            report, committed, tolerance=args.tolerance
        )
        if gate:
            for problem in gate:
                print(f"gate: {problem}")
            return 1
        print(f"gate: p99 pauses within {args.tolerance}x of {args.check}")
    return 0


def _cmd_isolation(args: argparse.Namespace) -> int:
    from repro.service.isolation import run_isolation_suite

    report = run_isolation_suite(
        args.tenants,
        seed=args.seed,
        ops_per_tenant=args.ops,
        shards=args.shards,
        jobs=args.jobs,
        kinds=_parse_kinds(args.kinds),
        interleave_seed=args.interleave_seed,
    )
    print(report.summary())
    if not report.ok and args.verbose:
        for divergence in report.divergences:
            if divergence.shrunk_script:
                print(f"--- shrunk script for {divergence.tenant} ---")
                print(divergence.shrunk_script)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gc",
        description=(
            "Reproduction of 'Generational Garbage Collection and the "
            "Radioactive Decay Model' (Clinger & Hansen, PLDI 1997)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("list", help="list experiments and benchmarks")
    sub.set_defaults(func=_cmd_list)

    sub = subparsers.add_parser(
        "experiment", help="regenerate one paper artifact"
    )
    sub.add_argument(
        "name", choices=[experiment.name for experiment in EXPERIMENTS]
    )
    sub.add_argument(
        "--json",
        action="store_true",
        help="emit the result as JSON instead of rendered text",
    )
    sub.set_defaults(func=_cmd_experiment)

    sub = subparsers.add_parser("all", help="regenerate every artifact")
    sub.add_argument(
        "--output",
        default=None,
        help="also write each artifact's text and JSON into this directory",
    )
    sub.add_argument(
        "--only",
        default=None,
        help="comma-separated experiment names to regenerate",
    )
    sub.add_argument(
        "--jobs",
        type=positive_int,
        default=None,
        help=(
            "worker processes for independent experiments "
            "(default: REPRO_JOBS or 1)"
        ),
    )
    sub.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not update the artifact cache (.repro_cache/)",
    )
    sub.add_argument(
        "--resume",
        action="store_true",
        help=(
            "serve experiments already journalled in "
            ".repro_cache/journal.json by a killed or quarantine-"
            "shortened sweep of the same task set and source"
        ),
    )
    sub.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help=(
            "per-experiment wall-clock budget in seconds when running "
            "with --jobs > 1 (default: REPRO_TASK_TIMEOUT or none)"
        ),
    )
    sub.add_argument(
        "--retries",
        type=non_negative_int,
        default=None,
        help=(
            "extra attempts before a failing experiment is "
            "quarantined (default: REPRO_TASK_RETRIES or 1)"
        ),
    )
    sub.set_defaults(func=_cmd_all)

    sub = subparsers.add_parser(
        "chaos",
        help=(
            "fault-injection harness: corrupt live collector state "
            "mid-replay and require the verify layer to notice"
        ),
    )
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--ops", type=positive_int, default=400, help="mutator script length"
    )
    sub.add_argument(
        "--quick",
        action="store_true",
        help="short script (CI smoke mode)",
    )
    sub.add_argument(
        "--collectors",
        nargs="+",
        choices=_COLLECTORS,
        default=None,
        help=(
            "collectors to target (default: all, or incremental and "
            "concurrent with --safepoint)"
        ),
    )
    sub.add_argument(
        "--safepoint",
        action="store_true",
        help=(
            "defer each injection to the first mutator safepoint where "
            "a mark wavefront is live (incremental gray stack non-"
            "empty, or a concurrent marker holding its snapshot), "
            "corrupting the collector mid-cycle"
        ),
    )
    sub.add_argument(
        "--output",
        default=None,
        help="also write the detection matrix as JSON to this path",
    )
    sub.add_argument(
        "--json",
        action="store_true",
        help="print the matrix as JSON instead of the rendered table",
    )
    sub.add_argument(
        "--events",
        default=None,
        help=(
            "write fault-injected/fault-detected telemetry as NDJSON "
            "to this path"
        ),
    )
    sub.set_defaults(func=_cmd_chaos)

    sub = subparsers.add_parser(
        "metrics",
        help=(
            "the observability plane: pause histograms (p50/p95/max in "
            "words) and the mark/copy/sweep/root decomposition, from an "
            "instrumented experiment or a seeded collector sweep"
        ),
    )
    sub.add_argument(
        "--experiment",
        default="antiprediction",
        choices=[experiment.name for experiment in EXPERIMENTS],
        help="experiment to run instrumented (default: antiprediction)",
    )
    sub.add_argument(
        "--sweep",
        action="store_true",
        help=(
            "instead of an experiment, fan seeded decay-workload runs "
            "of every collector over the parallel engine and merge "
            "their registries deterministically"
        ),
    )
    sub.add_argument(
        "--runs",
        type=positive_int,
        default=1,
        help="sweep runs per collector",
    )
    sub.add_argument(
        "--jobs",
        type=positive_int,
        default=None,
        help="sweep worker processes (default: REPRO_JOBS or 1)",
    )
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--quick",
        action="store_true",
        help="sweep only: ~6x smaller workload per cell",
    )
    sub.add_argument(
        "--json",
        action="store_true",
        help="emit the registries as JSON instead of the summary table",
    )
    sub.add_argument(
        "--prometheus",
        action="store_true",
        help="emit Prometheus text exposition format instead",
    )
    sub.add_argument(
        "--output",
        default=None,
        help="also write the registries as a JSON artifact to this path",
    )
    sub.add_argument(
        "--events",
        default=None,
        help=(
            "experiment mode only: write the telemetry event stream "
            "as NDJSON to this path"
        ),
    )
    sub.add_argument(
        "--overhead",
        action="store_true",
        help=(
            "measure metrics-on vs metrics-off wall-clock on the decay "
            "workload and fail if the overhead exceeds the tolerance"
        ),
    )
    sub.add_argument(
        "--overhead-tolerance",
        type=float,
        default=0.05,
        help="allowed fractional overhead for --overhead (default 0.05)",
    )
    sub.add_argument(
        "--repeats",
        type=positive_int,
        default=3,
        help="--overhead timing repetitions per mode (best-of-N)",
    )
    sub.set_defaults(func=_cmd_metrics)

    sub = subparsers.add_parser(
        "bench", help="run one benchmark under one collector"
    )
    sub.add_argument("name", choices=benchmark_names())
    sub.add_argument(
        "--collector", choices=_COLLECTORS, default="stop-and-copy"
    )
    sub.add_argument("--scale", type=int, default=1, choices=(0, 1, 2))
    sub.set_defaults(func=_cmd_bench)

    sub = subparsers.add_parser(
        "trace", help="record and analyze lifetime traces"
    )
    trace_sub = sub.add_subparsers(dest="trace_command", required=True)
    rec = trace_sub.add_parser("record", help="record a benchmark's trace")
    rec.add_argument("benchmark", choices=benchmark_names())
    rec.add_argument("-o", "--output", required=True)
    rec.add_argument("--scale", type=int, default=0, choices=(0, 1, 2))
    rec.add_argument(
        "--epochs",
        type=positive_int,
        default=50,
        help="death-time resolution: samples per run",
    )
    rec.set_defaults(func=_cmd_trace)
    srv = trace_sub.add_parser(
        "survival", help="survival-by-age table from a saved trace"
    )
    srv.add_argument("file")
    srv.add_argument("--age-step", type=positive_int, default=None)
    srv.add_argument("--brackets", type=positive_int, default=9)
    srv.set_defaults(func=_cmd_trace)
    prof = trace_sub.add_parser(
        "profile", help="live-storage profile from a saved trace"
    )
    prof.add_argument("file")
    prof.add_argument("--epoch", type=positive_int, default=None)
    prof.set_defaults(func=_cmd_trace)

    sub = subparsers.add_parser(
        "validate",
        help="quick self-check: verify the paper's claims end to end",
    )
    sub.set_defaults(func=_cmd_validate)

    sub = subparsers.add_parser(
        "verify",
        help=(
            "differential GC check: replay one random mutator script "
            "under every collector and compare live graphs"
        ),
    )
    sub.add_argument(
        "--ops", type=positive_int, default=2000, help="script length in ops"
    )
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--collectors",
        nargs="+",
        choices=_COLLECTORS,
        default=list(_COLLECTORS),
        help="collectors to compare (first is the reference)",
    )
    sub.add_argument(
        "--max-live",
        type=int,
        default=40,
        help="live-storage budget the generated script stays under",
    )
    sub.add_argument(
        "--no-shrink",
        action="store_true",
        help="on failure, skip minimizing the counterexample",
    )
    sub.add_argument(
        "--unchecked",
        action="store_true",
        help="skip the per-collection heap-invariant audit",
    )
    # The suites are alternatives: at most one mode flag per run.
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument(
        "--budgets",
        nargs="*",
        type=slice_budget,
        default=None,
        metavar="BUDGET",
        help=(
            "interruption-equivalence suite: replay the script under "
            "mark-sweep and under the incremental collector at each "
            "slice budget ('inf' = unbounded; default 1 7 64 inf), "
            "and require identical graphs, stats, and survivor sets at "
            "every budget"
        ),
    )
    mode.add_argument(
        "--concurrent",
        action="store_true",
        help=(
            "concurrent-equivalence suite: replay the script under "
            "mark-sweep, the unbounded incremental collector, and the "
            "concurrent collector with both inline and worker-process "
            "markers, and require identical graphs, stats, pause logs, "
            "and survivor sets"
        ),
    )
    mode.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume-equivalence suite: replay the script under every "
            "collector, checkpoint/restoring the entire context through "
            "its serialized snapshot at every allocation safepoint, and "
            "require checkpoints, stats, pauses, and survivors "
            "byte-identical to an uninterrupted run"
        ),
    )
    sub.add_argument(
        "--resume-interval",
        type=int,
        default=1,
        help=(
            "--resume only: checkpoint/restore after every Nth "
            "allocation safepoint (default 1 = every allocation)"
        ),
    )
    sub.set_defaults(func=_cmd_verify)

    sub = subparsers.add_parser(
        "snapshot",
        help=(
            "crash-consistent heap snapshots: save a checksummed "
            "checkpoint of a live collector, verify a snapshot file's "
            "integrity, or restore one into a fresh context"
        ),
    )
    snapshot_sub = sub.add_subparsers(dest="snapshot_command", required=True)
    save = snapshot_sub.add_parser(
        "save",
        help=(
            "replay a seeded mutator script under a collector and "
            "checkpoint the resulting live context to a file"
        ),
    )
    save.add_argument("path", help="snapshot file to write")
    save.add_argument(
        "--collector", choices=_COLLECTORS, default="generational"
    )
    save.add_argument(
        "--ops", type=positive_int, default=600, help="mutator script length"
    )
    save.add_argument("--seed", type=int, default=0)
    save.set_defaults(func=_cmd_snapshot)
    load = snapshot_sub.add_parser(
        "load",
        help=(
            "validate a snapshot file (format, version, checksum) and "
            "restore it into a fresh heap/roots/collector context"
        ),
    )
    load.add_argument("path", help="snapshot file to read")
    load.set_defaults(func=_cmd_snapshot)
    ver = snapshot_sub.add_parser(
        "verify",
        help=(
            "validate a snapshot file's envelope and checksum without "
            "restoring it"
        ),
    )
    ver.add_argument("path", help="snapshot file to read")
    ver.set_defaults(func=_cmd_snapshot)

    sub = subparsers.add_parser(
        "slo",
        help=(
            "pause SLO gate: require the incremental collector's p99 "
            "pause to be at most 1/50 of mark-sweep's full-collection "
            "p99 on the decay and gcbench workloads, and write the "
            "measured report to SLO_pause.json"
        ),
    )
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--quick",
        action="store_true",
        help="~3x smaller decay workload (CI smoke mode)",
    )
    sub.add_argument(
        "--output",
        default=None,
        help="report path (default: ./SLO_pause.json)",
    )
    sub.add_argument(
        "--no-write",
        action="store_true",
        help="measure and judge without touching the report file",
    )
    sub.set_defaults(func=_cmd_slo)

    sub = subparsers.add_parser(
        "analyze", help="print Section 5 quantities for (g, L)"
    )
    sub.add_argument("--g", type=float, default=0.25)
    sub.add_argument("--load", type=float, default=3.5)
    sub.set_defaults(func=_cmd_analyze)

    sub = subparsers.add_parser(
        "serve",
        help=(
            "GC-as-a-service: host tenant heaps behind a line-JSON TCP "
            "server, sharded across worker processes"
        ),
    )
    sub.add_argument("--host", default="127.0.0.1")
    sub.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 binds an ephemeral port and prints it)",
    )
    sub.add_argument("--shards", type=positive_int, default=2)
    sub.add_argument(
        "--jobs",
        type=non_negative_int,
        default=0,
        help=(
            "worker processes for shard batches; 0 runs shards inline "
            "in the server process (deterministic reference mode)"
        ),
    )
    sub.add_argument(
        "--tenant-cap",
        type=int,
        default=None,
        help="per-shard open-tenant limit (admission control)",
    )
    sub.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="seconds before a wedged shard batch is drained",
    )
    sub.add_argument(
        "--task-retries",
        type=int,
        default=None,
        help="replay attempts for a lost shard batch",
    )
    sub.set_defaults(func=_cmd_serve)

    sub = subparsers.add_parser(
        "load",
        help=(
            "closed-loop load generator: seeded multi-tenant traffic "
            "against a live server (--connect) or a self-hosted one"
        ),
    )
    sub.add_argument("--tenants", type=positive_int, default=200)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--profile",
        choices=("decay", "burst", "session-tail", "mixed"),
        default="mixed",
    )
    sub.add_argument(
        "--kinds",
        default=None,
        help="comma-separated collector kinds (default: all seven)",
    )
    sub.add_argument(
        "--ops", type=positive_int, default=300, help="ops per tenant (approx)"
    )
    sub.add_argument("--connections", type=positive_int, default=8)
    sub.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="drive an already-running server instead of self-hosting",
    )
    sub.add_argument(
        "--shutdown",
        action="store_true",
        help="send a shutdown op after the load (with --connect)",
    )
    sub.add_argument(
        "--shards",
        type=positive_int,
        default=2,
        help="self-hosted server shards",
    )
    sub.add_argument(
        "--jobs",
        type=non_negative_int,
        default=0,
        help="self-hosted server jobs",
    )
    sub.add_argument("--tenant-cap", type=int, default=None)
    sub.add_argument(
        "--report",
        default=None,
        help="write the scale report JSON to this path",
    )
    sub.add_argument(
        "--check",
        default=None,
        metavar="REPORT",
        help=(
            "gate against a committed scale report: schema validity "
            "plus p99 mutator-visible pause regression"
        ),
    )
    sub.add_argument(
        "--tolerance",
        type=float,
        default=1.25,
        help="allowed p99 growth factor for --check",
    )
    sub.add_argument(
        "--fingerprint",
        action="store_true",
        help="print the plan fingerprint (no traffic) and exit",
    )
    sub.add_argument(
        "--allow-errors",
        action="store_true",
        help="do not fail the run on error responses",
    )
    sub.set_defaults(func=_cmd_load)

    sub = subparsers.add_parser(
        "isolation",
        help=(
            "tenant-isolation suite: interleaved service runs must "
            "match per-tenant serial replays byte for byte"
        ),
    )
    sub.add_argument("--tenants", type=positive_int, default=8)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--ops", type=positive_int, default=160)
    sub.add_argument("--shards", type=positive_int, default=2)
    sub.add_argument("--jobs", type=non_negative_int, default=0)
    sub.add_argument("--kinds", default=None)
    sub.add_argument("--interleave-seed", type=int, default=None)
    sub.add_argument(
        "--verbose",
        action="store_true",
        help="print shrunk divergence scripts",
    )
    sub.set_defaults(func=_cmd_isolation)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
