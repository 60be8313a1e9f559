"""Deterministic parallel fan-out for experiments and sweeps.

Every artifact in the registry is a pure function of the source tree:
fixed seeds, no shared state, no wall-clock dependence.  Independent
tasks can therefore run in worker processes and be merged back in
registry order without changing a single output byte.  Three rules
keep that guarantee:

* **tasks are named, not numbered** — results are reassembled by task
  identity (experiment name, seed), never by completion order;
* **seeds are derived, not drawn** — a sweep's per-task seeds come
  from :func:`derive_seed`, a pure hash of (base seed, index), so the
  stream a task sees is independent of how many workers ran it;
* **``jobs=1`` bypasses the pool entirely** — the serial path is the
  reference semantics, and everything else must equal it.

Every worker process in the repo belongs to a :class:`WorkerPool` —
the one place a :class:`concurrent.futures.ProcessPoolExecutor`
(default start method) is built, found broken, or killed.  A pool's
lifetime is chosen by where its owner holds it, not by a flag: the
one-shot sweeps (:func:`parallel_map`, :func:`resilient_map`) and the
shard executor's batches open one in a ``with`` block, the concurrent
collector keeps one for its whole life so mark cycles reuse warm
workers.  Task callables must be module-level (picklable) functions.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import connection
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence, TypeVar

if TYPE_CHECKING:  # pragma: no cover
    from repro.perf.cache import ArtifactCache
    from repro.resilience.journal import SweepJournal

__all__ = [
    "ExperimentRecord",
    "TaskFailure",
    "WorkerPool",
    "default_jobs",
    "derive_seed",
    "parallel_map",
    "resilient_map",
    "run_experiment_records",
    "run_metric_records",
    "task_retries",
    "task_timeout",
]

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")


def default_jobs() -> int:
    """Worker count when the user does not pass ``--jobs``.

    Honours the ``REPRO_JOBS`` environment variable; otherwise 1, so
    library callers and tests stay serial (and deterministic profiling
    stays trivial) unless parallelism is requested explicitly.
    """
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {env!r}"
            ) from None
    return 1


def derive_seed(base_seed: int, index: int, attempt: int = 0) -> int:
    """A 63-bit per-task seed, a pure function of (base seed, index).

    Tasks must not share one RNG stream (the partitioning would depend
    on worker scheduling), and ``base_seed + index`` collides across
    sweeps.  Hashing keeps every task's stream fixed and distinct no
    matter where or in what order it runs.

    ``attempt`` salts the seed on retry: attempt 0 hashes exactly the
    historical ``"base:index"`` blob (so first-attempt results stay
    byte-identical to every golden fingerprint), while a retried task
    gets a fresh-but-deterministic stream — if attempt 1 hits the same
    environmental failure, it will at least not be *because* it
    replayed the identical schedule.
    """
    if attempt:
        blob = f"{base_seed}:{index}:retry{attempt}".encode()
    else:
        blob = f"{base_seed}:{index}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


def task_timeout() -> float | None:
    """Per-task timeout in seconds, from ``REPRO_TASK_TIMEOUT``.

    Unset, empty, or ``0`` means no timeout (the default: experiments
    are deterministic, so a wedged task normally means a wedged
    machine, not a wedged task).
    """
    env = os.environ.get("REPRO_TASK_TIMEOUT", "").strip()
    if not env:
        return None
    try:
        value = float(env)
    except ValueError:
        raise ValueError(
            f"REPRO_TASK_TIMEOUT must be a number of seconds, got {env!r}"
        ) from None
    return value if value > 0 else None


def task_retries() -> int:
    """How many times a failed task is re-attempted (default 1).

    Reads ``REPRO_TASK_RETRIES``.  This bounds *additional* attempts:
    with the default of 1, a task runs at most twice before it is
    quarantined.
    """
    env = os.environ.get("REPRO_TASK_RETRIES", "").strip()
    if not env:
        return 1
    try:
        return max(0, int(env))
    except ValueError:
        raise ValueError(
            f"REPRO_TASK_RETRIES must be an integer, got {env!r}"
        ) from None


def parallel_map(
    func: Callable[[_ItemT], _ResultT],
    items: Iterable[_ItemT],
    *,
    jobs: int = 1,
) -> list[_ResultT]:
    """Map ``func`` over ``items``; results always in input order.

    With ``jobs <= 1`` (or fewer than two items) this is a plain loop
    in the current process — no pool, no pickling, byte-identical to
    the pre-parallel code path.  Otherwise ``func`` must be a
    module-level function and items/results must pickle.
    """
    work = list(items)
    if jobs <= 1 or len(work) <= 1:
        return [func(item) for item in work]
    with WorkerPool(min(jobs, len(work))) as pool:
        futures = [pool.submit(func, item) for item in work]
        return [future.result() for future in futures]


# ----------------------------------------------------------------------
# The hardened fan-out: timeouts, bounded retry, quarantine
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TaskFailure:
    """A task that exhausted its retry budget (quarantined).

    Attributes:
        index: the task's position in the input sequence.
        item: the input item (must be repr-able for reporting).
        kind: ``"crash"`` (the task raised), ``"timeout"`` (exceeded
            the per-task budget), or ``"worker-crash"`` (its worker
            process died — OOM kill, signal, interpreter abort).
        attempts: how many attempts were made in total.
        error: the last failure's description.
    """

    index: int
    item: Any
    kind: str
    attempts: int
    error: str

    def summary(self) -> str:
        return (
            f"{self.item!r}: {self.kind} after {self.attempts} "
            f"attempt(s): {self.error}"
        )


class WorkerPool:
    """``jobs`` worker processes and the retry ladder that drives them.

    Workers are forked by the first :meth:`submit` after construction
    or :meth:`restart`, so a pool nobody submits to costs nothing, and
    a pool that is dropped without :meth:`close` leaves nothing behind
    (the executor winds its idle workers down when it is collected or
    the interpreter exits).  Not thread-safe, and :meth:`map` is
    one-call-at-a-time per pool.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self._executor: ProcessPoolExecutor | None = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def submit(self, func: Callable[..., Any], *args: Any) -> Future:
        """Schedule ``func(*args)`` on a worker, forking the workers
        first if there are none (or one died while idle)."""
        if self._executor is not None:
            try:
                return self._executor.submit(func, *args)
            except BrokenProcessPool:
                self.restart()
        self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor.submit(func, *args)

    def restart(self) -> None:
        """Kill the workers, wait until every one of them has been
        reaped, and forget them; the next :meth:`submit` forks new
        ones.  Futures still in flight fail or never resolve."""
        executor, self._executor = self._executor, None
        if executor is None:
            return
        # _processes is CPython's worker table.  Killing is the point:
        # a wedged worker never honours a polite shutdown.
        processes = list((executor._processes or {}).values())
        for process in processes:
            process.terminate()
        for process in processes:
            # Watch the sentinel instead of join()ing: the executor's
            # manager thread joins every worker as it winds down, and a
            # second waitpid() from this thread can lose the exit status
            # to it, after which the child reads as alive here until the
            # manager gets to publish what it reaped.
            if not connection.wait([process.sentinel], timeout=2.0):
                process.kill()  # SIGTERM blocked, or the worker stopped
        # Returns when the manager thread has joined every worker.
        executor.shutdown(wait=True, cancel_futures=True)

    def close(self) -> None:
        """Release the workers (idempotent)."""
        self.restart()

    def map(
        self,
        func: Callable[[Any, int], Any],
        items: Iterable[Any],
        *,
        timeout: float | None = None,
        retries: int | None = None,
        on_result: Callable[[int, Any], None] | None = None,
        submitted: Sequence[Future] = (),
    ) -> list[Any]:
        """Map ``func`` over ``items``; failures cannot sink the sweep.

        ``func`` is called as ``func(item, attempt)`` — attempt 0 first,
        incrementing on each retry so tasks can salt derived seeds
        (:func:`derive_seed`).  Each slot of the returned list (input
        order) holds either the task's result or a :class:`TaskFailure`
        describing why it was quarantined after ``retries`` extra
        attempts.

        * A raising task is retried, then quarantined (``"crash"``).
        * A task running longer than ``timeout`` seconds has its
          (unkillable-politely) workers killed; innocent in-flight
          tasks are resubmitted at their same attempt number, the
          offender at ``attempt + 1`` (``"timeout"``).
        * A dead worker process (:class:`BrokenProcessPool`) retires
          the workers the same way; every in-flight task at the time of
          death is charged one attempt, since the engine cannot know
          which of them killed it (``"worker-crash"``).

        ``timeout``/``retries`` default to the ``REPRO_TASK_TIMEOUT`` /
        ``REPRO_TASK_RETRIES`` environment knobs.  ``on_result`` is
        invoked in the parent process as each slot settles — the sweep
        journal hangs off this to persist completions immediately.
        ``submitted`` holds attempt-0 futures the caller already got from
        :meth:`submit` for the leading items (the concurrent collector
        submits its marker at cycle open and reconciles here); their
        timeout clock starts now.  A ``map`` left by an exception
        (``KeyboardInterrupt``, a raising ``on_result``) kills the
        workers, so no abandoned task keeps one.
        """
        work = list(items)
        if timeout is None:
            timeout = task_timeout()
        if retries is None:
            retries = task_retries()
        results: list[Any] = [None] * len(work)

        def settle(index: int, outcome: Any) -> None:
            results[index] = outcome
            if on_result is not None:
                on_result(index, outcome)

        pending: deque[tuple[int, Any, int]] = deque(
            (index, item, 0) for index, item in enumerate(work)
        )
        inflight: dict[Any, tuple[int, Any, int, float]] = {}
        for future in submitted:
            inflight[future] = (*pending.popleft(), time.monotonic())

        def retry_or_quarantine(
            index: int, item: Any, attempt: int, kind: str, error: str
        ) -> None:
            if attempt < retries:
                pending.append((index, item, attempt + 1))
            else:
                settle(
                    index,
                    TaskFailure(
                        index=index,
                        item=item,
                        kind=kind,
                        attempts=attempt + 1,
                        error=error,
                    ),
                )

        try:
            while pending or inflight:
                while pending and len(inflight) < self.jobs:
                    index, item, attempt = pending.popleft()
                    future = self.submit(func, item, attempt)
                    inflight[future] = (index, item, attempt, time.monotonic())

                tick = 0.05 if timeout is not None else None
                done, _ = wait(
                    set(inflight), timeout=tick, return_when=FIRST_COMPLETED
                )
                broken = False
                for future in done:
                    index, item, attempt, _started = inflight.pop(future)
                    try:
                        value = future.result()
                    except BrokenProcessPool as exc:
                        broken = True
                        retry_or_quarantine(
                            index,
                            item,
                            attempt,
                            "worker-crash",
                            str(exc) or type(exc).__name__,
                        )
                    except Exception as exc:
                        retry_or_quarantine(
                            index,
                            item,
                            attempt,
                            "crash",
                            f"{type(exc).__name__}: {exc}",
                        )
                    else:
                        settle(index, value)
                if broken:
                    # The workers are unusable; everything still in
                    # flight is doomed but innocent — resubmit at the
                    # same attempt.
                    for index, item, attempt, _started in inflight.values():
                        pending.append((index, item, attempt))
                    inflight = {}
                    self.restart()
                    continue
                if timeout is not None and inflight:
                    now = time.monotonic()
                    expired = [
                        future
                        for future, (_i, _it, _a, started) in inflight.items()
                        if now - started > timeout
                    ]
                    if expired:
                        # A stuck worker cannot be cancelled politely;
                        # kill them all and resubmit the innocent.
                        for future in expired:
                            index, item, attempt, started = inflight.pop(future)
                            retry_or_quarantine(
                                index,
                                item,
                                attempt,
                                "timeout",
                                f"exceeded {timeout}s "
                                f"(ran {now - started:.1f}s)",
                            )
                        for index, item, attempt, _started in inflight.values():
                            pending.append((index, item, attempt))
                        inflight = {}
                        self.restart()
        except BaseException:
            self.restart()
            raise
        return results


def resilient_map(
    func: Callable[[Any, int], Any],
    items: Iterable[Any],
    *,
    jobs: int = 1,
    timeout: float | None = None,
    retries: int | None = None,
    on_result: Callable[[int, Any], None] | None = None,
) -> list[Any]:
    """:meth:`WorkerPool.map` over a pool that lives for this call.

    With ``jobs <= 1`` (or fewer than two items) the tasks run in the
    current process instead, with the same retry-then-quarantine
    bookkeeping; timeouts are not enforced there — there is no worker
    to kill.
    """
    work = list(items)
    if jobs > 1 and len(work) > 1:
        with WorkerPool(jobs) as pool:
            return pool.map(
                func,
                work,
                timeout=timeout,
                retries=retries,
                on_result=on_result,
            )
    if retries is None:
        retries = task_retries()
    results = []
    for index, item in enumerate(work):
        results.append(_serial_attempts(func, item, index, retries))
        if on_result is not None:
            on_result(index, results[-1])
    return results


def _serial_attempts(
    func: Callable[[Any, int], Any], item: Any, index: int, retries: int
) -> Any:
    error = ""
    for attempt in range(retries + 1):
        try:
            return func(item, attempt)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    return TaskFailure(
        index=index,
        item=item,
        kind="crash",
        attempts=retries + 1,
        error=error,
    )


# ----------------------------------------------------------------------
# The experiment fan-out used by ``repro-gc all --jobs N``
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentRecord:
    """One experiment's artifact plus how it was produced.

    ``payload`` is the JSON-able form of the experiment result (what
    ``repro-gc all --output`` writes), not the live result object:
    worker processes and the artifact cache both require a stable
    serialized form.
    """

    name: str
    text: str
    payload: Any
    seconds: float
    cached: bool


def _experiment_task(
    name: str, attempt: int = 0
) -> tuple[str, str, Any, float]:
    # ``attempt`` is the resilient engine's retry counter; experiments
    # run from the registry are pure functions of the source, so a
    # retry recomputes the identical artifact and the counter is
    # deliberately unused here (seeded *sweep* tasks salt with it).
    del attempt
    # Imported lazily: this runs inside worker processes, and importing
    # the runner at module scope would cycle (runner -> perf -> runner).
    import sys

    from repro.experiments.export import to_jsonable
    from repro.experiments.runner import run_experiment

    # The boyer-family experiments recurse deeply through the Scheme
    # runtime; fresh worker processes start at the CPython default.
    if sys.getrecursionlimit() < 200_000:
        sys.setrecursionlimit(200_000)
    start = time.perf_counter()
    result, text = run_experiment(name)
    seconds = time.perf_counter() - start
    return name, text, to_jsonable(result), seconds


def _metric_task(cell: tuple[str, int, int]) -> dict[str, Any]:
    """One metrics-sweep cell, in a worker process.

    ``cell`` is ``(collector kind, derived seed, alloc words)`` — all
    primitives, so it pickles.  The registry comes back in its JSON
    form (also picklable); the parent re-hydrates and merges in cell
    order, never completion order, so sweep metrics are byte-identical
    at any jobs level.
    """
    import sys

    from repro.metrics.sweep import run_decay_cell

    if sys.getrecursionlimit() < 200_000:
        sys.setrecursionlimit(200_000)
    kind, seed, alloc_words = cell
    registry, _stream = run_decay_cell(kind, seed, alloc_words=alloc_words)
    return registry.to_jsonable()


def run_metric_records(
    cells: Sequence[tuple[str, int, int]],
    *,
    jobs: int = 1,
) -> list[dict[str, Any]]:
    """Fan metrics-sweep cells out; JSON registries in input order."""
    return parallel_map(_metric_task, cells, jobs=jobs)


def run_experiment_records(
    names: Sequence[str],
    *,
    jobs: int = 1,
    cache: "ArtifactCache | None" = None,
    timeout: float | None = None,
    retries: int | None = None,
    journal: "SweepJournal | None" = None,
    failures: "list[TaskFailure] | None" = None,
) -> list[ExperimentRecord]:
    """Regenerate the named artifacts, fanning cache misses out to
    ``jobs`` workers; records come back in the order of ``names``.

    When a cache is supplied, hits are served without running anything
    and misses are stored after running, keyed by (name, default
    parameters, source digest) — see :mod:`repro.perf.cache`.

    The fan-out is the resilient engine (:func:`resilient_map`):
    ``timeout``/``retries`` bound each task (defaulting to the
    ``REPRO_TASK_TIMEOUT``/``REPRO_TASK_RETRIES`` knobs), quarantined
    tasks are appended to ``failures`` instead of sinking the sweep
    (their names are simply absent from the returned records), and a
    ``journal`` — when given — has every completion persisted the
    moment it happens, so a killed sweep resumes where it stopped.
    """
    records: dict[str, ExperimentRecord] = {}
    missing: list[str] = []
    for name in names:
        if journal is not None:
            entry = journal.completed.get(name)
            if entry is not None:
                records[name] = ExperimentRecord(
                    name=name,
                    text=entry["text"],
                    payload=entry["payload"],
                    seconds=entry.get("seconds", 0.0),
                    cached=True,
                )
                continue
        entry = cache.get(name) if cache is not None else None
        if entry is not None:
            records[name] = ExperimentRecord(
                name=name,
                text=entry["text"],
                payload=entry["payload"],
                seconds=entry.get("seconds", 0.0),
                cached=True,
            )
            if journal is not None:
                journal.record_success(name, entry)
        else:
            missing.append(name)

    def on_result(index: int, outcome: Any) -> None:
        # Runs in the parent as each task settles: persist *now*, so a
        # kill -9 one task later loses at most the task in flight.
        name = missing[index]
        if isinstance(outcome, TaskFailure):
            if journal is not None:
                journal.record_failure(
                    name,
                    {
                        "kind": outcome.kind,
                        "attempts": outcome.attempts,
                        "error": outcome.error,
                    },
                )
            return
        _task_name, text, payload, seconds = outcome
        entry = {"text": text, "payload": payload, "seconds": seconds}
        if cache is not None:
            cache.put(name, entry)
        if journal is not None:
            journal.record_success(name, entry)

    outcomes = resilient_map(
        _experiment_task,
        missing,
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        on_result=on_result,
    )
    for name, outcome in zip(missing, outcomes):
        if isinstance(outcome, TaskFailure):
            if failures is not None:
                failures.append(outcome)
            continue
        _task_name, text, payload, seconds = outcome
        records[name] = ExperimentRecord(
            name=name,
            text=text,
            payload=payload,
            seconds=seconds,
            cached=False,
        )
    return [records[name] for name in names if name in records]
