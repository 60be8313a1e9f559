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

How many workers, how long a task may run and how often it is retried
are arguments, set by each caller (a CLI flag or a constructor
parameter); nothing here reads the environment.

Every worker process in the repo is forked here, as a
:class:`PinnedWorker`: one process with a pipe of its own, which
answers every message its owner sends it, one at a time, and keeps
whatever the handler keeps between messages.  A pinned worker that
dies, overruns or raises is killed and reaped before its owner hears
of it (:class:`WorkerLost`), and every worker exits when its parent
dies.  Two owners hold them:

* a :class:`WorkerPool` is ``jobs`` pinned workers that run any
  task, so a task must carry everything it needs.  A failed task
  costs its own worker and nothing else.  A pool's lifetime is chosen
  by where its owner holds it, not by a flag: the one-shot fan-out
  (:func:`resilient_map`) opens one in a ``with`` block, the
  concurrent collector keeps one for its whole life so mark cycles
  reuse warm workers;
* the pool-mode shard executor holds one for every shard, so tenant
  heaps stay resident in the worker and a batch ships only its
  requests; rebuilding what a lost worker held is its job.

Task callables and handlers must be module-level (picklable) functions.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection, util
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    import asyncio

    from repro.perf.cache import ArtifactCache

__all__ = [
    "ExperimentRecord",
    "PinnedWorker",
    "TaskFailure",
    "WorkerLost",
    "WorkerPool",
    "derive_seed",
    "resilient_map",
    "run_experiment_records",
]


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


def _exit_with_parent() -> None:
    """End the worker when its parent process dies.

    An idle worker blocks on its pipe, and a parent that dies
    without cleanup (``kill -9``, or a SIGTERM nothing handles) never
    tells it to stop.  The parent's sentinel turns readable when the
    parent is gone, so a daemon thread waits on it and exits.
    """
    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        connection.wait([sentinel])
        os._exit(1)

    threading.Thread(
        target=watch, name="exit-with-parent", daemon=True
    ).start()


def _kill(processes: Sequence[multiprocessing.process.BaseProcess]) -> None:
    """SIGTERM every process, then SIGKILL any still running after a
    2 s grace.  Killing is the point: a wedged worker never honours a
    polite shutdown.  Returns once every one of them has exited; the
    caller reaps them."""
    for process in processes:
        process.terminate()
    for process in processes:
        # Watch the sentinel instead of join()ing, so the SIGTERM grace
        # is one bounded wait; the caller reaps.
        if not connection.wait([process.sentinel], timeout=2.0):
            process.kill()  # SIGTERM blocked, or the worker stopped
            connection.wait([process.sentinel])


class WorkerLost(Exception):
    """A :class:`PinnedWorker` failed a message and has been killed.

    ``kind`` is the :class:`TaskFailure` vocabulary: ``"worker-crash"``
    (the process died or its pipe broke), ``"timeout"`` (no reply
    inside the budget) or ``"crash"`` (the handler raised).
    """

    def __init__(self, kind: str, error: str) -> None:
        super().__init__(f"{kind}: {error}")
        self.kind = kind
        self.error = error


def _serve_pinned(conn: connection.Connection, handler: Callable) -> None:
    """A pinned worker's life: one reply per message, in order."""
    _exit_with_parent()
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, handler(message))
        except Exception as exc:
            reply = (False, f"{type(exc).__name__}: {exc}")
        conn.send(reply)


def _stop_pinned(
    process: multiprocessing.process.BaseProcess, conn: connection.Connection
) -> None:
    _kill([process])
    process.join()
    conn.close()


class PinnedWorker:
    """One long-lived worker process and the pipe its owner talks on.

    ``handler`` runs in the worker as ``handler(message)`` for every
    :meth:`send`, and the reply is what it returned; module state the
    handler keeps survives from one message to the next.  The process
    is forked by the first :meth:`send` after construction or
    :meth:`kill`.  Any failure — the process died (a pipe EOF or its
    sentinel), no reply inside the timeout, the handler raised — kills
    and reaps it before :class:`WorkerLost` is raised, so a message is
    never answered late.  A worker dropped without :meth:`kill` is
    killed when it is collected or, at the latest, when the owning
    interpreter exits (before :mod:`multiprocessing` joins its
    children), and one whose parent died exits by itself.

    A reply is waited for in one of two ways.  :meth:`receive` blocks
    the calling thread in :func:`multiprocessing.connection.wait`.
    ``await`` :meth:`reply` lets the running event loop watch the
    worker instead: the first awaited reply after a fork registers the
    pipe and the process sentinel with the loop (``add_reader``), and
    :meth:`kill` unregisters them, so a batch costs no registration.
    The loop's callback takes a reply off the pipe as soon as it is
    readable, and a watched worker that exits with no message in flight
    is killed and reaped there and then, and reported to ``on_exit``;
    a reply it wrote before exiting is still answered.
    Either way one message is in flight at a time, and a watched worker
    is driven only from its loop's thread.
    """

    def __init__(
        self,
        handler: Callable[[Any], Any],
        *,
        on_exit: Callable[[], None] | None = None,
    ) -> None:
        self.handler = handler
        self.on_exit = on_exit
        self._process: multiprocessing.process.BaseProcess | None = None
        self._conn: connection.Connection | None = None
        self._stop: util.Finalize | None = None
        #: A message is in flight and its outcome not yet taken.
        self._busy = False
        #: The outcome taken off the pipe: a reply or a WorkerLost.
        self._outcome: Any = None
        #: The loop watching the pipe and the sentinel, and their fds.
        self._loop: asyncio.AbstractEventLoop | None = None
        self._watched: tuple[int, int] = (-1, -1)
        self._waiter: asyncio.Future | None = None

    @property
    def pid(self) -> int | None:
        """The worker's pid, ``None`` while none is forked."""
        return self._process.pid if self._process is not None else None

    def died_idle(self) -> bool:
        """Whether a forked worker has exited between messages; if so
        it is reaped, and the next :meth:`send` forks a new one."""
        if self._busy or self._process is None or self._process.is_alive():
            return False
        self.kill()
        return True

    def ready(self) -> bool:
        """Whether the message in flight has its reply on the pipe or
        the worker has exited; never blocks."""
        return not self._busy or bool(
            connection.wait([self._conn, self._process.sentinel], 0)
        )

    def send(self, message: Any) -> None:
        if self._busy:
            raise RuntimeError("a message is already in flight")
        if self._process is None:
            self._fork()
        try:
            self._conn.send(message)
        except OSError as exc:
            self._lose("worker-crash", f"{type(exc).__name__}: {exc}")
        self._busy = True

    def receive(self, timeout: float | None = None) -> Any:
        """The reply to the message sent last, waited for in this
        thread."""
        if self._busy:
            ready = connection.wait(
                [self._conn, self._process.sentinel], timeout
            )
            if not ready:
                self._lose("timeout", f"no reply within {timeout:.3g}s")
            self._take(self._conn in ready)
        return self._collect()

    async def reply(self, timeout: float | None = None) -> Any:
        """The reply to the message sent last, awaited on the running
        event loop, which serves everything else meanwhile."""
        if self._busy:
            # Whoever awaits this has asyncio loaded; a module import
            # would put it on the import path of every sweep.
            import asyncio

            loop = asyncio.get_running_loop()
            if self._loop is not loop:
                self._watch(loop)
            waiter = self._waiter = loop.create_future()
            timer = None
            if timeout is not None:
                timer = loop.call_later(timeout, self._wake)
            try:
                await waiter
            finally:
                self._waiter = None
                if timer is not None:
                    timer.cancel()
            if self._busy:
                self._lose("timeout", f"no reply within {timeout:.3g}s")
        return self._collect()

    def kill(self) -> None:
        """Kill and reap the worker (idempotent).  A message in flight
        is lost with it, and an awaited :meth:`reply` raises
        :class:`WorkerLost`; a reply already taken off the pipe is
        still the message's."""
        self._unwatch()
        stop, self._stop = self._stop, None
        self._process = self._conn = None
        if self._busy:
            self._busy = False
            self._outcome = WorkerLost(
                "worker-crash", "worker killed with a message in flight"
            )
            self._wake()
        if stop is not None:
            stop()

    def _take(self, readable: bool) -> None:
        """Take the message's outcome: the reply on the pipe, or the
        loss of a worker that exited without one."""
        self._busy = False
        if not readable:
            self._outcome = self._fail(
                "worker-crash",
                f"worker exited with code {self._process.exitcode}",
            )
            return
        try:
            ok, value = self._conn.recv()
        except (EOFError, OSError) as exc:
            self._outcome = self._fail(
                "worker-crash", f"{type(exc).__name__}: {exc}"
            )
            return
        self._outcome = value if ok else self._fail("crash", value)

    def _collect(self) -> Any:
        outcome, self._outcome = self._outcome, None
        if isinstance(outcome, WorkerLost):
            raise outcome
        return outcome

    def _fail(self, kind: str, error: str) -> WorkerLost:
        self.kill()
        return WorkerLost(kind, error)

    def _lose(self, kind: str, error: str) -> None:
        self._busy = False
        raise self._fail(kind, error)

    def _fork(self) -> None:
        conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_serve_pinned,
            args=(child_conn, self.handler),
            name="pinned-worker",
        )
        process.start()
        child_conn.close()
        self._process, self._conn = process, conn
        # exitpriority >= 0: run at exit before multiprocessing joins
        # its non-daemonic children, which an idle worker would block.
        self._stop = util.Finalize(
            self, _stop_pinned, args=(process, conn), exitpriority=10
        )

    # ------------------------------------------------------------------
    # Watched by an event loop
    # ------------------------------------------------------------------

    def _watch(self, loop: asyncio.AbstractEventLoop) -> None:
        self._unwatch()
        fds = (self._conn.fileno(), self._process.sentinel)
        loop.add_reader(fds[0], self._on_pipe)
        loop.add_reader(fds[1], self._on_sentinel)
        self._loop, self._watched = loop, fds

    def _unwatch(self) -> None:
        loop, self._loop = self._loop, None
        if loop is not None:
            for fd in self._watched:
                loop.remove_reader(fd)

    def _on_pipe(self) -> None:
        # The reply is taken here, before the loop polls again, so a
        # readiness the loop has seen is never seen twice.
        if not self._busy:  # idle, the pipe is readable only at its end
            self._exited()
            return
        self._take(True)
        self._wake()

    def _on_sentinel(self) -> None:
        # A reply written before the exit is still the message's, also
        # when the pipe's callback took it in this same poll.
        if not self._busy:
            self._exited()
            return
        self._take(self._conn.poll())
        self._wake()

    def _wake(self) -> None:
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)

    def _exited(self) -> None:
        self.kill()
        if self.on_exit is not None:
            self.on_exit()


def _run_task(message: tuple[Callable[..., Any], tuple]) -> Any:
    """A pool worker's handler: every message is one task."""
    func, args = message
    return func(*args)


class WorkerPool:
    """``jobs`` :class:`PinnedWorker` processes, one task in flight on
    each, and the retry ladder that drives them.

    A worker is forked by the first task it is given, so a pool nobody
    submits to costs nothing, and a pool that is dropped without
    :meth:`close` leaves nothing behind (each worker is killed when it
    is collected or the interpreter exits, and a worker whose parent
    died exits by itself).  Not thread-safe, and :meth:`map` is
    one-call-at-a-time per pool.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self._workers = [PinnedWorker(_run_task) for _ in range(jobs)]

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def submit(self, func: Callable[..., Any], *args: Any) -> PinnedWorker:
        """Send ``func(*args)`` to an idle worker, forking it first if
        it has none (or its process died while idle), and return that
        worker as the task's handle: :meth:`PinnedWorker.ready` polls
        it, :meth:`map` adopts it, and :meth:`PinnedWorker.kill` drops
        the task with its worker."""
        for worker in self._workers:
            if not worker._busy:
                try:
                    worker.send((func, args))
                except WorkerLost:  # it died idle; this send forks anew
                    worker.send((func, args))
                return worker
        raise RuntimeError(f"all {self.jobs} workers have a task in flight")

    def close(self) -> None:
        """Kill and reap every worker (idempotent)."""
        for worker in self._workers:
            worker.kill()

    def map(
        self,
        func: Callable[[Any, int], Any],
        items: Iterable[Any],
        *,
        timeout: float | None = None,
        retries: int = 1,
        on_result: Callable[[int, Any], None] | None = None,
        submitted: Sequence[PinnedWorker] = (),
    ) -> list[Any]:
        """Map ``func`` over ``items``; failures cannot sink the sweep.

        ``func`` is called as ``func(item, attempt)`` — attempt 0 first,
        incrementing on each retry so tasks can salt derived seeds
        (:func:`derive_seed`).  Each slot of the returned list (input
        order) holds either the task's result or a :class:`TaskFailure`
        describing why it was quarantined after ``retries`` extra
        attempts.  A failed task costs its own worker, which is killed
        and reaped, and one attempt of its own; the other workers and
        their tasks run on.

        * A raising task is retried, then quarantined (``"crash"``).
        * A task running longer than ``timeout`` seconds is retried at
          ``attempt + 1``, then quarantined (``"timeout"``).
        * A task whose worker process died is retried, then
          quarantined (``"worker-crash"``).

        ``timeout=None`` runs tasks without a time limit.  ``on_result`` is
        invoked in the parent process as each slot settles — the artifact
        cache hangs off this to persist completions immediately.
        ``submitted`` holds attempt-0 tasks the caller already got from
        :meth:`submit` for the leading items (the concurrent collector
        submits its marker at cycle open and reconciles here); their
        timeout clock starts now.  A ``map`` left by an exception
        (``KeyboardInterrupt``, a raising ``on_result``) kills the
        workers, so no abandoned task keeps one.
        """
        work = list(items)
        results: list[Any] = [None] * len(work)
        pending: deque[tuple[int, Any, int]] = deque(
            (index, item, 0) for index, item in enumerate(work)
        )
        inflight: dict[PinnedWorker, tuple[int, Any, int, float]] = {}
        for worker in submitted:
            inflight[worker] = (*pending.popleft(), time.monotonic())

        def settle(index: int, outcome: Any) -> None:
            results[index] = outcome
            if on_result is not None:
                on_result(index, outcome)

        def fail(
            index: int, item: Any, attempt: int, lost: WorkerLost
        ) -> None:
            if attempt < retries:
                pending.append((index, item, attempt + 1))
            else:
                settle(
                    index,
                    TaskFailure(
                        index=index,
                        item=item,
                        kind=lost.kind,
                        attempts=attempt + 1,
                        error=lost.error,
                    ),
                )

        try:
            while pending or inflight:
                while pending and len(inflight) < self.jobs:
                    index, item, attempt = pending.popleft()
                    worker = self.submit(func, item, attempt)
                    inflight[worker] = (index, item, attempt, time.monotonic())
                wait = None
                if timeout is not None:
                    oldest = min(started for *_, started in inflight.values())
                    wait = max(0.0, oldest + timeout - time.monotonic())
                waitables = []
                for worker in inflight:
                    waitables += (worker._conn, worker._process.sentinel)
                connection.wait(waitables, wait)
                now = time.monotonic()
                for worker, (index, item, attempt, started) in list(
                    inflight.items()
                ):
                    if worker.ready():
                        del inflight[worker]
                        try:
                            settle(index, worker.receive(0))
                        except WorkerLost as lost:
                            fail(index, item, attempt, lost)
                    elif timeout is not None and now - started >= timeout:
                        del inflight[worker]
                        worker.kill()  # a stuck worker ignores politeness
                        ran = now - started
                        lost = WorkerLost(
                            "timeout", f"exceeded {timeout}s (ran {ran:.1f}s)"
                        )
                        fail(index, item, attempt, lost)
        except BaseException:
            self.close()
            raise
        return results


def resilient_map(
    func: Callable[[Any, int], Any],
    items: Iterable[Any],
    *,
    jobs: int = 1,
    timeout: float | None = None,
    retries: int = 1,
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


def run_experiment_records(
    names: Sequence[str],
    *,
    jobs: int = 1,
    cache: "ArtifactCache | None" = None,
    timeout: float | None = None,
    retries: int = 1,
    failures: "list[TaskFailure] | None" = None,
) -> list[ExperimentRecord]:
    """Regenerate the named artifacts, fanning cache misses out to
    ``jobs`` workers; records come back in the order of ``names``.

    When a cache is supplied, hits are served without running anything
    and each miss is stored the moment it settles, keyed by (name,
    source digest) — see :mod:`repro.perf.cache` — so a killed sweep,
    rerun, runs only what it had not finished.

    The fan-out is the resilient engine (:func:`resilient_map`):
    ``timeout``/``retries`` bound each task (no time limit and one
    retry unless the caller says otherwise), and
    quarantined tasks are appended to ``failures`` instead of sinking
    the sweep (their names are simply absent from the returned records).
    """
    records: dict[str, ExperimentRecord] = {}
    missing: list[str] = []
    for name in names:
        entry = cache.get(name) if cache is not None else None
        if entry is None:
            missing.append(name)
        else:
            records[name] = _record(name, entry, cached=True)

    def on_result(index: int, outcome: Any) -> None:
        # Runs in the parent as each task settles: persist *now*, so a
        # kill -9 one task later loses at most the task in flight.
        if isinstance(outcome, TaskFailure):
            return
        name = missing[index]
        _task_name, text, payload, seconds = outcome
        entry = {"text": text, "payload": payload, "seconds": seconds}
        if cache is not None:
            cache.put(name, entry)
        records[name] = _record(name, entry, cached=False)

    outcomes = resilient_map(
        _experiment_task,
        missing,
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        on_result=on_result,
    )
    if failures is not None:
        failures.extend(o for o in outcomes if isinstance(o, TaskFailure))
    return [records[name] for name in names if name in records]


def _record(name: str, entry: dict, cached: bool) -> ExperimentRecord:
    return ExperimentRecord(
        name=name,
        text=entry["text"],
        payload=entry["payload"],
        seconds=entry.get("seconds", 0.0),
        cached=cached,
    )
