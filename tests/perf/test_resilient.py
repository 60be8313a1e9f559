"""Tests for the hardened parallel engine: attempt-salted seeds,
retry/quarantine, timeout recovery, worker-crash recovery, and the
journal integration of the experiment runner."""

import asyncio
import itertools
import os
import select
import signal
import time

import pytest

from repro.perf.parallel import (
    PinnedWorker,
    TaskFailure,
    WorkerLost,
    WorkerPool,
    derive_seed,
    resilient_map,
    run_experiment_records,
    task_retries,
    task_timeout,
)
from repro.resilience.journal import SweepJournal


# ----------------------------------------------------------------------
# Worker functions (module level: they must pickle for the pool)
# ----------------------------------------------------------------------


def _echo(item, attempt):
    return (item, attempt)


def _fail_first_attempt(item, attempt):
    if attempt == 0:
        raise RuntimeError(f"transient failure on {item!r}")
    return (item, attempt)


def _always_raise(item, attempt):
    raise ValueError(f"permanent failure on {item!r}")


def _sleep_first_attempt(item, attempt):
    if item == "slow" and attempt == 0:
        time.sleep(30.0)
    return (item, attempt)


def _kill_worker(item, attempt):
    if item == "bomb":
        os._exit(1)
    return (item, attempt)


def _kill_worker_first_attempt(item, attempt):
    if item == "bomb" and attempt == 0:
        os._exit(1)
    return (item, attempt)


def _pid(item, attempt):
    return os.getpid()


def _pid_unless_bomb(item, attempt):
    """The worker's pid and the attempt; a bomb kills its worker, and
    anything else takes long enough to be in flight when it does."""
    if item == "bomb":
        os._exit(1)
    time.sleep(0.3)
    return (os.getpid(), attempt)


def _pid_unless_slow(item, attempt):
    if item == "slow":
        time.sleep(30.0)
    return os.getpid()


def _spin_ignoring_sigterm(item, attempt):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:
        pass


# ----------------------------------------------------------------------
# derive_seed attempt salting (satellite b)
# ----------------------------------------------------------------------


class TestDeriveSeed:
    def test_attempt_zero_matches_legacy_two_arg_form(self):
        # First attempts must replay the exact historical seed stream —
        # the golden-fingerprint suite depends on it.
        for index in range(5):
            assert derive_seed(42, index) == derive_seed(42, index, 0)

    def test_retry_attempts_get_fresh_seeds(self):
        base = derive_seed(42, 3)
        salted = {derive_seed(42, 3, attempt) for attempt in range(1, 4)}
        assert base not in salted
        assert len(salted) == 3

    def test_salting_is_deterministic(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)


class TestEnvKnobs:
    def test_timeout_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
        assert task_timeout() is None
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2.5")
        assert task_timeout() == 2.5
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0")
        assert task_timeout() is None

    def test_retries_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
        assert task_retries() == 1
        monkeypatch.setenv("REPRO_TASK_RETRIES", "3")
        assert task_retries() == 3
        monkeypatch.setenv("REPRO_TASK_RETRIES", "-2")
        assert task_retries() == 0


# ----------------------------------------------------------------------
# resilient_map
# ----------------------------------------------------------------------


class TestSerialPath:
    def test_success_preserves_order(self):
        results = resilient_map(_echo, ["a", "b", "c"], jobs=1, retries=0)
        assert results == [("a", 0), ("b", 0), ("c", 0)]

    def test_transient_failure_retried(self):
        results = resilient_map(
            _fail_first_attempt, ["a"], jobs=1, retries=1
        )
        assert results == [("a", 1)]

    def test_exhausted_retries_quarantine(self):
        results = resilient_map(_always_raise, ["a"], jobs=1, retries=1)
        (failure,) = results
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "crash"
        assert failure.attempts == 2
        assert "permanent failure" in failure.error
        assert "'a'" in failure.summary()

    def test_on_result_fires_per_settlement(self):
        seen = []
        resilient_map(
            _echo,
            ["a", "b"],
            jobs=1,
            retries=0,
            on_result=lambda index, outcome: seen.append((index, outcome)),
        )
        assert seen == [(0, ("a", 0)), (1, ("b", 0))]


class TestPooledPath:
    def test_success_preserves_order(self):
        results = resilient_map(
            _echo, ["a", "b", "c", "d"], jobs=2, retries=0
        )
        assert results == [(x, 0) for x in ("a", "b", "c", "d")]

    def test_transient_failures_retried(self):
        results = resilient_map(
            _fail_first_attempt, ["a", "b"], jobs=2, retries=1
        )
        assert results == [("a", 1), ("b", 1)]

    def test_timeout_retries_then_succeeds(self):
        results = resilient_map(
            _sleep_first_attempt,
            ["fast", "slow"],
            jobs=2,
            timeout=1.0,
            retries=1,
        )
        assert results[0] == ("fast", 0)
        # The offender's worker was killed, then the task retried; the
        # retry (attempt 1) skips the sleep and completes.
        assert results[1] == ("slow", 1)

    def test_timeout_quarantines_after_retries(self):
        # retries=0: the slow task's only attempt times out.  (A
        # single-item map would take the serial path, where timeouts
        # are not enforced — keep a second, fast item in the batch.)
        fast, failure = resilient_map(
            _sleep_first_attempt,
            ["fast", "slow"],
            jobs=2,
            timeout=1.0,
            retries=0,
        )
        assert fast == ("fast", 0)
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "timeout"
        assert failure.attempts == 1

    def test_worker_crash_quarantines_after_retries(self):
        # Two bombs: each one's attempts end with its own worker, so
        # both are quarantined after two attempts.
        results = resilient_map(
            _kill_worker, ["bomb", "bomb"], jobs=2, retries=1
        )
        for failure in results:
            assert isinstance(failure, TaskFailure)
            assert failure.kind == "worker-crash"
            assert failure.attempts == 2

    def test_worker_crash_recovery_resumes_all_tasks(self):
        # The bomb detonates only on its first attempt and is charged
        # one attempt for it; with budget to spare the whole sweep
        # still completes.
        results = resilient_map(
            _kill_worker_first_attempt,
            ["a", "bomb", "b"],
            jobs=2,
            retries=2,
        )
        assert [r[0] for r in results] == ["a", "bomb", "b"]
        bomb_item, bomb_attempt = results[1]
        assert bomb_attempt >= 1


# ----------------------------------------------------------------------
# WorkerPool: the workers outlive a call
# ----------------------------------------------------------------------


class TestWorkerPool:
    def test_consecutive_maps_reuse_the_same_workers(self):
        with WorkerPool(2) as pool:
            pids = {
                pid
                for _ in range(20)
                for pid in pool.map(_pid, ["a", "b"], retries=0)
            }
        assert len(pids) <= 2
        assert os.getpid() not in pids

    def test_one_item_map_runs_out_of_process(self):
        # No serial shortcut and no pad item: holding a pool *means*
        # out-of-process, even for a single task.
        with WorkerPool(2) as pool:
            (pid,) = pool.map(_pid, ["only"], retries=0)
        assert pid != os.getpid()

    def test_map_adopts_an_already_submitted_future(self):
        with WorkerPool(2) as pool:
            early = pool.submit(_echo, "a", 0)
            results = pool.map(
                _echo, ["a", "b"], retries=0, submitted=[early]
            )
            assert early.ready()
        assert results == [("a", 0), ("b", 0)]

    def test_crashed_workers_are_replaced_by_the_next_map(self, new_workers):
        with WorkerPool(2) as pool:
            before = set(pool.map(_pid, ["a", "b"], retries=0))
            assert len(before) == 2
            failure, (survivor, _) = pool.map(
                _pid_unless_bomb, ["bomb", "a"], retries=0
            )
            assert failure.kind == "worker-crash"
            after = set(pool.map(_pid, ["a", "b"], retries=0))
            # Only the crashed worker was replaced.
            assert survivor in before and survivor in after
            assert len(after) == 2 and not (before - {survivor}) & after
        assert not new_workers()

    def test_a_task_beside_a_bomb_finishes_in_its_own_worker(self):
        with WorkerPool(2) as pool:
            before = set(pool.map(_pid, ["a", "b"], retries=0))
            failure, (pid, attempt) = pool.map(
                _pid_unless_bomb, ["bomb", "a"], retries=1
            )
        assert failure.kind == "worker-crash" and failure.attempts == 2
        # Not resubmitted: the first attempt, in the worker it began in.
        assert attempt == 0 and pid in before

    def test_a_timeout_kills_only_the_offenders_worker(self, new_workers):
        with WorkerPool(2) as pool:
            before = pool.map(_pid, ["a", "b"], retries=0)
            failure, survivor = pool.map(
                _pid_unless_slow, ["slow", "fast"], timeout=0.5, retries=0
            )
            assert failure.kind == "timeout"
            after = pool.map(_pid, ["a", "b"], retries=0)
        assert survivor in before and survivor in after
        (offender,) = set(before) - {survivor}
        assert offender not in after
        assert not new_workers()

    def test_abandoned_map_leaves_the_pool_usable(self, new_workers):
        def explode(index, outcome):
            raise RuntimeError("on_result blew up")

        with WorkerPool(2) as pool:
            with pytest.raises(RuntimeError, match="blew up"):
                pool.map(
                    _sleep_first_attempt,
                    ["fast", "slow"],
                    retries=0,
                    on_result=explode,
                )
            # The 30 s sleeper was abandoned mid-task: its worker is
            # killed with the rest rather than kept busy.
            assert not new_workers()
            assert pool.map(_echo, ["a", "b"], retries=0) == [
                ("a", 0),
                ("b", 0),
            ]

    def test_restart_escalates_to_sigkill_and_reaps(self, new_workers):
        pool = WorkerPool(1)
        (failure,) = pool.map(
            _spin_ignoring_sigterm, ["deaf"], timeout=0.2, retries=0
        )
        assert failure.kind == "timeout"
        # The ladder's kill could not SIGTERM this one away; by the
        # time map() returned the worker was SIGKILLed and reaped.
        assert not new_workers()
        pool.close()


#: Advanced only inside pinned workers, each from its forked copy.
_pinned_messages = itertools.count(1)


def _pinned(message):
    """A pinned worker's handler: counts its messages, and fails the
    way ``message`` asks."""
    if message == "raise":
        raise ValueError("handler refused")
    if message == "spin":
        _spin_ignoring_sigterm(message, 0)
    if message == "exit":
        os._exit(1)
    return (os.getpid(), next(_pinned_messages))


class TestPinnedWorker:
    def test_the_worker_keeps_its_state_between_messages(self, new_workers):
        worker = PinnedWorker(_pinned)
        replies = []
        for _ in range(3):
            worker.send("count")
            replies.append(worker.receive(timeout=30))
        pid = worker.pid
        assert pid != os.getpid()
        assert replies == [(pid, 1), (pid, 2), (pid, 3)]
        worker.kill()
        assert worker.pid is None and not new_workers()

    @pytest.mark.parametrize(
        "message, kind",
        [("raise", "crash"), ("spin", "timeout"), ("exit", "worker-crash")],
    )
    def test_a_failed_message_kills_and_reaps_the_worker(
        self, message, kind, new_workers
    ):
        worker = PinnedWorker(_pinned)
        worker.send("count")
        worker.receive(timeout=30)
        worker.send(message)
        with pytest.raises(WorkerLost) as lost:
            worker.receive(timeout=0.5)
        assert lost.value.kind == kind
        # Killed (SIGKILL where SIGTERM is ignored) and reaped before
        # the owner heard of it; the next message forks a new worker
        # that starts from nothing.
        assert worker.pid is None and not new_workers()
        worker.send("count")
        assert worker.receive(timeout=30)[1] == 1
        worker.kill()

    def test_a_worker_dead_while_idle_is_found_before_the_next_message(
        self,
    ):
        worker = PinnedWorker(_pinned)
        assert not worker.died_idle()  # never forked
        worker.send("count")
        first, _ = worker.receive(timeout=30)
        os.kill(first, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while not worker.died_idle():
            assert time.monotonic() < deadline
            time.sleep(0.01)
        worker.send("count")
        pid, count = worker.receive(timeout=30)
        assert pid != first and count == 1
        worker.kill()


class TestPinnedWorkerOnALoop:
    """``await reply()``: the running loop watches the worker's pipe
    and sentinel, registered once per fork."""

    @staticmethod
    def _counting_readers(loop) -> list[int]:
        added: list[int] = []
        add_reader = loop.add_reader

        def counting(fd, callback, *args):
            added.append(fd)
            return add_reader(fd, callback, *args)

        loop.add_reader = counting
        return added

    def test_replies_are_awaited_and_the_watch_outlives_each_message(
        self, new_workers
    ):
        worker = PinnedWorker(_pinned)

        async def body():
            loop = asyncio.get_running_loop()
            added = self._counting_readers(loop)
            replies = []
            for _ in range(3):
                worker.send("count")
                replies.append(await worker.reply(timeout=30))
            pid = worker.pid
            assert replies == [(pid, 1), (pid, 2), (pid, 3)]
            # The pipe and the sentinel, once for the three messages.
            assert len(added) == 2
            # The synchronous wait still works on a watched worker.
            worker.send("count")
            assert worker.receive(timeout=30) == (pid, 4)
            worker.kill()
            assert [loop.remove_reader(fd) for fd in added] == [False] * 2

        asyncio.run(body())
        assert worker.pid is None and not new_workers()

    @pytest.mark.parametrize(
        "message, kind",
        [("raise", "crash"), ("spin", "timeout"), ("exit", "worker-crash")],
    )
    def test_a_failed_message_kills_reaps_and_unwatches(
        self, message, kind, new_workers
    ):
        worker = PinnedWorker(_pinned)

        async def body():
            loop = asyncio.get_running_loop()
            added = self._counting_readers(loop)
            worker.send("count")
            await worker.reply(timeout=30)
            worker.send(message)
            with pytest.raises(WorkerLost) as lost:
                await worker.reply(timeout=0.5)
            assert lost.value.kind == kind
            if kind == "timeout":  # the budget it was given, by name
                assert "within 0.5s" in str(lost.value)
            assert worker.pid is None and not new_workers()
            assert [loop.remove_reader(fd) for fd in added] == [False] * 2
            worker.send("count")
            assert (await worker.reply(timeout=30))[1] == 1
            assert len(added) == 4  # watched again after the new fork
            worker.kill()

        asyncio.run(body())

    def test_an_idle_exit_is_reaped_by_the_loop_and_reported(
        self, new_workers
    ):
        exits: list[int] = []
        worker = PinnedWorker(_pinned, on_exit=lambda: exits.append(1))

        async def body():
            worker.send("count")
            first, _ = await worker.reply(timeout=30)
            os.kill(first, signal.SIGKILL)
            for _ in range(2000):
                if worker.pid is None:
                    break
                await asyncio.sleep(0.005)
            # Reaped by the sentinel callback, with no probe from here.
            assert worker.pid is None and exits == [1]
            assert not new_workers()
            worker.send("count")
            pid, count = await worker.reply(timeout=30)
            assert pid != first and count == 1
            worker.kill()
            assert exits == [1]  # a kill is no exit to report

        asyncio.run(body())

    def test_a_reply_written_before_the_exit_is_still_answered(
        self, new_workers
    ):
        """The pipe (reply, then EOF) and the sentinel are readable in
        one poll: whichever callback runs second sees an idle worker
        that exited, reaps it and reports it, and the reply taken by
        the first is still the message's."""
        exits: list[int] = []
        worker = PinnedWorker(_pinned, on_exit=lambda: exits.append(1))

        async def body():
            worker.send("count")
            pid, _ = await worker.reply(timeout=30)  # watched from here
            worker.send("count")
            # The loop does not poll until the await below.
            assert select.select([worker._conn], [], [], 30)[0]
            os.kill(pid, signal.SIGKILL)
            assert select.select([worker._process.sentinel], [], [], 30)[0]
            assert await worker.reply(timeout=30) == (pid, 2)
            for _ in range(200):
                if exits:
                    break
                await asyncio.sleep(0.005)
            assert worker.pid is None and exits == [1]
            assert not new_workers()
            worker.send("count")
            assert (await worker.reply(timeout=30))[1] == 1
            worker.kill()

        asyncio.run(body())

    def test_a_kill_fails_an_awaited_reply(self, new_workers):
        worker = PinnedWorker(_pinned)

        async def body():
            worker.send("spin")
            waiting = asyncio.create_task(worker.reply())  # no timeout
            await asyncio.sleep(0.05)
            worker.kill()
            with pytest.raises(WorkerLost) as lost:
                await asyncio.wait_for(waiting, 30)
            assert lost.value.kind == "worker-crash"
            assert worker.pid is None and not new_workers()

        asyncio.run(body())


# ----------------------------------------------------------------------
# run_experiment_records + journal
# ----------------------------------------------------------------------


class TestJournalIntegration:
    def test_journalled_entry_served_without_rerun(self, tmp_path):
        path = tmp_path / "journal.json"
        journal = SweepJournal.fresh(path, ["table1"], "digest")
        journal.record_success(
            "table1",
            {"text": "from-journal", "payload": {"k": 1}, "seconds": 0.1},
        )
        resumed = SweepJournal.resume(path, ["table1"], "digest")
        (record,) = run_experiment_records(["table1"], journal=resumed)
        # Served from the journal: the fake text proves no rerun.
        assert record.text == "from-journal"
        assert record.cached

    def test_fresh_run_journals_each_completion(self, tmp_path):
        path = tmp_path / "journal.json"
        journal = SweepJournal.fresh(path, ["equilibrium"], "digest")
        (record,) = run_experiment_records(["equilibrium"], journal=journal)
        assert not record.cached
        resumed = SweepJournal.resume(path, ["equilibrium"], "digest")
        assert resumed.completed["equilibrium"]["text"] == record.text

    def test_quarantine_reported_not_raised(self, tmp_path, monkeypatch):
        import repro.perf.parallel as parallel

        monkeypatch.setattr(parallel, "_experiment_task", _always_raise)
        path = tmp_path / "journal.json"
        journal = SweepJournal.fresh(path, ["equilibrium"], "digest")
        failures = []
        records = run_experiment_records(
            ["equilibrium"], retries=0, journal=journal, failures=failures
        )
        assert records == []
        (failure,) = failures
        assert failure.kind == "crash"
        resumed = SweepJournal.resume(path, ["equilibrium"], "digest")
        assert resumed.quarantined["equilibrium"]["kind"] == "crash"
