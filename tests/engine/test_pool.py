"""Tests for the persistent worker pool."""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
import time

import pytest

from repro.engine import pool as pool_mod
from repro.engine.pool import (
    WorkerDiedError,
    WorkerPool,
    get_pool,
    pool_map,
    pool_stats,
    pools_spawned,
    resolve_start_method,
    shutdown_pools,
)
from repro.faults import (
    FIRING_LOG_NAME,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    activate,
    deactivate,
    read_firings,
)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)


def _worker_pid(_payload) -> int:
    """Module-level so it pickles under every start method."""
    return os.getpid()


def _worker_pid_and_parent(_payload) -> "tuple[int, int]":
    return os.getpid(), os.getppid()


def _square(value: int) -> int:
    return value * value


def _die_on_one(value: int) -> int:
    """Payload 1 SIGKILLs the worker running it, as an OOM kill would."""
    if value == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.2)  # the siblings are still running when it dies
    return value


def _is_live(pid: int) -> bool:
    """Whether ``pid`` is a running (not zombie, not reaped) process."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _in_forked_child(target) -> tuple:
    """Run ``target(conn)`` in a forked child; return what it sent.

    A child that sends nothing within 20 s fails the test (and is killed)
    instead of hanging the suite.
    """
    context = multiprocessing.get_context("fork")
    ours, theirs = context.Pipe()
    child = context.Process(target=target, args=(theirs,))
    child.start()
    theirs.close()
    try:
        assert ours.poll(20), "the forked child hung"
        return ours.recv()
    finally:
        child.kill()
        child.join()


@pytest.fixture(autouse=True)
def _fresh_pools():
    """Each test starts and ends without live pools (the registry is
    process-global, so a leaked pool would couple tests)."""
    shutdown_pools()
    yield
    shutdown_pools()


class TestResolveStartMethod:
    def test_explicit_argument_wins(self):
        assert resolve_start_method("spawn") == "spawn"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        assert resolve_start_method() == "spawn"

    def test_invalid_name_is_one_line_error(self):
        with pytest.raises(ValueError, match="unsupported") as excinfo:
            resolve_start_method("forkserverr")
        message = str(excinfo.value)
        assert "forkserverr" in message
        assert "\n" not in message

    def test_invalid_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "frobnicate")
        with pytest.raises(ValueError, match="REPRO_START_METHOD"):
            resolve_start_method()


class TestPersistentPool:
    def test_pool_reused_across_maps(self):
        first = pool_map(_worker_pid, [0, 1], 2)
        spawned = pools_spawned()
        second = pool_map(_worker_pid, [0, 1], 2)
        assert pools_spawned() == spawned  # no new pool
        # Both maps ran inside the same 2-worker pool (which worker takes
        # which task is the scheduler's business).
        assert len(set(first) | set(second)) <= 2

    def test_results_are_correct_and_ordered(self):
        assert pool_map(_square, list(range(7)), 3) == [
            n * n for n in range(7)
        ]

    def test_pool_grows_when_more_processes_requested(self):
        small = get_pool(1)
        grown = get_pool(2)
        assert grown is not small
        assert grown.processes == 2
        assert get_pool(1) is grown  # smaller requests reuse the big pool

    def test_empty_payloads_short_circuit(self):
        spawned = pools_spawned()
        assert pool_map(_square, [], 4) == []
        assert pools_spawned() == spawned

    def test_stats_count_jobs(self):
        pool_map(_square, [1, 2, 3], 2)
        (stats,) = pool_stats().values()
        assert stats["jobs_dispatched"] == 3
        assert stats["maps_run"] == 1

    def test_worker_pool_rejects_zero_processes(self):
        with pytest.raises(ValueError, match="at least 1"):
            WorkerPool(0)

    def test_concurrent_fan_outs_share_one_pool(self):
        """Threads mapping over the same pool (more tasks than workers,
        fast thread switching) each get exactly their own results."""
        get_pool(3)
        results, interval = {}, sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(
                    target=lambda n=n: results.__setitem__(
                        n, pool_map(_square, list(range(n, n + 8)), 3)
                    )
                )
                for n in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {n: [v * v for v in range(n, n + 8)] for n in range(4)}
        (stats,) = pool_stats().values()
        assert stats["jobs_dispatched"] == 32

    def test_killed_task_reports_its_worker_death(self):
        pool = get_pool(1)
        task = pool.apply_async(time.sleep, (30,))
        assert not task.done
        task.kill()
        assert isinstance(task.error, WorkerDiedError)
        assert task.error.exitcode == -signal.SIGKILL
        assert pool_map(_square, [3], 1) == [9]  # replaced, same pool
        assert get_pool(1) is pool

    def test_shutdown_reaps_every_worker(self):
        pids = set(pool_map(_worker_pid, [0, 1], 2))
        shutdown_pools()
        assert pool_stats() == {}
        assert not [pid for pid in pids if _is_live(pid)]


def _sigkill_map_then_heal(conn) -> None:
    start = time.monotonic()
    try:
        pool_map(_die_on_one, [0, 1, 2], 2)
        outcome = "returned"
    except WorkerDiedError as error:
        outcome = (error.payload, error.exitcode)
    conn.send(
        (outcome, time.monotonic() - start, pool_map(_square, [0, 1, 2], 2),
         pools_spawned())
    )


def _pool_pids_from_child(conn) -> None:
    conn.send((os.getpid(), pool_map(_worker_pid_and_parent, [0, 1], 2)))


def _sigkilled_owner(conn) -> None:
    conn.send(pool_map(_worker_pid, [0, 1], 2))
    os.kill(os.getpid(), signal.SIGKILL)


@needs_fork
class TestDeadWorkers:
    def test_sigkilled_worker_raises_a_typed_error_and_the_pool_heals(self):
        """A worker that dies mid-task is reported once its siblings
        finish — never waited on — and the next fan-out replaces it."""
        outcome, seconds, healed, spawned = _in_forked_child(_sigkill_map_then_heal)
        assert outcome == (1, -signal.SIGKILL)
        assert seconds < 10
        assert healed == [0, 1, 4]
        assert spawned == pools_spawned() + 1  # the same pool, healed in place

    def test_forked_child_gets_its_own_workers(self):
        parent_pids = set(pool_map(_worker_pid, [0, 1], 2))
        child, workers = _in_forked_child(_pool_pids_from_child)
        assert {parent for _, parent in workers} == {child}
        assert not {pid for pid, _ in workers} & parent_pids
        # the child neither closed nor joined the parent's workers
        assert set(pool_map(_worker_pid, [0, 1], 2)) == parent_pids

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_workers_exit_when_their_owner_is_sigkilled(self):
        workers = _in_forked_child(_sigkilled_owner)
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and any(map(_is_live, workers)):
            time.sleep(0.05)
        assert not [pid for pid in workers if _is_live(pid)]


class TestFaultPlanTravelsWithTheTask:
    @pytest.fixture(autouse=True)
    def _disarmed(self):
        deactivate()
        yield
        deactivate()

    def test_workers_forked_before_the_plan_fire_it_with_fresh_counters(
        self, tmp_path
    ):
        pool_map(_square, [1, 2], 2)  # the workers exist before any plan
        activate(
            FaultPlan(faults=(FaultSpec(site="pool.task", kind="raise"),)),
            state_dir=str(tmp_path),
        )
        with pytest.raises(FaultInjected, match="pool.task"):
            pool_map(_square, [1, 2, 3], 2)
        # count=1 per process, yet all three tasks fired: every task
        # re-armed the plan with fresh counters, even on a reused worker
        assert len(read_firings(str(tmp_path / FIRING_LOG_NAME))) == 3
        deactivate()
        assert pool_map(_square, [1, 2, 3], 2) == [1, 4, 9]


class TestAtexitRegistration:
    def test_shutdown_is_armed_once_pools_exist(self):
        get_pool(1)
        assert pool_mod._ATEXIT_ARMED
