"""The engine's one fan-out dispatcher.

Every multiprocess fan-out — ``generate_sharded``, ``export_fleet``
(shard and columnar), ``export_fleet_blocks``/``resume_export`` and the
distributed backend's pool slots — runs on one persistent worker
set, fault plan or not:

:func:`fan_out`
    The one in-process/pool switch: a worker function over a list of
    :class:`~repro.engine.streaming.BlockTask` records, results in task
    order.  One task runs in-process; more go to :func:`pool_map`.
:func:`get_pool` / :func:`pool_map`
    A process-wide registry of persistent :class:`WorkerPool` instances,
    one per resolved start method, so a CLI command, a benchmark run or
    a service embedding pays spawn cost once per process, not per call.
:class:`WorkerPool`
    One pipe per worker; the parent waits on the pipes and the process
    sentinels together.  A worker that dies mid-task (SIGKILL, OOM kill)
    is *reported*: its siblings finish, then the fan-out raises
    :class:`WorkerDiedError`, and the next fan-out replaces the worker.
    Each task carries the caller's fault plan; the worker re-arms it
    with fresh counters (or disarms) before passing ``pool.task``.

Nothing outlives its owner: a worker exits on EOF from its pipe, so a
SIGKILLed owner leaves none behind, and :func:`shutdown_pools` (also the
atexit hook) reaps every worker.  A pool belongs to the process that
created it: a fork child closes the pipe ends it inherited and starts
from an empty registry, never touching its parent's workers.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import threading
from collections import deque
from multiprocessing.connection import wait
from multiprocessing.pool import ExceptionWithTraceback

from repro.faults.injector import armed_state, fire, rearm
from repro.faults.sites import SITE_POOL_TASK


def resolve_start_method(start_method: "str | None" = None) -> str:
    """The start method every engine fan-out resolves through.

    Resolution order: an explicit ``start_method`` argument, then the
    ``REPRO_START_METHOD`` environment variable, then fork where the
    platform offers it (cheap: no re-import, no pickling of the parent
    state) with spawn as the fallback.  The override exists because fork
    is unsafe under threaded callers (a forked child inherits locks held
    by threads that no longer exist and deadlocks) — such embedders pass
    ``"spawn"`` or export ``REPRO_START_METHOD=spawn``.  An unsupported
    name raises :class:`ValueError` in one line, naming the source of
    the bad value and the platform's choices.
    """
    methods = multiprocessing.get_all_start_methods()
    method = start_method
    source = "start_method"
    if method is None:
        method = os.environ.get("REPRO_START_METHOD") or None
        source = "REPRO_START_METHOD"
    if method is None:
        return "fork" if "fork" in methods else "spawn"
    if method not in methods:
        raise ValueError(
            f"unsupported multiprocessing start method {method!r} "
            f"(from {source}); this platform supports {', '.join(methods)}"
        )
    return method


class WorkerDiedError(RuntimeError):
    """A pool worker died before returning its task's result.

    ``payload`` is the task's index in its fan-out; ``exitcode`` is the
    worker's exit status (negative: killed by that signal), ``None``
    when the task never reached a worker.
    """

    def __init__(self, payload: int, exitcode: "int | None"):
        super().__init__(
            f"pool worker died (exit code {exitcode}) while running payload "
            f"{payload}"
        )
        self.payload = payload
        self.exitcode = exitcode


def _worker_main(conn) -> None:
    """A pool worker: run ``(func, args, faults)`` tasks until EOF, each
    reply ``(result, None)`` or ``(None, exception)``.  Ctrl-C is the
    owner's to handle; the worker exits on the EOF that follows it."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            func, args, faults = conn.recv()
        except (EOFError, OSError):
            return
        try:
            rearm(faults)
            fire(SITE_POOL_TASK)
            reply = (func(*args), None)
        except BaseException as error:  # noqa: BLE001 - must cross the pipe
            reply = (None, ExceptionWithTraceback(error, error.__traceback__))
        try:
            conn.send(reply)  # an unpicklable reply kills the worker: reported
        except OSError:
            return  # the owner is gone
        func = args = reply = None  # hold nothing while idle


class _Worker:
    __slots__ = ("process", "conn", "task")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.task: "AsyncTask | None" = None


class AsyncTask:
    """One submitted task.  Waiting on it drives the whole pool: every
    finished task's result and every worker death is collected, and
    queued tasks go out as workers free up."""

    def __init__(self, pool: "WorkerPool", message: tuple, payload: int):
        self._pool = pool
        self._message = message
        self.payload = payload
        self.worker: "_Worker | None" = None
        self.done = False
        self.value = None
        self.error: "BaseException | None" = None

    def _finish(self, value=None, error: "BaseException | None" = None) -> None:
        self.worker = None
        self.value, self.error, self.done = value, error, True

    def wait(self) -> None:
        """Block until the task finishes (or loses its worker)."""
        while not self.done:
            self._pool.poll(None)

    def kill(self) -> None:
        """Kill the worker running this task and wait until the pool has
        noticed; the next fan-out replaces the worker."""
        if self.worker is not None:
            self.worker.process.kill()
        self.wait()


#: Parent-side pipe ends of every worker this process owns; a fork child
#: closes them all, so a worker reads EOF once its owner is gone.
_PARENT_ENDS: set = set()


class WorkerPool:
    """A persistent worker set that outlives a single fan-out call.

    One payload per task, handed to whichever worker is idle; the
    benchmarks and tests read ``jobs_dispatched`` and ``maps_run``.
    """

    def __init__(self, processes: int, start_method: "str | None" = None):
        if processes < 1:
            raise ValueError("processes must be at least 1")
        self.start_method = resolve_start_method(start_method)
        self.processes = processes
        self.jobs_dispatched = 0
        self.maps_run = 0
        self._context = multiprocessing.get_context(self.start_method)
        self._lock = threading.RLock()
        self._queue: "deque[AsyncTask]" = deque()
        self._workers: "list[_Worker]" = []
        self.replenish()

    def map(self, func, payloads: list) -> list:
        """Run ``func`` over ``payloads``, one payload per task.

        Every task finishes (or loses its worker) before this returns;
        the first failure in payload order is then raised — the task's
        own exception, or :class:`WorkerDiedError`.
        """
        self.jobs_dispatched += len(payloads)
        self.maps_run += 1
        faults = armed_state()
        with self._lock:
            tasks = [
                self._submit((func, (payload,), faults), index)
                for index, payload in enumerate(payloads)
            ]
        for task in tasks:
            task.wait()
        for task in tasks:
            if task.error is not None:
                raise task.error
        return [task.value for task in tasks]

    def apply_async(self, func, args: tuple = ()) -> AsyncTask:
        """Submit one task without waiting for it."""
        self.jobs_dispatched += 1
        with self._lock:
            return self._submit((func, tuple(args), armed_state()), 0)

    def replenish(self) -> None:
        """Replace the workers that died since the last fan-out.  Spawning
        is eager, so callers fork here, before opening anything a worker
        must not inherit."""
        with self._lock:
            self.poll(0)
            for worker in list(self._workers):
                if worker.task is None and not worker.process.is_alive():
                    self._retire(worker)
            while len(self._workers) < self.processes:
                ours, theirs = self._context.Pipe()
                _PARENT_ENDS.add(ours)
                process = self._context.Process(
                    target=_worker_main, args=(theirs,), daemon=True
                )
                try:
                    process.start()
                finally:
                    theirs.close()
                self._workers.append(_Worker(process, ours))

    def close(self) -> None:
        """Reap every worker (idempotent); see :meth:`_retire`."""
        with self._lock:
            for worker in list(self._workers):
                self._retire(worker)
            self._dispatch()  # fails whatever is still queued

    def _retire(self, worker: _Worker) -> None:
        """Drop ``worker`` and reap it — closing its pipe ends an idle
        worker, one still running after a second is killed — failing the
        task it held with :class:`WorkerDiedError`."""
        self._workers.remove(worker)
        _PARENT_ENDS.discard(worker.conn)
        worker.conn.close()
        worker.process.join(1.0)
        if worker.process.exitcode is None:
            worker.process.kill()
            worker.process.join()
        if worker.task is not None:
            worker.task._finish(
                error=WorkerDiedError(worker.task.payload, worker.process.exitcode)
            )

    def _submit(self, message: tuple, payload: int) -> AsyncTask:
        task = AsyncTask(self, message, payload)
        self._queue.append(task)
        self._dispatch()
        return task

    def _dispatch(self) -> None:
        for worker in self._workers:
            if not self._queue:
                return
            if worker.task is not None:
                continue
            task = self._queue.popleft()
            try:
                worker.conn.send(task._message)
            except OSError:
                pass  # it died while idle: poll reports that as this task's end
            except Exception as error:  # the task does not pickle
                task._finish(error=error)
                continue
            worker.task, task.worker = task, worker
        # No worker left (only the next fan-out spawns more): fail the rest.
        while self._queue and not self._workers:
            task = self._queue.popleft()
            task._finish(error=WorkerDiedError(task.payload, None))

    def poll(self, timeout: "float | None", also: "list | tuple" = ()) -> None:
        """Collect every reply and worker death ready within ``timeout``,
        returning early when one of ``also`` (objects
        :func:`~multiprocessing.connection.wait` takes) is ready: the
        distributed coordinator's one wait for its slots and peers."""
        with self._lock:
            busy = {}  # pipe and sentinel -> busy worker
            for worker in self._workers:
                if worker.task is not None:
                    busy[worker.conn] = busy[worker.process.sentinel] = worker
            ready = wait([*busy, *also], timeout) if busy or also else ()
            for worker in {busy[item] for item in ready if item in busy}:
                self._collect(worker)
            self._dispatch()

    def _collect(self, worker: _Worker) -> None:
        try:
            reply = worker.conn.recv() if worker.conn.poll() else None
        except (EOFError, OSError):
            reply = None  # torn reply: the worker died mid-send
        except Exception as error:  # a reply that does not unpickle
            reply = (None, error)
        if reply is None:
            self._retire(worker)
        else:
            task, worker.task = worker.task, None
            task._finish(*reply)


_LOCK = threading.Lock()
_POOLS: "dict[str, WorkerPool]" = {}
_SPAWN_COUNT = 0  # pools created since import; tests pin reuse through it
_ATEXIT_ARMED = False


def _forget_pools_after_fork() -> None:
    """In a fork child: close the inherited worker pipe ends and start
    from an empty registry (the parent's pools are not this process's)."""
    global _LOCK
    _LOCK = threading.Lock()
    for conn in _PARENT_ENDS:
        conn.close()
    _PARENT_ENDS.clear()
    _POOLS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pools_after_fork)


def get_pool(processes: int, start_method: "str | None" = None) -> WorkerPool:
    """The persistent pool for ``start_method``, grown to ``processes``.

    A fan-out starts here, so this is where workers that died since the
    last one are replaced.  A request for more processes than the pool
    holds replaces it with a larger one (the old workers are reaped
    first); a request for fewer reuses the larger pool — idle workers
    cost nothing, and the caller's payload list alone decides how much
    runs in parallel.
    """
    global _SPAWN_COUNT, _ATEXIT_ARMED
    method = resolve_start_method(start_method)
    with _LOCK:
        pool = _POOLS.get(method)
        if pool is not None and pool.processes >= processes:
            pool.replenish()
            return pool
        if pool is not None:
            pool.close()
        pool = _POOLS[method] = WorkerPool(processes, method)
        _SPAWN_COUNT += 1
        if not _ATEXIT_ARMED:
            atexit.register(shutdown_pools)
            _ATEXIT_ARMED = True
        return pool


def shutdown_pools() -> None:
    """Reap every persistent pool's workers (benchmarks measure cold
    starts by calling this between timings; also the atexit hook)."""
    with _LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.close()


def pool_stats() -> "dict[str, dict[str, int]]":
    """Per-start-method counters of the live persistent pools."""
    with _LOCK:
        return {
            method: {
                "processes": pool.processes,
                "jobs_dispatched": pool.jobs_dispatched,
                "maps_run": pool.maps_run,
            }
            for method, pool in _POOLS.items()
        }


def pools_spawned() -> int:
    """How many pools this process has created (reuse leaves it flat)."""
    return _SPAWN_COUNT


def pool_map(
    func, payloads: list, processes: int, start_method: "str | None" = None
) -> list:
    """Fan ``payloads`` out over the persistent pool — the engine's one
    fan-out entry point (see :meth:`WorkerPool.map`)."""
    if not payloads:
        return []
    return get_pool(min(processes, len(payloads)), start_method).map(func, payloads)


def fan_out(worker, tasks: list, start_method: "str | None" = None) -> list:
    """Run ``worker`` over ``tasks``, one result per task in task order.

    A single task runs in-process — no pool, no pickling — which is also
    the single-process baseline the benchmarks compare against; more go
    to :func:`pool_map`, one worker each.
    """
    if len(tasks) == 1:
        return [worker(tasks[0])]
    return pool_map(worker, tasks, len(tasks), start_method)
