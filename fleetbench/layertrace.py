"""Per-layer spans for the traced benchmark run (``--trace 1``).

The end-to-end metrics are measured with nothing patched.  A traced run
calls :func:`install`, which replaces each layer's public functions with
thin wrappers that record one span per call while the recorder is
enabled: a name, a start and an end from ``time.perf_counter_ns`` (the
system-wide monotonic clock on Linux, so spans from different processes
share one timeline), and an amount (1 per call, or bytes for the encoder
and the wire).

Two rules keep the trace complete:

* Each name is patched where it is looked up.  ``writer`` and
  ``distributed`` bind ``encode_csv_rows`` and ``population_digest`` into
  their own module globals, so every ``repro`` module that holds the
  original object gets the wrapper, not only the module defining it.
* The wrappers must be in place before any pool forks (the caller shuts
  the persistent pools down right after :func:`install`), so forked
  workers inherit them.  Every task a pool runs while tracing is wrapped
  in :class:`_PoolTask`, which records the task's own span and writes the
  worker's spans to a spool directory as the task ends; the parent reads
  the spool with :func:`collect` after the timed call.  Under the
  ``spawn`` start method workers would not inherit the wrappers; the
  counter reconciliation in ``run.py`` turns that into a loud failure
  rather than silently low numbers.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

GENERATE = "core.generate"
UPDATE = "engine.reduce.update"
MERGE = "engine.reduce.merge"
ROW_DIGEST = "engine.streaming.row_digest"
ENCODE = "engine.csvfmt.encode"
TO_STATE = "stats.state.to_state"
FROM_STATE = "stats.state.from_state"
POOL_MAP = "engine.pool.map"
SEND = "engine.distributed.send"
RECV = "engine.distributed.recv"
RETRY = "engine.retry.call"

#: Spans that are not the writer's own work.  ``engine.writer.self_s`` is
#: a writer span minus the part of it these spans cover; what is left is
#: block/segment writes, hashing, checkpoint JSON and fsync.
WRITER_CHILDREN = frozenset(
    {GENERATE, UPDATE, MERGE, ROW_DIGEST, ENCODE, TO_STATE, FROM_STATE, POOL_MAP}
)

WRITER_MODULE = "repro.engine.writer"


class Recorder:
    """The spans of one process, kept in memory until the run reads them.

    A span is ``(name, start_ns, end_ns, amount)``.  Appending a tuple to
    a list is atomic under the interpreter lock, so the coordinator's
    reader threads and a worker's heartbeat thread need no lock.
    """

    def __init__(self):
        self.enabled = False
        self.spans: "list[tuple]" = []
        self._local = threading.local()

    def open_names(self) -> "set[str]":
        """Span names open on the calling thread."""
        names = getattr(self._local, "names", None)
        if names is None:
            names = self._local.names = set()
        return names

    def take(self) -> "list[tuple]":
        spans, self.spans = self.spans, []
        return spans


#: The process's recorder.  Wrappers installed as module globals can only
#: reach it through a global, and a forked worker inherits it this way.
RECORDER = Recorder()

_MAP_IDS = itertools.count(1)


def _span(name: str, func, amount=None):
    """Wrap ``func`` to record a ``name`` span per outermost call."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        recorder = RECORDER
        if not recorder.enabled:
            return func(*args, **kwargs)
        names = recorder.open_names()
        if name in names:  # the enclosing span of the same layer covers it
            return func(*args, **kwargs)
        names.add(name)
        result = None
        start = time.perf_counter_ns()
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            names.discard(name)
            if amount is None:
                count = 1
            else:
                count = 0 if result is None else amount(result)
            recorder.spans.append((name, start, end, count))

    return wrapper


class _CountingSocket:
    """Socket stand-in that counts the bytes ``send_frame`` writes."""

    def __init__(self, sock):
        self._sock = sock
        self.sent = 0

    def sendall(self, data) -> None:
        self.sent += len(data)
        self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _traced_send_frame(original):
    @functools.wraps(original)
    def send_frame(sock, message):
        recorder = RECORDER
        if not recorder.enabled:
            return original(sock, message)
        counting = _CountingSocket(sock)
        start = time.perf_counter_ns()
        try:
            return original(counting, message)
        finally:
            recorder.spans.append((SEND, start, time.perf_counter_ns(), counting.sent))

    return send_frame


def _traced_retry_call(original):
    """``RetryPolicy.call`` recording one span whose amount is attempts."""

    @functools.wraps(original)
    def call(self, func, *args, **kwargs):
        recorder = RECORDER
        if not recorder.enabled:
            return original(self, func, *args, **kwargs)
        attempts = 0

        def attempt():
            nonlocal attempts
            attempts += 1
            return func()

        start = time.perf_counter_ns()
        try:
            return original(self, attempt, *args, **kwargs)
        finally:
            recorder.spans.append((RETRY, start, time.perf_counter_ns(), attempts))

    return call


class _PoolTask:
    """What a pool worker runs in place of a task function while tracing.

    Picklable (the task function travels by reference, and fork workers
    already hold this module), so it crosses ``Pool.map`` and
    ``apply_async`` like the function it wraps.
    """

    def __init__(self, func, spool: str, map_id: "int | None"):
        self.func = func
        self.spool = spool
        self.map_id = map_id

    def __call__(self, *args):
        recorder = RECORDER
        recorder.take()  # spans inherited through fork are the parent's
        recorder.open_names().clear()
        recorder.enabled = True
        start = time.perf_counter_ns()
        try:
            return self.func(*args)
        finally:
            end = time.perf_counter_ns()
            recorder.enabled = False
            record = {
                "module": self.func.__module__,
                "map_id": self.map_id,
                "start": start,
                "end": end,
                "spans": recorder.take(),
            }
            path = os.path.join(self.spool, f"{os.getpid()}-{end}.json")
            with open(path + ".tmp", "w", encoding="utf-8") as handle:
                json.dump(record, handle)
            os.replace(path + ".tmp", path)


def _traced_pool_map(original, spool: str):
    @functools.wraps(original)
    def pool_map(func, payloads, processes, start_method=None):
        recorder = RECORDER
        if not recorder.enabled or not payloads:
            return original(func, payloads, processes, start_method)
        map_id = next(_MAP_IDS)
        start = time.perf_counter_ns()
        try:
            return original(
                _PoolTask(func, spool, map_id), payloads, processes, start_method
            )
        finally:
            recorder.spans.append((POOL_MAP, start, time.perf_counter_ns(), map_id))

    return pool_map


def _traced_apply_async(original, spool: str):
    @functools.wraps(original)
    def apply_async(self, func, args=()):
        if RECORDER.enabled:
            func = _PoolTask(func, spool, None)
        return original(self, func, args)

    return apply_async


def _patch_everywhere(original, replacement) -> None:
    """Rebind every ``repro`` module global that holds ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(spool: str) -> None:
    """Wrap every traced layer function; pool tasks spool into ``spool``.

    Call once, with the ``repro`` modules imported, and shut the
    persistent pools down afterwards so that workers fork with the
    wrappers in place.
    """
    from repro.core.generator import CorrelatedHostGenerator
    from repro.engine import csvfmt, distributed, pool, streaming
    from repro.engine.reduce import ReducerSet
    from repro.engine.retry import RetryPolicy

    CorrelatedHostGenerator.generate = _span(GENERATE, CorrelatedHostGenerator.generate)
    ReducerSet.update = _span(UPDATE, ReducerSet.update)
    ReducerSet.merge = _span(MERGE, ReducerSet.merge)
    ReducerSet.to_state = _span(TO_STATE, ReducerSet.to_state)
    ReducerSet.from_state = classmethod(
        _span(FROM_STATE, ReducerSet.__dict__["from_state"].__func__)
    )
    RetryPolicy.call = _traced_retry_call(RetryPolicy.call)
    pool.WorkerPool.apply_async = _traced_apply_async(
        pool.WorkerPool.apply_async, spool
    )
    for original, replacement in (
        (streaming.population_digest, _span(ROW_DIGEST, streaming.population_digest)),
        (csvfmt.encode_csv_rows, _span(ENCODE, csvfmt.encode_csv_rows, amount=len)),
        (pool.pool_map, _traced_pool_map(pool.pool_map, spool)),
        (distributed.send_frame, _traced_send_frame(distributed.send_frame)),
        (distributed.recv_frame, _span(RECV, distributed.recv_frame, amount=lambda _: 1)),
    ):
        _patch_everywhere(original, replacement)


def collect(spool: str) -> "list[dict]":
    """Read and remove the task records pool workers spooled."""
    tasks = []
    for name in sorted(os.listdir(spool)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(spool, name)
        with open(path, "r", encoding="utf-8") as handle:
            tasks.append(json.load(handle))
        os.remove(path)
    return tasks


def _covered_ns(intervals, lo: int, hi: int) -> int:
    """Nanoseconds of ``[lo, hi)`` covered by the union of ``intervals``."""
    covered = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def _self_ns(spans, lo: int, hi: int) -> int:
    children = [(start, end) for name, start, end, _ in spans if name in WRITER_CHILDREN]
    return (hi - lo) - _covered_ns(children, lo, hi)


def span_metrics(
    spans: "list[tuple]", tasks: "list[dict]", writer_call: "tuple[int, int] | None"
) -> "dict[str, float]":
    """Per-layer times and counts of one timed call.

    ``spans`` are the parent's, ``tasks`` the spooled worker records and
    ``writer_call`` the ``(start_ns, end_ns)`` of the timed call when it
    is a public writer function (export or resume), else ``None``.
    """
    every = list(spans) + [tuple(span) for task in tasks for span in task["spans"]]
    seconds: "dict[str, float]" = {}
    calls: "dict[str, int]" = {}
    amounts: "dict[str, int]" = {}
    for name, start, end, amount in every:
        seconds[name] = seconds.get(name, 0.0) + (end - start) / 1e9
        calls[name] = calls.get(name, 0) + 1
        amounts[name] = amounts.get(name, 0) + amount

    writer_self = 0
    if writer_call is not None:
        writer_self += _self_ns(spans, *writer_call)
        for task in tasks:
            if task["module"] == WRITER_MODULE:
                writer_self += _self_ns(task["spans"], task["start"], task["end"])

    dispatch = 0
    for name, start, end, map_id in spans:
        if name == POOL_MAP:
            longest = max(
                (t["end"] - t["start"] for t in tasks if t["map_id"] == map_id),
                default=0,
            )
            dispatch += (end - start) - longest

    return {
        "core.generate_s": seconds.get(GENERATE, 0.0),
        "core.generate_calls": calls.get(GENERATE, 0),
        "engine.reduce.update_s": seconds.get(UPDATE, 0.0),
        "engine.reduce.merge_s": seconds.get(MERGE, 0.0),
        "engine.reduce.update_calls": calls.get(UPDATE, 0),
        "engine.streaming.row_digest_s": seconds.get(ROW_DIGEST, 0.0),
        "engine.streaming.row_digest_calls": calls.get(ROW_DIGEST, 0),
        "engine.csvfmt.encode_s": seconds.get(ENCODE, 0.0),
        "engine.csvfmt.encode_bytes": amounts.get(ENCODE, 0),
        "stats.state.to_state_s": seconds.get(TO_STATE, 0.0),
        "stats.state.to_state_calls": calls.get(TO_STATE, 0),
        "stats.state.from_state_s": seconds.get(FROM_STATE, 0.0),
        "engine.writer.export_s": (
            (writer_call[1] - writer_call[0]) / 1e9 if writer_call else 0.0
        ),
        "engine.writer.self_s": writer_self / 1e9,
        "engine.pool.map_s": seconds.get(POOL_MAP, 0.0),
        "engine.pool.dispatch_s": dispatch / 1e9,
        "engine.distributed.frames_sent": calls.get(SEND, 0),
        "engine.distributed.frames_recv": amounts.get(RECV, 0),
        "engine.distributed.frame_bytes": amounts.get(SEND, 0),
        "engine.distributed.send_s": seconds.get(SEND, 0.0),
        "engine.distributed.recv_wait_s": seconds.get(RECV, 0.0),
        "engine.retry.calls": calls.get(RETRY, 0),
        "engine.retry.retries": amounts.get(RETRY, 0) - calls.get(RETRY, 0),
    }
