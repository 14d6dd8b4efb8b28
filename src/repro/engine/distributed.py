"""Distributed fleet export: a coordinator/worker reduction backend.

``generate_sharded`` and the writer fan work out to processes on one
machine; this module crosses the machine boundary.  A coordinator owns
the export: it partitions the RNG-block space into *leases*, hands them
to workers over a length-prefixed JSON protocol, and folds the results
back through the ``to_state()``/``from_state()`` serialization contract
(:mod:`repro.stats.state`) — exactly the payloads the checkpoint layer
persists to disk, now travelling a socket instead.

Topology
--------
Two kinds of worker share the coordinator's lease queue and its
requeue, steal and metrics bookkeeping, and both run each lease through
one function, :func:`run_lease`:

* ``export_fleet_distributed(..., workers=N)`` gives the coordinator N
  *pool slots* on the engine's persistent pool (:mod:`repro.engine.pool`,
  honouring its start-method override).  A slot runs one lease at a time
  as a pool task that writes its block files straight into ``out_dir``;
  no socket is opened.
* ``serve_worker(host, port)`` (CLI: ``fleet serve-worker``) listens for
  a coordinator; ``export_fleet_distributed(..., connect=[(host, port)])``
  dials it, and the peer speaks the protocol below.  Peers always ship
  segment bytes inline (base64): they cannot assume a shared filesystem,
  and no job frame names a directory, so a coordinator cannot make them
  write files.

Protocol
--------
Frames are ``>I`` length-prefixed UTF-8 JSON objects capped at
:data:`MAX_FRAME_BYTES`; a connection that closes mid-header or mid-body
is a *torn frame* and raises :class:`ProtocolError`, as do oversized,
empty, non-JSON and non-object frames.  The worker speaks first::

    worker → hello {protocol, token?}   coordinator → job {params, seed, token?, ...}
    worker → ready                      coordinator → assign {block_lo, block_hi}
    worker → result {blocks, reducers}     ... repeat ...
    worker → heartbeat (background thread, any time)
    worker → drain (finish held leases, deregister cleanly)
                                        coordinator → heartbeat (liveness beacon)
                                        coordinator → shutdown

Authentication
--------------
When a shared token is configured (:func:`resolve_fleet_token`:
``--token-file`` beats the ``REPRO_FLEET_TOKEN`` environment variable)
both directions check it with a constant-time compare: the coordinator
drops a ``hello`` whose token is wrong or missing
(:class:`AuthenticationError`), and a token-holding worker refuses a
``job`` frame that fails the same check — without telling the
unauthenticated coordinator why.  The token travels the wire in clear
text; deploy on trusted networks or behind a TLS tunnel.

Backpressure and drain
----------------------
Each worker holds at most ``lease_depth`` leases in flight (``ready``
frames are credits; the coordinator never assigns beyond them).  A
draining worker (``serve_worker(drain_event=...)``, SIGTERM on the CLI)
finishes the leases it holds, sends ``drain`` instead of the next
``ready``, and deregisters without tripping failure reassignment.

Failure semantics
-----------------
The coordinator tracks per-peer liveness (last frame seen).  A dropped
connection, a protocol violation, an authentication failure, a reducer
payload that fails ``ReducerSet.from_state`` (corrupt or
version-mismatched state) or a heartbeat gap beyond ``worker_timeout``
retires the peer and requeues its outstanding leases; so does a pool
slot whose task raises or whose process dies
(:class:`~repro.engine.pool.WorkerDiedError`).  Peers apply the same
deadline in reverse: the job frame carries ``worker_timeout``, the
coordinator heartbeats every :data:`HEARTBEAT_INTERVAL` seconds, and a
peer that sees no frame for ``worker_timeout`` declares the coordinator
dead and abandons the job instead of wedging forever.  When the lease
queue drains while stragglers still hold leases, idle workers steal the
oldest outstanding lease (speculative re-execution; for a slot, a second
pool task); the determinism contract makes duplicates byte-identical, so
the first result wins and later ones are discarded (a slot still running
one at the end is killed).  The run fails only when *no* workers remain.
The coordinator's one wait covers its slots' pool pipes and a self-pipe
that the peer reader threads write, so either side's event wakes it.

Resumable runs
--------------
A distributed run keeps the one resumable-run format that
:mod:`repro.engine.writer` owns.  Before any worker spawns the
coordinator pins a ``FleetExportPlan`` (:data:`DISTRIBUTED_PLAN_NAME`)
whose grid is the lease size plus the wire reducer arguments and
generator name.  It then appends one fsynced journal line to
:data:`DISTRIBUTED_LEASE_LOG` per completed lease: the lease's block
entries as its ``result`` frame carried them, and the lease's own
reducer state.  :func:`~repro.engine.writer.resume_export` (CLI:
``fleet export --resume``) validates the plan against the generator,
restores every lease whose block files still verify, cuts a torn final
line (the coordinator died mid-append) back and appends the re-leased
ranges after the lines already there.  The plan and journal are removed
when the manifest is finalised.

Observability
-------------
The coordinator collects per-lease timings, per-worker frame/lease
counters, heartbeat-gap histograms and requeue/steal/drain counts into a
``FleetDistributedMetrics`` JSON document, embedded in
:class:`DistributedExportResult` and optionally written to
``metrics_path`` (CLI: ``--metrics PATH``) for a future ``fleet serve``
scraper.

Byte identity
-------------
Every block's bytes are a pure function of ``(parameters, when, size,
seed)``, so worker placement, crashes, steals, drains and resumes cannot
change the export: the manifest is byte-identical to
``export_fleet_blocks(shards=1, checkpoint_every=0)`` and the CSV
concatenation (hence ``payload_sha256`` and ``fleet_sha256``) to the
single-process ``export_fleet`` of the same fleet.  Statistics merge
lease states in block order, so they are bit-identical across worker
counts and failure schedules too.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import hmac
import json
import os
import socket
import struct
import sys
import threading
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from queue import Queue

import numpy as np

from repro.engine.accumulate import CorrelationAccumulator, MomentAccumulator
from repro.engine.pool import get_pool
from repro.engine.retry import DIAL_RETRY
from repro.engine.reduce import ChunkedFold, QuantileReducer, ReducerSet
from repro.engine.sharding import FleetStatistics, _resolve_factories
from repro.engine.streaming import (
    DEFAULT_CHUNK_SIZE,
    RNG_BLOCK_SIZE,
    BlockTask,
    as_seed_sequence,
    block_count,
)
from repro.engine.writer import (
    DISTRIBUTED_LEASE_LOG,
    DISTRIBUTED_PLAN_NAME,
    FleetManifest,
    _append_journal,
    _block_name,
    _decode_entries,
    _digest_files,
    _finish_run,
    _grid_cells,
    _journal_line,
    _load_journal,
    _read_matching_block,
    _render_block,
    _start_run,
    _write_block_file,
    _write_json_atomic,
)
from repro.faults.injector import fire as _fire
from repro.faults.sites import (
    KIND_FRAME_CORRUPT,
    KIND_FRAME_DROP,
    KIND_HEARTBEAT_STALL,
    SITE_CONNECT_DIAL,
    SITE_COORDINATOR_CHECKPOINT,
    SITE_FRAME_RECV,
    SITE_FRAME_SEND,
    SITE_HEARTBEAT,
    SITE_WORKER_BLOCK,
)
from repro.stats.state import StateError, make_envelope

#: Wire protocol schema version; hello/job frames carry and check it.
#: v2 added token auth, coordinator heartbeats, worker read deadlines,
#: lease-depth credits and the drain frame.
PROTOCOL_VERSION = 2

#: Frame length prefix: 4-byte big-endian unsigned length.
_FRAME_HEADER = struct.Struct(">I")

#: Upper bound on a single frame's JSON body.  A lease result with inline
#: segment data is ~200 KiB per block, so the default 8-block lease stays
#: three orders of magnitude under this; anything larger is a corrupt or
#: hostile length prefix, not a real message.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Blocks per lease — the scheduling granule.  Smaller leases rebalance
#: stragglers faster; larger leases amortise protocol round trips.
DEFAULT_LEASE_BLOCKS = 4

#: Leases a worker may hold in flight (its backpressure bound).  1 keeps
#: the strict ready→assign→result lockstep; 2 lets the coordinator
#: pipeline the next assign while the worker generates.
DEFAULT_LEASE_DEPTH = 1

#: Seconds of frame silence after which a peer is declared dead — applied
#: by the coordinator to workers and (since the job frame carries it) by
#: workers to the coordinator.
DEFAULT_WORKER_TIMEOUT = 60.0

#: Cadence of the background heartbeat beacons (both directions).
HEARTBEAT_INTERVAL = 2.0

#: Age an outstanding lease must reach before an idle worker steals it.
STEAL_AFTER = 5.0

#: Longest the coordinator waits between passes over heartbeats, liveness
#: and stealing; slot results and peer frames wake it at once.
_TICK = 0.2

#: Environment variable supplying the shared fleet token.
FLEET_TOKEN_ENV = "REPRO_FLEET_TOKEN"

#: Envelope kind and schema version of the metrics document.
DISTRIBUTED_METRICS_KIND = "FleetDistributedMetrics"
DISTRIBUTED_STATE_VERSION = 1

#: Upper edges (seconds) of the heartbeat-gap histogram buckets; the
#: final bucket is open-ended.  Gaps land left of the first edge when the
#: fleet is healthy (heartbeats every :data:`HEARTBEAT_INTERVAL` s).
HEARTBEAT_GAP_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0)

#: Reducers that may travel the wire by *name* (the job frame carries
#: names, never callables — workers instantiate from this registry, so a
#: coordinator cannot make a worker run arbitrary code).
WIRE_REDUCER_FACTORIES = {
    "moments": MomentAccumulator,
    "correlation": CorrelationAccumulator,
    "quantiles": QuantileReducer,
}

def _wire_reducer_spec(name: str, factory) -> "list":
    """Encode one reducer factory's constructor arguments for the wire.

    A factory is either a :data:`WIRE_REDUCER_FACTORIES` class itself
    (``[]``) or a ``functools.partial`` of one whose positional arguments
    are label tuples or numeric scalars (the scenario profiles).  Anything
    else cannot travel a JSON wire and raises :class:`ValueError`.
    """
    base = factory
    args: "tuple" = ()
    if isinstance(base, functools.partial):
        if base.keywords:
            raise ValueError(
                f"reducer {name!r} cannot travel the wire: partial keywords "
                "are not supported"
            )
        args = base.args
        base = base.func
    if WIRE_REDUCER_FACTORIES.get(name) is not base:
        raise ValueError(
            f"reducer {name!r} cannot travel the wire; the distributed "
            f"backend ships names from {sorted(WIRE_REDUCER_FACTORIES)}"
        )
    encoded: "list" = []
    for arg in args:
        if isinstance(arg, (list, tuple)) and all(
            isinstance(item, str) for item in arg
        ):
            encoded.append(list(arg))
        elif isinstance(arg, (int, float)) and not isinstance(arg, bool):
            encoded.append(arg)
        else:
            raise ValueError(
                f"reducer {name!r} argument {arg!r} cannot travel the wire "
                "(label lists and numeric scalars only)"
            )
    return encoded


def _wire_factories(names, reducer_args) -> dict:
    """Rebuild a factory dict from wire reducer names and their
    :func:`_wire_reducer_spec` arguments, as a job frame or a plan holds them.

    Each name must be in :data:`WIRE_REDUCER_FACTORIES`; missing or empty
    arguments mean the bare registry class, and label lists come back as
    tuples.  Anything else raises :class:`ValueError`.
    """
    if not isinstance(reducer_args, dict):
        raise ValueError("reducer_args must be an object")
    factories = {}
    for name in names:
        cls = WIRE_REDUCER_FACTORIES.get(name)
        if cls is None:
            raise ValueError(
                f"unknown wire reducer {name!r}; known: "
                f"{sorted(WIRE_REDUCER_FACTORIES)}"
            )
        raw = reducer_args.get(name) or []
        if not isinstance(raw, list):
            raise ValueError(f"reducer argument payload must be a list, got {raw!r}")
        args: "list" = []
        for item in raw:
            if isinstance(item, list) and all(isinstance(v, str) for v in item):
                args.append(tuple(item))
            elif isinstance(item, (int, float)) and not isinstance(item, bool):
                args.append(item)
            else:
                raise ValueError(f"malformed wire reducer argument {item!r}")
        factories[name] = functools.partial(cls, *args) if args else cls
    return factories


def _wire_reducer_args(factories: dict) -> "dict[str, list]":
    """The job/plan ``reducer_args`` field for a validated factory dict."""
    return {
        name: _wire_reducer_spec(name, factory)
        for name, factory in sorted(factories.items())
    }


class ProtocolError(RuntimeError):
    """A frame violated the length-prefixed JSON wire protocol."""


class AuthenticationError(ProtocolError):
    """A peer failed the shared-token check."""


def resolve_fleet_token(token_file: "str | None" = None) -> "str | None":
    """The shared fleet token, or ``None`` when auth is not configured.

    ``token_file`` (CLI ``--token-file``) wins over the
    :data:`FLEET_TOKEN_ENV` environment variable; surrounding whitespace
    is stripped so a trailing newline in the file is harmless.  An
    unreadable file raises :class:`OSError`; a file or variable that is
    set but blank raises :class:`ValueError` — silently running
    unauthenticated when the operator configured a token would be worse
    than failing.
    """
    if token_file is not None:
        with open(token_file, "r", encoding="utf-8") as handle:
            token = handle.read().strip()
        if not token:
            raise ValueError(f"token file {token_file} is empty")
        return token
    raw = os.environ.get(FLEET_TOKEN_ENV)
    if raw is None:
        return None
    token = raw.strip()
    if not token:
        raise ValueError(f"{FLEET_TOKEN_ENV} is set but blank")
    return token


def _token_matches(expected: str, supplied) -> bool:
    """Constant-time token comparison (False for non-string payloads)."""
    if not isinstance(supplied, str):
        return False
    return hmac.compare_digest(
        supplied.encode("utf-8"), expected.encode("utf-8")
    )


# -- framing -----------------------------------------------------------------


def send_frame(sock: socket.socket, message: dict) -> None:
    """Serialise one protocol message and write it to the socket."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing to send an oversized frame ({len(body)} bytes > "
            f"{MAX_FRAME_BYTES})"
        )
    firing = _fire(SITE_FRAME_SEND)
    if firing is not None:
        if firing.kind == KIND_FRAME_DROP:
            # A frame lost with the connection still healthy could wedge
            # the lease protocol forever (a dropped ``ready`` starves the
            # coordinator of credits).  Real networks do not lose one
            # frame from an otherwise-ordered TCP stream either — they
            # lose the connection.  Model that: drop the frame *and* the
            # socket, so both peers' failure detection converges.
            sock.close()
            raise OSError("fault injection: frame dropped, connection torn down")
        if firing.kind == KIND_FRAME_CORRUPT:
            body = bytes([body[0] ^ 0xFF]) + body[1:]
    sock.sendall(_FRAME_HEADER.pack(len(body)) + body)


def recv_frame(sock: socket.socket) -> "dict | None":
    """Read one protocol message; ``None`` on a clean EOF between frames.

    A connection that closes *inside* a frame (torn header or body), a
    length prefix of zero or beyond :data:`MAX_FRAME_BYTES`, or a body
    that is not a JSON object all raise :class:`ProtocolError`.
    """
    _fire(SITE_FRAME_RECV)
    header = _recv_exact(sock, _FRAME_HEADER.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _FRAME_HEADER.unpack(header)
    if length == 0:
        raise ProtocolError("empty frame (zero-length prefix)")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"oversized frame: length prefix {length} exceeds "
            f"{MAX_FRAME_BYTES} bytes"
        )
    body = _recv_exact(sock, length, allow_eof=False)
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError(f"frame body is not valid JSON: {error}")
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    return message


def _recv_exact(sock: socket.socket, n: int, allow_eof: bool) -> "bytes | None":
    """Read exactly ``n`` bytes; torn reads raise, clean EOF may return None."""
    pieces: "list[bytes]" = []
    remaining = n
    while remaining:
        piece = sock.recv(min(remaining, 1 << 20))
        if not piece:
            if allow_eof and remaining == n:
                return None
            raise ProtocolError(
                f"torn frame: connection closed with {remaining} of {n} "
                "bytes outstanding"
            )
        pieces.append(piece)
        remaining -= len(piece)
    return b"".join(pieces)


def _hang_up(sock: socket.socket) -> None:
    """End a peer connection now: shut both directions, then close.

    A bare ``close()`` racing a reader thread blocked in ``recv()`` on
    the same socket sends no FIN, so the peer would wait out its read
    deadline; ``shutdown`` tears the connection down regardless.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected, or the peer already hung up
    try:
        sock.close()
    except OSError:
        pass


def parse_endpoint(spec: str) -> "tuple[str, int]":
    """Parse a ``HOST:PORT`` worker endpoint, validating the port range."""
    host, sep, port_text = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"worker endpoint {spec!r} is not of the form HOST:PORT")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"worker endpoint {spec!r} has a non-integer port")
    if not 1 <= port <= 65535:
        raise ValueError(
            f"worker endpoint {spec!r} port must be in [1, 65535], got {port}"
        )
    return host, port


# -- worker ------------------------------------------------------------------


def _heartbeat_loop(send, stop: threading.Event, interval: float) -> None:
    while not stop.wait(interval):
        firing = _fire(SITE_HEARTBEAT)
        if firing is not None and firing.kind == KIND_HEARTBEAT_STALL:
            # The beacon thread dies silently; the peer's worker_timeout
            # failure detector is what is under test.
            return
        try:
            send({"type": "heartbeat"})
        except OSError:
            return


def run_lease(task: BlockTask, lease: "tuple[int, int]") -> dict:
    """Run one lease of ``task`` and return its ``result`` frame.

    Generates and renders blocks ``[lo, hi)``, writes each into
    ``task.out_dir`` (a pool slot's task) or, with none (a socket peer's
    :func:`_worker_loop`), inlines it base64, and folds the lease into its
    own reducer set.
    """
    lo, hi = lease
    reducers = ReducerSet.from_factories(task.factories)
    fold = ChunkedFold(reducers, task.chunk_size)
    blocks: "list[dict]" = []
    for index, block in task.generate(range(lo, hi)):
        data, entry = _render_block(index, block)
        if task.out_dir:
            _write_block_file(task.out_dir, index, data)
        else:
            entry["data"] = base64.b64encode(data).decode("ascii")
        blocks.append(entry)
        fold.add(block)
        _fire(SITE_WORKER_BLOCK)
    fold.flush()
    return {
        "type": "result",
        "block_lo": lo,
        "block_hi": hi,
        "blocks": blocks,
        "reducers": reducers.to_state(),
    }


def _worker_loop(
    sock: socket.socket,
    token: "str | None" = None,
    drain_event: "threading.Event | None" = None,
    drain_after: "int | None" = None,
) -> None:
    """Serve one coordinator over an established connection.

    Sends ``hello`` (carrying ``token`` when auth is configured),
    receives the job, then pipelines up to the job's ``lease_depth``
    leases: each ``ready`` is a credit the coordinator answers with an
    ``assign``, and results flow back as leases finish.  A background
    thread heartbeats every :data:`HEARTBEAT_INTERVAL` seconds so slow
    block generation never reads as death; symmetrically, the job's
    ``worker_timeout`` bounds how long a silent coordinator is trusted
    before the worker abandons the job (:class:`ProtocolError`).  Job
    problems (protocol/block-size/reducer-name mismatches) are reported
    with an ``error`` frame rather than silence; a job that fails the
    token check raises :class:`AuthenticationError` without explaining
    itself to the unauthenticated coordinator.

    When ``drain_event`` fires (or ``drain_after`` completed leases are
    reached) the worker finishes the leases it holds, sends ``drain``
    and returns — a clean deregistration, not a failure.  Each lease runs
    through :func:`run_lease` with every block inline: the job frame
    never names a directory.
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    send_lock = threading.Lock()

    def send(message: dict) -> None:
        with send_lock:
            send_frame(sock, message)

    # A connection that never sends the job (port scanner, half-open
    # leftover of a crashed coordinator) must not wedge this worker
    # forever: bound the handshake with the default deadline, then switch
    # to the job's worker_timeout for the rest of the session.
    sock.settimeout(DEFAULT_WORKER_TIMEOUT)
    hello = {"type": "hello", "protocol": PROTOCOL_VERSION, "pid": os.getpid()}
    if token is not None:
        hello["token"] = token
    send(hello)
    job = recv_frame(sock)
    if job is None:
        return
    if job.get("type") != "job":
        raise ProtocolError(f"expected a job frame, got {job.get('type')!r}")
    if token is not None and not _token_matches(token, job.get("token")):
        raise AuthenticationError(
            "coordinator failed the shared-token check; refusing its job"
        )

    def refuse(message: str) -> None:
        send({"type": "error", "message": message})

    if job.get("protocol") != PROTOCOL_VERSION:
        return refuse(
            f"coordinator speaks protocol {job.get('protocol')!r}; this "
            f"worker speaks {PROTOCOL_VERSION}"
        )
    if job.get("block_size") != RNG_BLOCK_SIZE:
        return refuse(
            f"coordinator fleet uses RNG block size {job.get('block_size')!r}; "
            f"this worker generates {RNG_BLOCK_SIZE} and would corrupt the export"
        )
    if job.get("format") != "csv":
        return refuse(f"unsupported segment format {job.get('format')!r}")
    from repro.registry import wire_builder  # the registry imports the engine

    # A job frame without a generator name asks for the host model.
    generator_name = job.get("generator", "CorrelatedHostGenerator")
    builder = wire_builder(generator_name)
    if builder is None:
        return refuse(
            f"unknown wire generator {generator_name!r}; this worker only "
            "builds registered generator families"
        )
    try:
        factories = _wire_factories(
            job.get("reducers", []), job.get("reducer_args", {})
        )
        generator = builder(job["params"])
        size = int(job["size"])
        when = float(job["when"])
        chunk_size = int(job["chunk_size"])
        worker_timeout = float(job.get("worker_timeout", DEFAULT_WORKER_TIMEOUT))
        lease_depth = int(job.get("lease_depth", DEFAULT_LEASE_DEPTH))
        root = np.random.SeedSequence(
            entropy=int(job["entropy"]),
            spawn_key=tuple(int(k) for k in job["spawn_key"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        return refuse(f"malformed job: {error}")
    if not worker_timeout > 0:
        return refuse(f"malformed job: worker_timeout must be positive")
    if lease_depth < 1:
        return refuse(f"malformed job: lease_depth must be at least 1")
    # The coordinator beacons every HEARTBEAT_INTERVAL, so a worker that
    # sees nothing for worker_timeout is orphaned (dead or partitioned
    # coordinator) and must exit rather than wedge a serve-worker slot.
    sock.settimeout(worker_timeout)
    task = BlockTask(
        generator, when, size, root, range(block_count(size)),
        chunk_size=chunk_size, factories=factories,
    )

    stop = threading.Event()
    heartbeat = threading.Thread(
        target=_heartbeat_loop, args=(send, stop, HEARTBEAT_INTERVAL), daemon=True
    )
    heartbeat.start()
    leases_done = 0
    credits = 0
    assigned: "deque[tuple[int, int]]" = deque()
    try:
        while True:
            draining = (drain_event is not None and drain_event.is_set()) or (
                drain_after is not None and leases_done >= drain_after
            )
            if draining and not assigned:
                send({"type": "drain"})
                return
            while not draining and credits + len(assigned) < lease_depth:
                send({"type": "ready"})
                credits += 1
            if not assigned:
                try:
                    message = recv_frame(sock)
                except TimeoutError:
                    raise ProtocolError(
                        f"coordinator sent no frame for {worker_timeout:.0f} s; "
                        "presuming it dead and abandoning the job"
                    )
                if message is None or message.get("type") == "shutdown":
                    return
                if message.get("type") == "heartbeat":
                    continue
                if message.get("type") != "assign":
                    raise ProtocolError(
                        f"expected assign/heartbeat/shutdown, got "
                        f"{message.get('type')!r}"
                    )
                credits -= 1
                assigned.append(
                    (int(message["block_lo"]), int(message["block_hi"]))
                )
                continue
            send(run_lease(task, assigned.popleft()))
            leases_done += 1
    finally:
        stop.set()


def _dial(host: str, port: int, timeout: "float | None" = None):
    """The coordinator's dial of a ``--connect`` peer, under
    :data:`DIAL_RETRY`.

    The fault site fires *inside* each attempt, so a ``count``-limited
    ``dial-refuse`` spec exercises the retry policy end to end: the
    injected refusals burn attempts, then the real dial goes through.
    """

    def attempt() -> socket.socket:
        _fire(SITE_CONNECT_DIAL)
        return socket.create_connection((host, port), timeout=timeout)

    return DIAL_RETRY.call(
        attempt,
        retry_on=(ConnectionError, TimeoutError),
        describe=f"dialling {host}:{port}",
    )


def serve_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    max_jobs: "int | None" = 1,
    on_bound=None,
    token: "str | None" = None,
    drain_event: "threading.Event | None" = None,
    drain_after: "int | None" = None,
) -> int:
    """Listen for a coordinator and serve jobs (CLI: ``fleet serve-worker``).

    Serves ``max_jobs`` coordinator connections (``None`` = forever) and
    returns the number served.  ``on_bound`` (tests, supervisors) is
    called with the bound port once listening — useful with ``port=0``.
    A failed job (protocol violation, coordinator death) is logged to
    stderr and does not stop the next job; an unauthenticated coordinator
    (``token`` set, :class:`AuthenticationError`) is rejected without
    consuming a job slot.  ``drain_event`` (the CLI arms it on SIGTERM)
    drains the in-progress job gracefully and stops accepting;
    KeyboardInterrupt (Ctrl-C) stops the loop cleanly so the caller can
    print its served summary instead of a traceback.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    served = 0
    try:
        listener.bind((host, port))
        listener.listen(1)
        # Poll the listener so a drain request arriving between jobs is
        # honoured promptly instead of after the next coordinator dials.
        listener.settimeout(0.5)
        if on_bound is not None:
            on_bound(listener.getsockname()[1])
        while max_jobs is None or served < max_jobs:
            if drain_event is not None and drain_event.is_set():
                break
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            conn.settimeout(None)
            try:
                _worker_loop(
                    conn,
                    token=token,
                    drain_event=drain_event,
                    drain_after=drain_after,
                )
            except AuthenticationError as error:
                sys.stderr.write(
                    f"serve-worker: rejected unauthenticated coordinator: "
                    f"{error}\n"
                )
                continue
            except (ProtocolError, StateError, OSError) as error:
                sys.stderr.write(f"serve-worker: job failed: {error}\n")
            finally:
                conn.close()
            served += 1
    except KeyboardInterrupt:
        pass  # Ctrl-C: stop accepting; the caller prints the served summary
    finally:
        listener.close()
    return served


# -- coordinator -------------------------------------------------------------


@dataclass
class DistributedExportResult:
    """Outcome of a distributed fleet export.

    ``workers`` counts pool slots plus peers that completed the
    handshake; ``reassigned_leases`` counts leases requeued after a
    worker died plus leases stolen from stragglers by idle workers
    (graceful drains do not contribute).  ``metrics`` is the run's
    ``FleetDistributedMetrics`` document (per-lease timings,
    heartbeat-gap histograms, per-worker counters); ``resumed_leases``
    counts leases restored from the checkpoint log rather than re-run.
    """

    manifest: FleetManifest
    statistics: FleetStatistics
    workers: int
    reassigned_leases: int
    metrics: dict = field(default_factory=dict)
    resumed_leases: int = 0


class _Remote:
    """Coordinator-side state of one worker: a socket peer, or (no
    ``sock``) a pool slot that runs one lease at a time as a pool task."""

    def __init__(self, name: str, sock: "socket.socket | None" = None):
        self.name = name
        self.sock = sock
        self.local = sock is None
        # A slot has no handshake and never sends ``ready``: it starts
        # active with the one credit of its single in-flight lease.
        self.state = "active" if self.local else "hello"
        #: Outstanding leases held by this worker → monotonic assign time.
        self.leases: "dict[tuple[int, int], float]" = {}
        #: Unconsumed ``ready`` credits (assignable without overrunning
        #: the worker's in-flight cap).
        self.credits = 1 if self.local else 0
        #: A slot's running :class:`~repro.engine.pool.AsyncTask`.
        self.task = None
        self.last_seen = time.monotonic()
        self.alive = True


class _Coordinator:
    """Single-threaded scheduler over pool slots and socket peers (whose
    frames arrive on :attr:`events` from one reader thread each)."""

    def __init__(
        self,
        job: dict,
        leases: "list[tuple[int, int]]",
        out_dir: str,
        factories: dict,
        size: int,
        worker_timeout: float,
        token: "str | None" = None,
        lease_depth: int = DEFAULT_LEASE_DEPTH,
        checkpoint_log=None,
        completed: "dict | None" = None,
    ):
        self.job = job
        self.leases = leases
        self.out_dir = out_dir
        self.factories = factories
        self.size = size
        self.worker_timeout = worker_timeout
        self.token = token
        self.lease_depth = lease_depth
        self.checkpoint_log = checkpoint_log
        self.events: Queue = Queue()
        #: The peer readers' self-pipe (see :meth:`_put`), made by the
        #: first :meth:`attach`.
        self.wake = self.waker = None
        self.wake_lock = threading.Lock()
        self.remotes: "list[_Remote]" = []
        #: Finished lease → its block entries and its own reducer set.
        self.completed: "dict[tuple[int, int], tuple[list, ReducerSet]]" = dict(
            completed or {}
        )
        self.pending: "deque[tuple[int, int]]" = deque(
            lease for lease in leases if lease not in self.completed
        )
        self.requeued = 0
        self.stolen = 0
        self.drained = 0
        self.workers_seen = 0
        self.last_error: "BaseException | None" = None
        #: The pool and the :class:`BlockTask` the slots run leases of.
        self.pool = None
        self.block_task: "BlockTask | None" = None
        self.lease_events: "list[dict]" = []
        self.worker_metrics: "dict[str, dict]" = {}

    # -- workers -------------------------------------------------------------

    def add_slots(self, pool, task: BlockTask, count: int) -> None:
        """Add ``count`` slots running leases of ``task`` on ``pool``."""
        self.pool, self.block_task = pool, task
        for index in range(count):
            remote = _Remote(f"local-{index}")
            self.remotes.append(remote)
            self.workers_seen += 1
            self._worker_entry(remote)
            self._offer(remote)

    def attach(self, sock: socket.socket, name: str) -> None:
        """Register a peer connection and start its reader thread."""
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self.wake is None:
            self.wake, self.waker = socket.socketpair()
            self.wake.setblocking(False)
            self.waker.setblocking(False)
        remote = _Remote(name, sock)
        self.remotes.append(remote)
        threading.Thread(
            target=self._reader, args=(remote,), daemon=True
        ).start()

    def _reader(self, remote: _Remote) -> None:
        """Queue each frame, then ``None`` for a clean close or a failure."""
        try:
            while True:
                message = recv_frame(remote.sock)
                self._put((remote, message, None))
                if message is None:
                    return
        except (ProtocolError, OSError) as error:
            self._put((remote, None, error))

    def _put(self, event: tuple) -> None:
        """Queue a peer event and wake :meth:`_wait` with a byte on the
        self-pipe (the lock keeps :meth:`close` from freeing it mid-send)."""
        self.events.put(event)
        with self.wake_lock:
            if self.waker is not None:
                try:
                    self.waker.send(b"\0")
                except BlockingIOError:
                    pass  # a full pipe already holds a wake-up

    def close(self) -> None:
        """Hang up every peer, close the self-pipe, and kill any slot still
        running: it holds a duplicate of a finished lease (or the run
        failed).  A duplicate rewrites accepted blocks in place with the
        same bytes (:func:`run_lease`), so the kill never leaves one short."""
        with self.wake_lock:
            if self.wake is not None:
                self.wake.close()
                self.waker.close()
                self.wake = self.waker = None
        for remote in self.remotes:
            if remote.sock is not None:
                _hang_up(remote.sock)
            if remote.task is not None and not remote.task.done:
                remote.task.kill()

    # -- scheduling ----------------------------------------------------------

    def _send(self, remote: _Remote, message: dict) -> None:
        try:
            send_frame(remote.sock, message)
        except OSError as error:
            self._drop(remote, error)

    def _drop(self, remote: _Remote, error: "BaseException | str | None") -> None:
        """Retire a failed worker, recording its error and requeueing."""
        if not remote.alive:
            return
        if error is not None:
            self.last_error = (
                error if isinstance(error, BaseException) else RuntimeError(error)
            )
        self._release(remote)

    def _release(self, remote: _Remote) -> None:
        """Deregister a worker and requeue its outstanding leases.

        Shared by failure drops and graceful drains; a cleanly draining
        worker holds no leases by protocol, so the drain path normally
        requeues nothing (the cap race at ``lease_depth > 1`` — an assign
        in flight when the drain frame was sent — is the exception).
        """
        remote.alive = False
        remote.credits = 0
        if remote.sock is not None:
            _hang_up(remote.sock)
        outstanding = list(remote.leases)
        remote.leases.clear()
        requeued = False
        for lease in outstanding:
            if lease in self.completed:
                continue
            if any(r.alive and lease in r.leases for r in self.remotes):
                continue
            self.pending.appendleft(lease)
            self.requeued += 1
            requeued = True
        if requeued:
            for other in self.remotes:
                if other.alive and other.credits > 0:
                    self._offer(other)

    def _assign(self, remote: _Remote, lease: "tuple[int, int]") -> None:
        remote.credits -= 1
        remote.leases[lease] = time.monotonic()
        if remote.local:
            remote.task = self.pool.apply_async(run_lease, (self.block_task, lease))
        else:
            self._send(
                remote,
                {"type": "assign", "block_lo": lease[0], "block_hi": lease[1]},
            )

    def _offer(self, remote: _Remote) -> None:
        while remote.credits > 0 and self.pending:
            self._assign(remote, self.pending.popleft())

    def _steal(self, now: float) -> None:
        """Give fully idle workers the oldest outstanding straggler leases.

        Each pass spreads the idle workers across *distinct* stragglers
        (oldest first) — duplicating one straggler's lease onto every
        idle worker would triplicate its blocks while the other
        stragglers got no help at all.  Only workers holding no lease of
        their own steal, so speculation never competes with real work.
        """
        if self.pending:
            return
        taken: "set[tuple[int, int]]" = set()
        for remote in self.remotes:
            if not (
                remote.alive
                and remote.state == "active"
                and remote.credits > 0
                and not remote.leases
            ):
                continue
            candidates = [
                (started, lease)
                for other in self.remotes
                if other.alive and other is not remote
                for lease, started in other.leases.items()
                if lease not in self.completed
                and lease not in taken
                and now - started > STEAL_AFTER
            ]
            if not candidates:
                return
            started, lease = min(candidates)
            taken.add(lease)
            self.stolen += 1
            self._worker_entry(remote)["stolen_leases"] += 1
            self._assign(remote, lease)

    # -- metrics -------------------------------------------------------------

    def _worker_entry(self, remote: _Remote) -> dict:
        entry = self.worker_metrics.get(remote.name)
        if entry is None:
            entry = self.worker_metrics[remote.name] = {
                "local": remote.local,
                "frames": 0,
                "leases_completed": 0,
                "blocks_completed": 0,
                "stolen_leases": 0,
                "drained": False,
                "heartbeat_gap_histogram": [0] * (len(HEARTBEAT_GAP_BUCKETS) + 1),
                "max_frame_gap_seconds": 0.0,
            }
        return entry

    # -- frame handling ------------------------------------------------------

    def _handle_frame(self, remote: _Remote, message: dict) -> None:
        if not remote.alive:
            return
        now = time.monotonic()
        if remote.state == "active":
            gap = now - remote.last_seen
            entry = self._worker_entry(remote)
            entry["frames"] += 1
            entry["heartbeat_gap_histogram"][
                bisect_right(HEARTBEAT_GAP_BUCKETS, gap)
            ] += 1
            if gap > entry["max_frame_gap_seconds"]:
                entry["max_frame_gap_seconds"] = gap
        remote.last_seen = now
        kind = message.get("type")
        if kind == "hello":
            if remote.state != "hello":
                return self._drop(remote, f"{remote.name} sent a second hello")
            if message.get("protocol") != PROTOCOL_VERSION:
                return self._drop(
                    remote,
                    f"{remote.name} speaks protocol "
                    f"{message.get('protocol')!r}, not {PROTOCOL_VERSION}",
                )
            if self.token is not None and not _token_matches(
                self.token, message.get("token")
            ):
                return self._drop(
                    remote,
                    AuthenticationError(
                        f"{remote.name} failed authentication (bad or "
                        "missing worker token)"
                    ),
                )
            remote.state = "active"
            self.workers_seen += 1
            self._worker_entry(remote)
            self._send(remote, self.job)
        elif kind == "ready":
            if remote.state != "active":
                return self._drop(remote, f"{remote.name} sent ready before hello")
            remote.credits += 1
            if remote.credits + len(remote.leases) > self.lease_depth:
                return self._drop(
                    remote,
                    f"{remote.name} exceeded the in-flight lease cap "
                    f"({self.lease_depth})",
                )
            self._offer(remote)
        elif kind == "heartbeat":
            pass
        elif kind == "result":
            self._handle_result(remote, message)
        elif kind == "drain":
            if remote.state != "active":
                return self._drop(remote, f"{remote.name} sent drain before hello")
            self.drained += 1
            self._worker_entry(remote)["drained"] = True
            self._release(remote)
        elif kind == "error":
            self._drop(
                remote,
                f"worker {remote.name} refused the job: {message.get('message')}",
            )
        else:
            self._drop(remote, f"{remote.name} sent unknown frame type {kind!r}")

    def _handle_result(self, remote: _Remote, message: dict) -> None:
        lease = (message.get("block_lo"), message.get("block_hi"))
        if lease not in remote.leases:
            return self._drop(
                remote, f"{remote.name} sent a result for a lease it does not hold"
            )
        if lease in self.completed:
            del remote.leases[lease]
            return  # a speculative duplicate lost the race; first result won
        try:
            entries, reducers, writes = self._validate_result(remote, lease, message)
        except (StateError, ProtocolError, ValueError, TypeError, KeyError) as error:
            # The lease is still attached to the remote here, so _drop
            # requeues it — clearing it first would leak the lease and
            # hang the export once the healthy workers drain the queue.
            return self._drop(
                remote, f"rejected result from {remote.name}: {error}"
            )
        started = remote.leases.pop(lease)
        for entry, data in zip(entries, writes):
            _write_block_file(self.out_dir, entry["index"], data)
        self.completed[lease] = entries, reducers
        self.lease_events.append(
            {
                "block_lo": lease[0],
                "block_hi": lease[1],
                "worker": remote.name,
                "seconds": time.monotonic() - started,
            }
        )
        stats = self._worker_entry(remote)
        stats["leases_completed"] += 1
        stats["blocks_completed"] += lease[1] - lease[0]
        if self.checkpoint_log is not None:
            # The lease's fsynced journal line, with its own reducer state.
            _append_journal(
                self.checkpoint_log,
                [_journal_line(entries, reducers)],
                site=SITE_COORDINATOR_CHECKPOINT,
            )

    def _validate_result(
        self, remote: _Remote, lease: "tuple[int, int]", message: dict
    ) -> tuple:
        """Check one lease result, mapping any malformed piece to an error.

        Returns the block entries (a peer's with their inline ``data``
        taken out), the restored reducer set and, for a peer, the decoded
        file bytes to write.  The reducer payload goes through
        :meth:`ReducerSet.from_state` here, so a corrupt or
        version-mismatched state is caught while we can still retire the
        worker and requeue its lease.
        """
        entries = message.get("blocks")
        _decode_entries(entries, lease, self.size, 0, f"result from {remote.name}")
        writes: "list[bytes]" = []
        if not remote.local:
            for entry in entries:
                data = base64.b64decode(entry.pop("data"), validate=True)
                if hashlib.sha256(data).hexdigest() != entry["sha256"] or (
                    len(data) != entry["bytes"]
                ):
                    raise ProtocolError(
                        f"block {entry['index']} inline data does not match "
                        "its digest"
                    )
                writes.append(data)
        return entries, _lease_reducers(message["reducers"], self.factories), writes

    # -- main loop -----------------------------------------------------------

    def _wait(self) -> None:
        """Wait until a slot task finishes, a pool worker dies or a peer
        event is queued (at most :data:`_TICK` seconds), then handle the
        finished slot tasks and every peer event queued so far."""
        also = [] if self.wake is None else [self.wake]
        if self.pool is not None:
            self.pool.poll(_TICK, also)
        else:
            wait(also, _TICK)
        if also:
            try:  # empty the self-pipe before the queue: no wake-up is lost
                while self.wake.recv(4096):
                    pass
            except BlockingIOError:
                pass
        for remote in self.remotes:
            if remote.task is not None and remote.task.done:
                self._finish_slot(remote)
        for _ in range(self.events.qsize()):
            remote, message, error = self.events.get_nowait()
            if message is None:
                self._drop(remote, error)  # the connection closed or failed
            else:
                self._handle_frame(remote, message)

    def _finish_slot(self, remote: _Remote) -> None:
        """Handle a slot's result like a peer's and hand it the next lease;
        a raised exception or a dead worker retires the slot."""
        task, remote.task = remote.task, None
        if task.error is not None:
            return self._drop(remote, task.error)
        remote.credits += 1
        self._handle_result(remote, task.value)
        self._offer(remote)

    def run(self) -> None:
        last_beat = time.monotonic()
        while len(self.completed) < len(self.leases):
            self._wait()
            now = time.monotonic()
            peers = [remote for remote in self.remotes if not remote.local]
            if now - last_beat >= HEARTBEAT_INTERVAL:
                # The reverse beacon: peers reset their read deadline on
                # any frame, so this is what keeps an idle (credit-holding)
                # peer from declaring a healthy coordinator dead.
                last_beat = now
                for remote in peers:
                    if remote.alive and remote.state == "active":
                        self._send(remote, {"type": "heartbeat"})
            for remote in peers:
                if remote.alive and now - remote.last_seen > self.worker_timeout:
                    self._drop(remote, f"{remote.name} heartbeat timeout")
            self._steal(now)
            if not any(remote.alive for remote in self.remotes):
                detail = f" (last error: {self.last_error})" if self.last_error else ""
                raise RuntimeError(
                    "all distributed workers died before completing the "
                    f"export{detail}"
                )
        for remote in self.remotes:
            if remote.alive and not remote.local:
                self._send(remote, {"type": "shutdown"})


# -- entry points ------------------------------------------------------------


def _lease_reducers(state, factories: dict) -> ReducerSet:
    """A lease's reducer set, restored from a result frame or journal line;
    it must hold exactly the run's reducers."""
    restored = ReducerSet.from_state(state)
    if set(restored.names()) != set(factories):
        raise StateError(
            f"lease reducers {sorted(restored.names())} do not match the "
            f"run's {sorted(factories)}"
        )
    return restored


def _check_transport(workers, connect, worker_timeout, lease_depth) -> list:
    """Validate the transport keywords of a fresh or resumed run, before
    anything is written; returns ``connect`` as a list."""
    if workers < 0:
        raise ValueError("workers must be non-negative")
    connect = list(connect)
    if workers + len(connect) < 1:
        raise ValueError("need at least one worker (workers >= 1 or connect=...)")
    if worker_timeout <= 0:
        raise ValueError("worker_timeout must be positive")
    if lease_depth < 1:
        raise ValueError("lease_depth must be at least 1")
    return connect


def export_fleet_distributed(
    generator,
    when,
    size: int,
    rng,
    out_dir: str,
    workers: int = 2,
    connect: "list[tuple[str, int]] | tuple" = (),
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    reducers: "dict | None" = None,
    quantiles: bool = False,
    lease_blocks: int = DEFAULT_LEASE_BLOCKS,
    worker_timeout: float = DEFAULT_WORKER_TIMEOUT,
    start_method: "str | None" = None,
    lease_depth: int = DEFAULT_LEASE_DEPTH,
    token: "str | None" = None,
    metrics_path: "str | None" = None,
) -> DistributedExportResult:
    """Export a fleet through coordinator-scheduled distributed workers.

    Runs ``workers`` pool slots and/or dials the ``connect`` list of
    ``(host, port)`` :func:`serve_worker` endpoints, leases them
    RNG-block ranges of ``lease_blocks`` blocks (at most ``lease_depth``
    in flight per peer, one per slot) with work-stealing and failure
    reassignment, and merges their serialized
    :class:`~repro.engine.reduce.ReducerSet` states in block order.  The
    resulting manifest (``layout="block"``, CSV only) and payload bytes
    are byte-identical to the single-process export of the same
    ``(parameters, when, size, seed)`` fleet; see the module docstring.

    ``token`` arms mutual shared-token auth; ``metrics_path`` writes the
    run's ``FleetDistributedMetrics`` JSON.  The run checkpoints every
    completed lease (see :func:`~repro.engine.writer.resume_export`).
    ``reducers`` accepts the :data:`WIRE_REDUCER_FACTORIES` subset by
    name (factories cannot travel a JSON wire).  A pool slot runs one
    lease at a time as a task on the persistent pool
    (:func:`~repro.engine.pool.get_pool`); ``workers=1`` too runs there,
    never in this process.  Raises :class:`RuntimeError` when every
    worker has died with leases outstanding.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    if lease_blocks < 1:
        raise ValueError("lease_blocks must be at least 1")
    connect = _check_transport(workers, connect, worker_timeout, lease_depth)
    if not getattr(generator, "wire_name", None) or getattr(
        getattr(generator, "parameters", None), "to_json", None
    ) is None:
        raise ValueError(
            "the distributed backend sends the generator by its wire_name and "
            "parameters; it needs generator.wire_name and "
            "generator.parameters.to_json()"
        )
    factories = _resolve_factories(reducers, quantiles)
    root = as_seed_sequence(rng)
    out_dir = os.path.abspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    plan = _start_run(
        out_dir, DISTRIBUTED_PLAN_NAME, generator, size, when, root, chunk_size,
        factories, lease_blocks=lease_blocks,
        # Raises ValueError, before anything is written, for a factory that
        # cannot travel as a registry name plus JSON-safe arguments.
        reducer_args=_wire_reducer_args(factories),
        generator=generator.wire_name,
    )
    return _run_distributed(
        generator, out_dir, plan, root, factories, workers, connect,
        worker_timeout, lease_depth, start_method, token, metrics_path,
    )


def _resume_distributed(
    generator, out_dir, plan, root, workers, connect, worker_timeout,
    lease_depth, start_method, token, metrics_path,
) -> DistributedExportResult:
    """The distributed exporter behind :func:`~repro.engine.writer.resume_export`.

    ``plan`` has passed the shared plan validator; this adds the wire
    checks and rebuilds the reducer factories from the plan.  ``None``
    transport keywords take this backend's defaults.
    """
    if worker_timeout is None:
        worker_timeout = DEFAULT_WORKER_TIMEOUT
    if lease_depth is None:
        lease_depth = DEFAULT_LEASE_DEPTH
    connect = _check_transport(workers, connect, worker_timeout, lease_depth)
    resuming = getattr(generator, "wire_name", None)
    if plan.get("generator") != resuming:
        raise StateError(
            f"distributed plan was built for generator "
            f"{plan.get('generator')!r}; cannot resume it with {resuming!r}"
        )
    try:
        factories = _wire_factories(plan["reducers"], plan.get("reducer_args"))
    except ValueError as error:
        raise StateError(f"distributed plan reducers are malformed: {error}")
    return _run_distributed(
        generator, os.path.abspath(out_dir), plan, root, factories, workers,
        connect, worker_timeout, lease_depth, start_method, token, metrics_path,
    )


def _run_distributed(
    generator, out_dir, plan, root, factories, workers, connect,
    worker_timeout, lease_depth, start_method, token, metrics_path,
) -> DistributedExportResult:
    """Shared core of fresh and resumed distributed exports.

    Restores every journalled lease whose block files still verify (a
    lease re-run by an earlier resume has a second, later line, which
    wins; a fresh run has no journal), runs the coordinator over the
    rest, then finalises manifest, statistics and metrics.
    """
    size = plan["size"]
    leases = _grid_cells(0, block_count(size), plan["lease_blocks"])
    path = os.path.join(out_dir, DISTRIBUTED_LEASE_LOG)
    lines, kept = _load_journal(path, plan, leases) if os.path.exists(path) else ([], 0)
    completed: "dict[tuple[int, int], tuple[list, ReducerSet]]" = {}
    for lease, (entries, state) in {cell: rest for cell, *rest in lines}.items():
        if all(_read_matching_block(out_dir, entry) is not None for entry in entries):
            completed[lease] = entries, _lease_reducers(state, factories)
    from repro.registry import generator_params  # the registry imports the engine

    job = {
        "type": "job",
        "protocol": PROTOCOL_VERSION,
        "params": generator_params(generator),
        **{
            key: plan[key]
            for key in (
                "generator", "when", "size", "entropy", "spawn_key", "block_size",
                "format", "chunk_size", "reducers", "reducer_args",
            )
        },
        "worker_timeout": worker_timeout,
        "lease_depth": lease_depth,
    }
    if token is not None:
        job["token"] = token
    # Append after the lines already journalled, cut back to the last
    # complete one, so a torn tail from a crash never ends up mid-file.
    checkpoint_log = open(path, "ab")
    checkpoint_log.truncate(kept)
    resumed_leases = len(completed)
    coordinator = _Coordinator(
        job,
        leases,
        out_dir,
        factories,
        size,
        worker_timeout,
        token=token,
        lease_depth=lease_depth,
        checkpoint_log=checkpoint_log,
        completed=completed,
    )

    start = time.perf_counter()
    try:
        if coordinator.pending:
            if workers:
                # The pool forks here, before any coordinator thread.
                task = BlockTask(
                    generator, plan["when"], size, root, range(block_count(size)),
                    out_dir=out_dir, chunk_size=plan["chunk_size"],
                    factories=factories,
                )
                coordinator.add_slots(get_pool(workers, start_method), task, workers)
            for host, port in connect:
                sock = _dial(host, port, timeout=worker_timeout)
                sock.settimeout(None)
                coordinator.attach(sock, f"tcp-{host}:{port}")
            coordinator.run()
    finally:
        checkpoint_log.close()
        coordinator.close()
    elapsed = time.perf_counter() - start

    done = [coordinator.completed[lease] for lease in sorted(coordinator.completed)]
    entries = [entry for lease_entries, _ in done for entry in lease_entries]
    paths = [os.path.join(out_dir, _block_name(entry["index"])) for entry in entries]
    sized = [
        os.path.exists(path) and os.path.getsize(path) == entry["bytes"]
        for path, entry in zip(paths, entries)
    ]
    digests, payload_sha256 = _digest_files(
        [path for path, ok in zip(paths, sized) if ok]
    )
    file_digests = iter(digests)
    for entry, ok in zip(entries, sized):
        if not ok or next(file_digests) != entry["sha256"]:
            raise RuntimeError(
                f"block {entry['index']} on disk does not match the digest its "
                "worker reported; refusing to finalise a corrupt export"
            )
    manifest, statistics = _finish_run(
        generator, plan, root, out_dir, factories,
        [((0, block_count(size)), entries)], [reducers for _, reducers in done],
        max(1, coordinator.workers_seen), elapsed, payload_sha256,
    )
    metrics = make_envelope(
        DISTRIBUTED_METRICS_KIND,
        DISTRIBUTED_STATE_VERSION,
        {
            "elapsed_seconds": elapsed,
            "size": size,
            "lease_blocks": plan["lease_blocks"],
            "lease_depth": lease_depth,
            "leases_total": len(leases),
            "leases_run": len(coordinator.completed) - resumed_leases,
            "resumed_leases": resumed_leases,
            "workers_seen": coordinator.workers_seen,
            "requeued_leases": coordinator.requeued,
            "stolen_leases": coordinator.stolen,
            "drained_workers": coordinator.drained,
            "heartbeat_gap_bucket_seconds": list(HEARTBEAT_GAP_BUCKETS),
            "workers": coordinator.worker_metrics,
            "leases": sorted(
                coordinator.lease_events,
                key=lambda event: (event["block_lo"], event["block_hi"]),
            ),
        },
    )
    if metrics_path is not None:
        _write_json_atomic(os.path.abspath(metrics_path), metrics)
    return DistributedExportResult(
        manifest=manifest,
        statistics=statistics,
        workers=coordinator.workers_seen,
        reassigned_leases=coordinator.requeued + coordinator.stolen,
        metrics=metrics,
        resumed_leases=resumed_leases,
    )
