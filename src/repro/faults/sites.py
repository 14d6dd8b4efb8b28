"""The injection-site catalogue: every place the engine can be hurt.

A *site* is a named point in the export stack where
:func:`repro.faults.fire` is called on every pass through it.  The
catalogue is the single source of truth three consumers share:

* :mod:`repro.faults.plan` validates that a :class:`FaultSpec` names a
  registered site and a fault kind that site supports;
* the engine modules (:mod:`repro.engine.writer`,
  :mod:`repro.engine.pool`, :mod:`repro.engine.distributed`) import the
  ``SITE_*`` constants so a renamed site is a one-line change;
* the chaos-matrix test and the README site table iterate
  :func:`iter_sites`, so the docs and the coverage meta-test can never
  silently drift from the code.

Sites live here — not next to the ``fire()`` calls — because the plan
validator must know them without importing the engine (which would pull
sockets and multiprocessing into every plan load, and invite cycles).

Fault kinds
-----------
``raise``
    Raise :class:`~repro.faults.injector.FaultInjected` (a
    ``RuntimeError``) — the generic "this operation blew up" fault.
``io-error``
    Raise ``OSError`` with the spec's errno (default ``ENOSPC``).
``torn-write``
    Write only a prefix of the payload bytes to the target path (after
    its existing bytes, at a site that appends), fsync the torn file so
    it survives, then SIGKILL the process — the power-cut model the
    resume tests were built on.  Only write sites that hand ``fire()``
    the path and bytes support it.
``fsync-error``
    Raise ``OSError(EIO)`` at a durability barrier.
``sigkill``
    ``os.kill(os.getpid(), SIGKILL)`` — death with no cleanup.
``delay``
    Sleep ``delay_seconds`` (slow-worker / slow-disk injection).
``frame-drop``
    Silently discard an outgoing protocol frame and close the
    connection (a frame lost to a dead link never arrives alone — the
    close is what keeps both peers' failure detection convergent
    instead of deadlocking on a message neither side knows is missing).
``frame-corrupt``
    Flip bytes in an outgoing frame body so the peer's JSON decode
    raises ``ProtocolError``.
``dial-refuse``
    Raise ``ConnectionRefusedError`` from a dial attempt.
``conn-reset``
    Raise ``ConnectionResetError`` from a socket operation.
``heartbeat-stall``
    Stop the worker's heartbeat thread for good; the coordinator's
    liveness timeout is what's under test.
"""

from __future__ import annotations

from dataclasses import dataclass

KIND_RAISE = "raise"
KIND_IO_ERROR = "io-error"
KIND_TORN_WRITE = "torn-write"
KIND_FSYNC_ERROR = "fsync-error"
KIND_SIGKILL = "sigkill"
KIND_DELAY = "delay"
KIND_FRAME_DROP = "frame-drop"
KIND_FRAME_CORRUPT = "frame-corrupt"
KIND_DIAL_REFUSE = "dial-refuse"
KIND_CONN_RESET = "conn-reset"
KIND_HEARTBEAT_STALL = "heartbeat-stall"

#: Every fault kind any site supports, in documentation order.
FAULT_KINDS = (
    KIND_RAISE,
    KIND_IO_ERROR,
    KIND_TORN_WRITE,
    KIND_FSYNC_ERROR,
    KIND_SIGKILL,
    KIND_DELAY,
    KIND_FRAME_DROP,
    KIND_FRAME_CORRUPT,
    KIND_DIAL_REFUSE,
    KIND_CONN_RESET,
    KIND_HEARTBEAT_STALL,
)


@dataclass(frozen=True)
class FaultSite:
    """One registered injection point.

    ``kinds`` is ordered: the first entry is the site's *default* kind,
    the one the ``site:after=N`` CLI shorthand arms when no ``kind=`` is
    given.
    """

    name: str
    module: str
    kinds: "tuple[str, ...]"
    description: str


SITE_SEGMENT_WRITE = "writer.segment.write"
SITE_BLOCK_WRITE = "writer.block.write"
SITE_BLOCK_DONE = "writer.block.done"
SITE_CHECKPOINT_WRITE = "writer.checkpoint.write"
SITE_CHECKPOINT_FSYNC = "writer.checkpoint.fsync"
SITE_MANIFEST_WRITE = "writer.manifest.write"
SITE_POOL_TASK = "pool.task"
SITE_FRAME_SEND = "distributed.frame.send"
SITE_FRAME_RECV = "distributed.frame.recv"
SITE_CONNECT_DIAL = "distributed.connect.dial"
SITE_WORKER_BLOCK = "distributed.worker.block"
SITE_HEARTBEAT = "distributed.heartbeat"
SITE_COORDINATOR_CHECKPOINT = "distributed.coordinator.checkpoint"

_SITES = (
    FaultSite(
        SITE_SEGMENT_WRITE,
        "repro.engine.writer",
        (KIND_IO_ERROR, KIND_RAISE, KIND_SIGKILL, KIND_DELAY),
        "per-block write inside a per-shard segment (layout=shard)",
    ),
    FaultSite(
        SITE_BLOCK_WRITE,
        "repro.engine.writer",
        (KIND_IO_ERROR, KIND_TORN_WRITE, KIND_RAISE, KIND_SIGKILL, KIND_DELAY),
        "every block file write (block layout, pool slots, peer bytes); retried",
    ),
    FaultSite(
        SITE_BLOCK_DONE,
        "repro.engine.writer",
        (KIND_SIGKILL, KIND_RAISE, KIND_DELAY),
        "after a block is durable and folded",
    ),
    FaultSite(
        SITE_CHECKPOINT_WRITE,
        "repro.engine.writer",
        (KIND_IO_ERROR, KIND_TORN_WRITE, KIND_RAISE, KIND_SIGKILL, KIND_DELAY),
        "a shard checkpoint-journal append (new records + reducer state)",
    ),
    FaultSite(
        SITE_CHECKPOINT_FSYNC,
        "repro.engine.writer",
        (KIND_FSYNC_ERROR, KIND_DELAY),
        "the fsync barrier after a checkpoint-journal append",
    ),
    FaultSite(
        SITE_MANIFEST_WRITE,
        "repro.engine.writer",
        (KIND_IO_ERROR, KIND_TORN_WRITE, KIND_RAISE, KIND_SIGKILL, KIND_DELAY),
        "the final manifest.json write (every layout and backend)",
    ),
    FaultSite(
        SITE_POOL_TASK,
        "repro.engine.pool",
        (KIND_RAISE, KIND_SIGKILL, KIND_DELAY),
        "entry of every task a pool worker runs",
    ),
    FaultSite(
        SITE_FRAME_SEND,
        "repro.engine.distributed",
        (KIND_FRAME_DROP, KIND_FRAME_CORRUPT, KIND_CONN_RESET, KIND_DELAY),
        "an outgoing protocol frame (coordinator and worker sides alike)",
    ),
    FaultSite(
        SITE_FRAME_RECV,
        "repro.engine.distributed",
        (KIND_CONN_RESET, KIND_RAISE, KIND_DELAY),
        "an incoming protocol frame read",
    ),
    FaultSite(
        SITE_CONNECT_DIAL,
        "repro.engine.distributed",
        (KIND_DIAL_REFUSE, KIND_CONN_RESET, KIND_DELAY),
        "the coordinator dialling a --connect serve-worker endpoint",
    ),
    FaultSite(
        SITE_WORKER_BLOCK,
        "repro.engine.distributed",
        (KIND_SIGKILL, KIND_RAISE, KIND_DELAY),
        "after a distributed worker generates one block of its lease",
    ),
    FaultSite(
        SITE_HEARTBEAT,
        "repro.engine.distributed",
        (KIND_HEARTBEAT_STALL, KIND_DELAY),
        "each tick of a worker's heartbeat thread",
    ),
    FaultSite(
        SITE_COORDINATOR_CHECKPOINT,
        "repro.engine.distributed",
        (KIND_SIGKILL, KIND_IO_ERROR, KIND_RAISE, KIND_DELAY),
        "a lease-completion append to the coordinator checkpoint log",
    ),
)

SITE_CATALOG: "dict[str, FaultSite]" = {site.name: site for site in _SITES}


def get_site(name: str) -> FaultSite:
    """The registered site, or a ``ValueError`` naming the catalogue."""
    site = SITE_CATALOG.get(name)
    if site is None:
        known = ", ".join(sorted(SITE_CATALOG))
        raise ValueError(f"unknown fault site {name!r}; registered sites: {known}")
    return site


def iter_sites() -> "tuple[FaultSite, ...]":
    """Every registered site, in catalogue order."""
    return _SITES
