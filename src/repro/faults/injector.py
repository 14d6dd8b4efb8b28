"""The process-global fault injector behind :func:`fire`.

The engine calls :func:`fire(site)` at every registered injection site.
With no plan armed that is one global read and a ``None`` return — cheap
enough to leave in production paths.  With a plan armed, the injector
keeps a per-process invocation counter per site and walks the plan's
specs for that site:

* invocations below ``spec.after`` never fire;
* a spec that has already fired ``spec.count`` times is spent;
* ``spec.probability`` draws from a per-spec generator seeded
  ``SeedSequence(plan.seed, spawn_key=(spec_index,))`` — one draw per
  eligible invocation, so two runs of the same plan over the same
  deterministic export make identical decisions;
* ``spec.once`` additionally takes an ``O_EXCL`` marker file in the
  state directory, electing exactly one firing across every process of
  the run.

Every firing is appended as one JSON line to the firing log (``O_APPEND``
single-write, so concurrent workers interleave whole lines), which is
what ``fleet chaos`` compares across runs to prove replay determinism.

Plans reach other processes two ways.  A CLI subprocess (or any fresh
interpreter) arms itself from the environment — ``REPRO_FAULT_PLAN`` (a
plan file path; its directory becomes the state dir) or
``REPRO_FAULT_PLAN_JSON`` (the plan JSON itself, with
``REPRO_FAULT_STATE`` naming the state dir).  A persistent pool worker
may have been forked long before the plan was armed, so every pool task
carries :func:`armed_state` and the worker calls :func:`rearm` with it
before passing the ``pool.task`` site: fresh counters under the caller's
plan, or disarmed when the caller has none (see
:mod:`repro.engine.pool`).
"""

from __future__ import annotations

import json
import os
import signal
import time

import numpy as np

from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.sites import (
    KIND_CONN_RESET,
    KIND_DELAY,
    KIND_DIAL_REFUSE,
    KIND_FSYNC_ERROR,
    KIND_IO_ERROR,
    KIND_RAISE,
    KIND_SIGKILL,
    KIND_TORN_WRITE,
    get_site,
)

ENV_PLAN_FILE = "REPRO_FAULT_PLAN"
ENV_PLAN_JSON = "REPRO_FAULT_PLAN_JSON"
ENV_STATE_DIR = "REPRO_FAULT_STATE"

#: Firing-log file name inside the state directory.
FIRING_LOG_NAME = "fault-firings.jsonl"


class FaultInjected(RuntimeError):
    """An injected ``raise``-kind fault (so tests and operators can tell
    injected failures from organic ones)."""


class Firing:
    """What :func:`fire` hands back for *cooperative* kinds — the ones
    only the call site can enact (dropping a frame it was about to send,
    corrupting bytes, stalling its own loop)."""

    __slots__ = ("site", "kind", "spec")

    def __init__(self, site: str, kind: str, spec: FaultSpec):
        self.site = site
        self.kind = kind
        self.spec = spec


class _InjectorState:
    def __init__(
        self,
        plan: FaultPlan,
        state_dir: "str | None",
        log_path: "str | None",
    ):
        self.plan = plan
        self.state_dir = state_dir
        if log_path is None and state_dir is not None:
            log_path = os.path.join(state_dir, FIRING_LOG_NAME)
        self.log_path = log_path
        self.counters: "dict[str, int]" = {}
        self.fired: "dict[int, int]" = {}
        self._rngs: "dict[int, np.random.Generator]" = {}

    def rng(self, spec_index: int) -> np.random.Generator:
        rng = self._rngs.get(spec_index)
        if rng is None:
            rng = np.random.default_rng(
                np.random.SeedSequence(self.plan.seed, spawn_key=(spec_index,))
            )
            self._rngs[spec_index] = rng
        return rng


_INACTIVE = object()
#: None = environment not yet consulted; _INACTIVE = no plan anywhere;
#: otherwise the live _InjectorState.
_STATE: "object | None" = None


def activate(
    plan: FaultPlan,
    state_dir: "str | None" = None,
    log_path: "str | None" = None,
) -> None:
    """Arm ``plan`` in this process (counters and RNG streams reset).

    ``state_dir`` (created on demand) holds the firing log and the
    ``once`` marker files; without one, firings are not logged and
    ``once`` degrades to once-per-process.
    """
    global _STATE
    _STATE = _InjectorState(plan, state_dir, log_path)


def deactivate() -> None:
    """Disarm; the next :func:`fire` consults the environment afresh."""
    global _STATE
    _STATE = None
    os.environ.pop(ENV_PLAN_FILE, None)
    os.environ.pop(ENV_PLAN_JSON, None)
    os.environ.pop(ENV_STATE_DIR, None)


def arm_process(plan: FaultPlan, state_dir: str) -> None:
    """Arm ``plan`` here *and* in every future child: activates
    in-process (fork children inherit the live state) and exports the
    plan through the environment (spawn children and CLI subprocesses
    re-arm themselves from it)."""
    os.environ[ENV_PLAN_JSON] = plan.to_json()
    os.environ[ENV_STATE_DIR] = state_dir
    activate(plan, state_dir=state_dir)


def _resolve_state() -> object:
    global _STATE
    if _STATE is None:
        plan_file = os.environ.get(ENV_PLAN_FILE)
        plan_json = os.environ.get(ENV_PLAN_JSON)
        if plan_file:
            plan = FaultPlan.load(plan_file)
            state_dir = os.environ.get(ENV_STATE_DIR) or os.path.dirname(
                os.path.abspath(plan_file)
            )
            _STATE = _InjectorState(plan, state_dir, None)
        elif plan_json:
            plan = FaultPlan.from_json(plan_json)
            _STATE = _InjectorState(plan, os.environ.get(ENV_STATE_DIR), None)
        else:
            _STATE = _INACTIVE
    return _STATE


def plan_is_active() -> bool:
    """Whether this process (or its environment) has a live fault plan."""
    return _resolve_state() is not _INACTIVE


def active_plan() -> "FaultPlan | None":
    state = _resolve_state()
    return None if state is _INACTIVE else state.plan  # type: ignore[union-attr]


def armed_state() -> "tuple | None":
    """The live plan as a picklable ``(plan, state_dir, log_path)``, or
    ``None`` — what a pool task carries to its worker."""
    state = _resolve_state()
    if state is _INACTIVE:
        return None
    return (state.plan, state.state_dir, state.log_path)  # type: ignore[union-attr]


def rearm(armed: "tuple | None") -> None:
    """Arm an :func:`armed_state` triple with fresh counters, or disarm
    for ``None`` — ignoring the environment, which a forked worker may
    have inherited stale."""
    global _STATE
    _STATE = _INACTIVE if armed is None else _InjectorState(*armed)


def _claim_once(state: _InjectorState, spec_index: int) -> bool:
    """Take the cross-process once-marker; False if another process won."""
    if state.state_dir is None:
        # No shared state directory: degrade to once-per-process.
        if state.fired.get(spec_index, 0) > 0:
            return False
        return True
    os.makedirs(state.state_dir, exist_ok=True)
    marker = os.path.join(state.state_dir, f"fault-once-{spec_index:02d}")
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.write(fd, f"{os.getpid()}\n".encode("ascii"))
    os.close(fd)
    return True


def _log_firing(state: _InjectorState, record: dict) -> None:
    if state.log_path is None:
        return
    if state.state_dir is not None:
        os.makedirs(state.state_dir, exist_ok=True)
    line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
    fd = os.open(state.log_path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
    try:
        os.write(fd, line)
    finally:
        os.close(fd)


def read_firings(log_path: str) -> "list[dict]":
    """The firing log's records (empty if the plan never fired)."""
    if not os.path.exists(log_path):
        return []
    records = []
    with open(log_path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _sigkill() -> None:
    os.kill(os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM))


def _torn_write(spec: FaultSpec, site: str, path, data, append: bool) -> None:
    """Leave a torn file behind and die: write a prefix of the payload,
    fsync it so the truncation survives the kill, then SIGKILL.

    An ``append`` site keeps the file's existing bytes and tears only the
    new tail, as a crash mid-append would."""
    if path is not None and data:
        keep = max(1, int(len(data) * spec.fraction))
        with open(path, "ab" if append else "wb") as handle:
            handle.write(data[:keep])
            handle.flush()
            os.fsync(handle.fileno())
    _sigkill()


def fire(
    site: str,
    path: "str | None" = None,
    data: "bytes | None" = None,
    append: bool = False,
):
    """Pass through injection site ``site``; enact any scheduled fault.

    Self-enacting kinds raise or kill right here; cooperative kinds
    (frame-drop, frame-corrupt, heartbeat-stall) return a
    :class:`Firing` the call site must enact.  Returns ``None`` when
    nothing fires.  ``path``/``data`` let write sites expose the target
    file and payload bytes to ``torn-write``; ``append`` says the site
    appends ``data`` to ``path`` rather than replacing it.
    """
    state = _resolve_state()
    if state is _INACTIVE:
        return None
    assert isinstance(state, _InjectorState)
    invocation = state.counters.get(site, 0) + 1
    state.counters[site] = invocation
    for index, spec in enumerate(state.plan.faults):
        if spec.site != site:
            continue
        if invocation < spec.after:
            continue
        if spec.count is not None and state.fired.get(index, 0) >= spec.count:
            continue
        if spec.probability is not None:
            if state.rng(index).random() >= spec.probability:
                continue
        if spec.once and not _claim_once(state, index):
            continue
        state.fired[index] = state.fired.get(index, 0) + 1
        _log_firing(
            state,
            {
                "site": site,
                "kind": spec.kind,
                "invocation": invocation,
                "spec": index,
                "pid": os.getpid(),
            },
        )
        return _enact(spec, site, path, data, append)
    return None


def _enact(spec: FaultSpec, site: str, path, data, append: bool):
    kind = spec.kind
    if kind == KIND_DELAY:
        time.sleep(spec.delay_seconds)
        return None
    if kind == KIND_RAISE:
        raise FaultInjected(f"injected fault at {site}")
    if kind in (KIND_IO_ERROR, KIND_FSYNC_ERROR):
        target = f": {path}" if path else ""
        raise OSError(
            spec.errno_value(), f"injected {kind} at {site}{target}"
        )
    if kind == KIND_SIGKILL:
        _sigkill()
        return None  # pragma: no cover - unreachable after SIGKILL
    if kind == KIND_TORN_WRITE:
        _torn_write(spec, site, path, data, append)
        return None  # pragma: no cover - unreachable after SIGKILL
    if kind == KIND_DIAL_REFUSE:
        raise ConnectionRefusedError(f"injected dial-refuse at {site}")
    if kind == KIND_CONN_RESET:
        raise ConnectionResetError(f"injected conn-reset at {site}")
    # Cooperative kinds: the call site enacts them.
    return Firing(site, kind, spec)


def describe_plan(plan: FaultPlan) -> "list[str]":
    """One human line per scheduled fault (CLI and chaos reports)."""
    lines = []
    for spec in plan.faults:
        get_site(spec.site)  # defensive; plans are validated on load
        schedule = f"after={spec.after}"
        if spec.count is None:
            schedule += " count=∞"
        elif spec.count != 1:
            schedule += f" count={spec.count}"
        if spec.probability is not None:
            schedule += f" p={spec.probability}"
        if spec.once:
            schedule += " once"
        lines.append(f"{spec.site}: {spec.kind} ({schedule})")
    return lines
