"""The chaos matrix: every registered injection site fires under a
canonical plan, and the export either recovers byte-identically, absorbs
the fault through a retry/requeue policy, or refuses with a typed error.

Faulted export legs run as CLI subprocesses (SIGKILL and torn-write
faults kill the whole victim process — the harness must outlive it),
armed through the ``REPRO_FAULT_PLAN`` environment contract.  Repair
legs re-run ``--resume`` fault-free.  The frame sites fire on the
coordinator's side of a ``fleet serve-worker`` peer, a subprocess with
no plan of its own, attached beside one pool slot.  Two transport sites
whose firing windows are timing-dependent inside a full export (the
heartbeat tick and the coordinator's ``--connect`` dial) are driven
in-process against the same engine code paths instead.

The final test is the coverage meta-assertion: across all cases the
firing logs must span the whole site catalogue and at least 8 distinct
fault kinds — the PR's acceptance floor — so a site added to the
catalogue without a matrix case fails here by construction.
"""

from __future__ import annotations

import contextlib
import os
import re
import socket
import subprocess
import sys
import threading

import pytest

import repro
from repro.faults import (
    ENV_PLAN_FILE,
    ENV_PLAN_JSON,
    ENV_STATE_DIR,
    FIRING_LOG_NAME,
    FaultPlan,
    FaultSpec,
    SITE_CATALOG,
    activate,
    deactivate,
    read_firings,
)
from repro.timeutil import parse_date, year_fraction

SIZE = 20_000  # five RNG blocks
SEED = 11
DATE = "2010-09-01"

_SRC = os.path.abspath(os.path.join(os.path.dirname(repro.__file__), os.pardir))

#: (site, kind) pairs observed across all matrix cases, for the final
#: catalogue-coverage meta-assertion.
FIRED: "set[tuple[str, str]]" = set()


def _cli_env(env=None):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = (
        _SRC + os.pathsep + environment.get("PYTHONPATH", "")
    )
    for name in (ENV_PLAN_FILE, ENV_PLAN_JSON, ENV_STATE_DIR):
        environment.pop(name, None)
    if env:
        environment.update(env)
    return environment


def _run_cli(argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=_cli_env(env),
        timeout=300,
    )


@contextlib.contextmanager
def _serve_worker():
    """A one-job ``fleet serve-worker --port 0`` with no fault plan in its
    environment; yields its port and waits for it to exit."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "serve-worker", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_cli_env(),
    )
    try:
        line = proc.stdout.readline()
        bound = re.search(r"serving fleet worker on [^:]+:(\d+)", line)
        assert bound, line
        yield int(bound.group(1))
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


@pytest.fixture(scope="module")
def golden(tmp_path_factory, paper_generator):
    """Digests of the fault-free export every chaos case must recover."""
    from repro.engine import export_fleet

    out = tmp_path_factory.mktemp("golden")
    manifest = export_fleet(
        paper_generator,
        year_fraction(parse_date(DATE)),
        SIZE,
        SEED,
        str(out),
        shards=1,
    )
    return manifest.payload_sha256, manifest.fleet_sha256


class Case:
    def __init__(self, site, kind, layout, outcome, **opts):
        self.site = site
        self.kind = kind
        self.layout = layout  # shard | block | block2 | dist | remote
        self.outcome = outcome  # absorbed | recovered | refused
        self.opts = opts

    @property
    def id(self):
        return f"{self.site}:{self.kind}:{self.layout}"


MATRIX = [
    # The per-shard layout keeps no checkpoints: an I/O fault is a typed
    # refusal, never a silent partial export.
    Case("writer.segment.write", "io-error", "shard", "refused"),
    # A torn block write is the power-cut model: prefix + SIGKILL, then
    # --resume regenerates from the last checkpoint.
    Case("writer.block.write", "torn-write", "block", "recovered", after=3),
    # A *transient* ENOSPC on the same site is absorbed by WRITE_RETRY —
    # the export finishes in one leg.
    Case("writer.block.write", "io-error", "block", "absorbed", after=3),
    Case("writer.block.done", "sigkill", "block", "recovered", after=2),
    Case("writer.checkpoint.write", "torn-write", "block", "recovered"),
    Case("writer.checkpoint.fsync", "fsync-error", "block", "recovered"),
    # The manifest write fails *before* the resume plan is deleted, so
    # finalisation is re-runnable.
    Case("writer.manifest.write", "io-error", "block", "recovered"),
    Case("pool.task", "raise", "block2", "recovered", once=True),
    # A pool worker killed mid-task (the OOM-kill model) is a typed
    # error once its sibling finishes, never a hung fan-out.
    Case("pool.task", "sigkill", "block2", "recovered", once=True),
    # Transport faults on a peer's connection: the coordinator retires
    # the poisoned peer, requeues any lease it held, and the pool slot
    # completes the export in one leg.  The corrupted frame is the job.
    Case("distributed.frame.send", "frame-corrupt", "remote", "absorbed", once=True),
    Case(
        "distributed.frame.recv",
        "conn-reset",
        "remote",
        "absorbed",
        after=3,
        once=True,
    ),
    # Pool slots write their block files through the block writer's
    # retried write, so a transient ENOSPC there is absorbed in one leg.
    Case("writer.block.write", "io-error", "dist", "absorbed", once=True),
    # Fault counters restart with every pool task, so ``after`` counts
    # blocks within one lease.
    Case(
        "distributed.worker.block",
        "sigkill",
        "dist",
        "absorbed",
        after=1,
        once=True,
    ),
    Case(
        "distributed.coordinator.checkpoint",
        "sigkill",
        "dist",
        "recovered",
        after=2,
        once=True,
    ),
]


#: In the ``remote`` layout the slot's first lease waits half a second,
#: so the peer has its job and a lease before the slot could run every
#: lease.
PACE = FaultSpec(site="pool.task", kind="delay", delay_seconds=0.5, once=True)


def _export_argv(layout, out_dir, port=None):
    argv = [
        "fleet",
        "export",
        "--size",
        str(SIZE),
        "--seed",
        str(SEED),
        "--date",
        DATE,
        "--out-dir",
        out_dir,
    ]
    if layout == "block":
        argv += ["--checkpoint-every", "2"]
    elif layout == "block2":
        argv += ["--checkpoint-every", "2", "--shards", "2"]
    elif layout == "dist":
        argv += ["--backend", "distributed", "--workers", "2", "--lease-blocks", "1"]
    elif layout == "remote":
        argv += [
            "--backend", "distributed", "--workers", "1", "--lease-blocks", "1",
            "--connect", f"127.0.0.1:{port}",
        ]
    return argv


def _resume_argv(layout, out_dir):
    argv = ["fleet", "export", "--out-dir", out_dir, "--resume"]
    if layout == "dist":
        argv += ["--backend", "distributed", "--workers", "2"]
    return argv


def _manifest_digests(out_dir):
    import json

    with open(os.path.join(out_dir, "manifest.json"), "r", encoding="utf-8") as f:
        manifest = json.load(f)
    return manifest["payload_sha256"], manifest["fleet_sha256"]


@pytest.mark.parametrize("case", MATRIX, ids=lambda case: case.id)
def test_matrix(case, tmp_path, golden):
    faults = (FaultSpec(site=case.site, kind=case.kind, **case.opts),)
    if case.layout == "remote":
        faults += (PACE,)
    plan = FaultPlan(seed=3, faults=faults)
    state_dir = tmp_path / "state"
    state_dir.mkdir()
    plan_path = state_dir / "plan.json"
    plan.save(str(plan_path))
    out_dir = str(tmp_path / "out")

    peer = _serve_worker() if case.layout == "remote" else contextlib.nullcontext()
    with peer as port:
        proc = _run_cli(
            _export_argv(case.layout, out_dir, port),
            env={ENV_PLAN_FILE: str(plan_path), ENV_STATE_DIR: str(state_dir)},
        )
    firings = [
        f for f in read_firings(str(state_dir / FIRING_LOG_NAME)) if f["spec"] == 0
    ]
    assert firings, f"{case.site} never fired (exit {proc.returncode})"
    assert all(
        (f["site"], f["kind"]) == (case.site, case.kind) for f in firings
    )
    FIRED.update((f["site"], f["kind"]) for f in firings)
    assert "Traceback" not in proc.stderr  # typed one-liners only

    if case.outcome == "absorbed":
        assert proc.returncode == 0, proc.stderr
        assert _manifest_digests(out_dir) == golden
    elif case.outcome == "recovered":
        assert proc.returncode != 0, "fault should have aborted the export"
        repair = _run_cli(_resume_argv(case.layout, out_dir))
        assert repair.returncode == 0, repair.stderr
        assert _manifest_digests(out_dir) == golden
    else:  # refused
        assert proc.returncode == 1, (proc.returncode, proc.stderr)
        assert "injected" in proc.stderr
        assert not os.path.exists(os.path.join(out_dir, "manifest.json"))


class TestInProcessSites:
    """Transport sites whose firing window is timing-dependent inside a
    full export are driven directly against the engine code paths."""

    @pytest.fixture(autouse=True)
    def disarmed(self):
        deactivate()
        yield
        deactivate()

    def test_heartbeat_stall_kills_the_beacon_thread(self, tmp_path):
        from repro.engine.distributed import _heartbeat_loop

        site = "distributed.heartbeat"
        activate(
            FaultPlan(
                seed=0,
                faults=(FaultSpec(site=site, kind="heartbeat-stall"),),
            ),
            state_dir=str(tmp_path),
        )
        sent = []
        stop = threading.Event()
        # The loop must return on the stalled first tick — without the
        # stop event ever being set, and without sending a beacon.
        _heartbeat_loop(sent.append, stop, interval=0.001)
        assert sent == []
        firings = read_firings(str(tmp_path / FIRING_LOG_NAME))
        assert [(f["site"], f["kind"]) for f in firings] == [
            (site, "heartbeat-stall")
        ]
        FIRED.update((f["site"], f["kind"]) for f in firings)

    def test_connect_dial_refusals_are_retried_through_backoff(self, tmp_path):
        from repro.engine.distributed import _dial
        from repro.faults.sites import SITE_CONNECT_DIAL

        activate(
            FaultPlan(
                seed=0,
                faults=(
                    FaultSpec(
                        site=SITE_CONNECT_DIAL, kind="dial-refuse", count=2
                    ),
                ),
            ),
            state_dir=str(tmp_path),
        )
        listener = socket.create_server(("127.0.0.1", 0))
        try:
            port = listener.getsockname()[1]
            sock = _dial("127.0.0.1", port)
            sock.close()
        finally:
            listener.close()
        firings = read_firings(str(tmp_path / FIRING_LOG_NAME))
        # Two injected refusals burned two attempts; the third dial was
        # the real, successful one.
        assert [f["invocation"] for f in firings] == [1, 2]
        FIRED.update((f["site"], f["kind"]) for f in firings)


def test_matrix_covers_the_whole_catalogue():
    """The acceptance floor: every registered site fired somewhere above,
    spanning at least 8 distinct fault kinds over at least 10 sites."""
    if not FIRED:
        pytest.skip("matrix cases did not run in this selection")
    fired_sites = {site for site, _ in FIRED}
    missing = set(SITE_CATALOG) - fired_sites
    assert not missing, f"sites with no firing matrix case: {sorted(missing)}"
    assert len(fired_sites) >= 10
    assert len({kind for _, kind in FIRED}) >= 8
