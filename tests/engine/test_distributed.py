"""Tests for the distributed coordinator/worker export backend.

Three layers, mirroring the discipline of ``test_resume.py``:

* protocol-level unit tests of the length-prefixed JSON framing (torn
  frame, oversized frame, empty frame, non-JSON body);
* fake-worker tests that speak the wire protocol by hand to exercise the
  coordinator's failure handling (version-mismatched reducer state,
  garbage frames, death mid-block);
* end-to-end byte-identity: the distributed export must equal the
  single-process export exactly — including after a worker SIGKILLs
  itself mid-run and its leases are reassigned, through a real
  ``serve-worker`` TCP attachment, under token auth, after a graceful
  drain, and across a coordinator SIGKILL + resume.
"""

from __future__ import annotations

import base64
import hashlib
import json
import multiprocessing
import os
import queue
import shutil
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.engine import (
    AuthenticationError,
    ProtocolError,
    RNG_BLOCK_SIZE,
    StateError,
    export_fleet,
    export_fleet_blocks,
    export_fleet_distributed,
    fleet_digest,
    parse_endpoint,
    resolve_fleet_token,
    resume_export,
    serve_worker,
    verify_manifest,
)
from repro.engine.distributed import (
    DISTRIBUTED_LEASE_LOG,
    DISTRIBUTED_PLAN_NAME,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    recv_frame,
    send_frame,
)
from repro.engine.writer import PLAN_NAME, _read_journal, describe_export_dir
from repro.faults import FaultInjected, FaultPlan, FaultSpec, activate, deactivate

SEPT_2010 = 2010.667
SEED = 20110611
SIZE = 20_000  # five RNG blocks


@pytest.fixture(scope="module")
def golden(tmp_path_factory, paper_generator):
    """The single-process block-layout export every distributed run must equal."""
    out = tmp_path_factory.mktemp("golden-dist")
    result = export_fleet_blocks(
        paper_generator, SEPT_2010, SIZE, SEED, str(out),
        shards=1, checkpoint_every=0, quantiles=True,
    )
    return out, result


@pytest.fixture
def worker_sigkill_after_block(tmp_path):
    """Arm one local worker's SIGKILL after its first block (the plan
    the distributed CI smoke passes as ``--fault-spec``)."""
    spec = FaultSpec(
        site="distributed.worker.block", kind="sigkill", after=1, once=True
    )
    activate(FaultPlan(faults=(spec,)), state_dir=str(tmp_path / "faults"))
    yield
    deactivate()


@pytest.fixture
def slot_starts_late(tmp_path_factory):
    """Delay the first pool task by half a second, so that a peer
    attached beside one pool slot has done its handshake and holds a lease
    (about 20 ms here) before the slot could have run every lease."""
    spec = FaultSpec(site="pool.task", kind="delay", delay_seconds=0.5, once=True)
    state_dir = tmp_path_factory.mktemp("pace")
    activate(FaultPlan(faults=(spec,)), state_dir=str(state_dir))
    yield
    deactivate()


def _payload_bytes(out_dir, manifest) -> bytes:
    payload = b""
    for segment in manifest.segments:
        with open(os.path.join(str(out_dir), segment.path), "rb") as handle:
            payload += handle.read()
    return payload


class TestFraming:
    def test_round_trip(self):
        a, b = socket.socketpair()
        with a, b:
            send_frame(a, {"type": "hello", "n": 7})
            assert recv_frame(b) == {"type": "hello", "n": 7}

    def test_clean_eof_between_frames_is_none(self):
        a, b = socket.socketpair()
        with b:
            a.close()
            assert recv_frame(b) is None

    def test_torn_header_raises(self):
        a, b = socket.socketpair()
        with b:
            a.sendall(b"\x00\x00")  # half a length prefix
            a.close()
            with pytest.raises(ProtocolError, match="torn frame"):
                recv_frame(b)

    def test_torn_body_raises(self):
        a, b = socket.socketpair()
        with b:
            a.sendall(struct.pack(">I", 100) + b'{"type":')
            a.close()
            with pytest.raises(ProtocolError, match="torn frame"):
                recv_frame(b)

    def test_oversized_frame_rejected_without_reading_it(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="oversized"):
                recv_frame(b)

    def test_zero_length_frame_rejected(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(struct.pack(">I", 0))
            with pytest.raises(ProtocolError, match="empty frame"):
                recv_frame(b)

    def test_non_json_body_rejected(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(struct.pack(">I", 4) + b"port")
            with pytest.raises(ProtocolError, match="not valid JSON"):
                recv_frame(b)

    def test_non_object_body_rejected(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(struct.pack(">I", 2) + b"[]")
            with pytest.raises(ProtocolError, match="JSON object"):
                recv_frame(b)

    def test_send_refuses_oversized_payload(self):
        a, b = socket.socketpair()
        with a, b:
            with pytest.raises(ProtocolError, match="oversized"):
                send_frame(a, {"blob": "x" * (MAX_FRAME_BYTES + 1)})


class TestParseEndpoint:
    def test_valid(self):
        assert parse_endpoint("worker-3.example:7070") == ("worker-3.example", 7070)

    @pytest.mark.parametrize(
        "spec", ["nohost", ":9", "host:", "host:zero", "host:0", "host:70000"]
    )
    def test_invalid(self, spec):
        with pytest.raises(ValueError, match="endpoint"):
            parse_endpoint(spec)


class TestDistributedByteIdentity:
    def test_matches_single_process_exports(self, tmp_path, paper_generator, golden):
        golden_dir, golden_result = golden
        out = tmp_path / "dist"
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(out),
            workers=2, lease_blocks=2, quantiles=True,
        )
        # manifest byte-identical to the single-process block layout
        assert result.manifest.to_json() == golden_result.manifest.to_json()
        assert _payload_bytes(out, result.manifest) == _payload_bytes(
            golden_dir, golden_result.manifest
        )
        assert verify_manifest(str(out / "manifest.json")).ok
        # payload/fleet digests equal the classic per-shard export too
        shard_dir = tmp_path / "shard"
        shard_manifest = export_fleet(
            paper_generator, SEPT_2010, SIZE, SEED, str(shard_dir), shards=1
        )
        assert result.manifest.payload_sha256 == shard_manifest.payload_sha256
        assert result.manifest.fleet_sha256 == shard_manifest.fleet_sha256
        assert result.manifest.fleet_sha256 == fleet_digest(
            paper_generator, SEPT_2010, SIZE, SEED
        )
        assert result.workers == 2

    def test_statistics_bit_identical_across_worker_counts(
        self, tmp_path, paper_generator
    ):
        """Lease partitioning, not worker placement, fixes the merge order."""
        runs = []
        for workers in (1, 3):
            out = tmp_path / f"w{workers}"
            runs.append(
                export_fleet_distributed(
                    paper_generator, SEPT_2010, SIZE, SEED, str(out),
                    workers=workers, lease_blocks=2, quantiles=True,
                )
            )
        first, second = (run.statistics for run in runs)
        assert first.moments.means() == second.moments.means()
        assert first.moments.stds() == second.moments.stds()
        np.testing.assert_array_equal(
            first.correlation.matrix().values, second.correlation.matrix().values
        )
        assert first.quantiles.to_state() == second.quantiles.to_state()

    def test_statistics_agree_with_sharded_reduction(self, tmp_path, paper_generator):
        from repro.engine import generate_sharded

        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path / "d"), workers=2
        )
        sharded = generate_sharded(paper_generator, SEPT_2010, SIZE, SEED, shards=1)
        for label, mean in result.statistics.moments.means().items():
            assert mean == pytest.approx(sharded.moments.means()[label], rel=1e-9)
        delta = result.statistics.correlation.matrix().max_abs_difference(
            sharded.correlation.matrix()
        )
        assert delta < 1e-9

    def test_empty_fleet(self, tmp_path, paper_generator):
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, 0, SEED, str(tmp_path), workers=2
        )
        assert result.manifest.segments == ()
        assert verify_manifest(str(tmp_path / "manifest.json")).ok


class TestFinalisationRefusesChangedBlocks:
    """Finalisation reads every block file once, against the digest its
    worker reported, before any manifest is written."""

    @pytest.mark.parametrize("change", ["flipped", "resized"])
    def test_block_changed_before_finalisation_is_refused(
        self, tmp_path, paper_generator, monkeypatch, change
    ):
        import repro.engine.distributed as distributed

        out = tmp_path / "dist"
        run = distributed._Coordinator.run

        def run_then_change_block_2(coordinator):
            run(coordinator)
            path = out / "block-000002.csv"
            data = bytearray(path.read_bytes())
            if change == "flipped":
                data[len(data) // 2] ^= 1
            else:
                data += b"0\n"
            path.write_bytes(bytes(data))

        monkeypatch.setattr(distributed._Coordinator, "run", run_then_change_block_2)
        before = set(threading.enumerate())
        with pytest.raises(
            RuntimeError,
            match=r"^block 2 on disk does not match the digest its worker "
            r"reported; refusing to finalise a corrupt export$",
        ):
            export_fleet_distributed(
                paper_generator, SEPT_2010, SIZE, SEED, str(out), workers=2
            )
        assert not (out / "manifest.json").exists()
        assert set(threading.enumerate()) == before


class TestWorkerFailure:
    def test_sigkilled_worker_blocks_are_reassigned(
        self, tmp_path, paper_generator, golden, worker_sigkill_after_block
    ):
        """One worker SIGKILLs itself mid-run; the export must not change."""
        golden_dir, golden_result = golden
        out = tmp_path / "killed"
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(out),
            workers=2, lease_blocks=1, quantiles=True,
        )
        assert result.reassigned_leases >= 1
        assert result.manifest.to_json() == golden_result.manifest.to_json()
        assert _payload_bytes(out, result.manifest) == _payload_bytes(
            golden_dir, golden_result.manifest
        )
        assert verify_manifest(str(out / "manifest.json")).ok

    def test_lone_worker_death_fails_loudly(
        self, tmp_path, paper_generator, worker_sigkill_after_block
    ):
        with pytest.raises(RuntimeError, match="workers died"):
            export_fleet_distributed(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path / "out"),
                workers=1, lease_blocks=1,
            )
        assert not (tmp_path / "out" / "manifest.json").exists()


def _fake_worker(listener, behaviour):
    """Accept one coordinator connection and run ``behaviour(sock, job)``."""
    conn, _ = listener.accept()
    try:
        send_frame(conn, {"type": "hello", "protocol": PROTOCOL_VERSION})
        job = recv_frame(conn)
        behaviour(conn, job)
    finally:
        conn.close()


def _serving(behaviour):
    """A listening fake worker; returns ``(port, thread)``."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def run():
        try:
            _fake_worker(listener, behaviour)
        finally:
            listener.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return port, thread


class TestProtocolFailureHandling:
    def _export(self, paper_generator, tmp_path, port):
        return export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
            workers=0, connect=[("127.0.0.1", port)],
            lease_blocks=2, worker_timeout=30.0,
        )

    def test_version_mismatched_reducer_state_retires_the_worker(
        self, tmp_path, paper_generator
    ):
        """A result whose ReducerSet payload has the wrong state_version is
        rejected through from_state and the worker is dropped."""

        def behaviour(conn, job):
            import hashlib

            send_frame(conn, {"type": "ready"})
            assign = recv_frame(conn)
            lo, hi = assign["block_lo"], assign["block_hi"]
            # Self-consistent (empty) block entries, so validation gets all
            # the way to ReducerSet.from_state before anything is rejected.
            empty_sha = hashlib.sha256(b"").hexdigest()
            send_frame(
                conn,
                {
                    "type": "result",
                    "block_lo": lo,
                    "block_hi": hi,
                    "blocks": [
                        {"index": i, "sha256": empty_sha, "bytes": 0,
                         "digest": "00" * 32, "data": ""}
                        for i in range(lo, hi)
                    ],
                    "reducers": {
                        "kind": "ReducerSet",
                        "state_version": 999,
                        "reducers": {},
                    },
                },
            )
            recv_frame(conn)  # wait for the coordinator to act

        port, thread = _serving(behaviour)
        with pytest.raises(RuntimeError, match="state version|workers died"):
            self._export(paper_generator, tmp_path, port)
        thread.join(timeout=2)
        assert not thread.is_alive()

    def test_rejected_result_requeues_lease_to_healthy_workers(
        self, tmp_path, paper_generator, golden, slot_starts_late
    ):
        """A bad result must give its lease back: with a healthy worker
        still alive, the export completes (regression: clearing the lease
        before validation leaked it and hung the coordinator forever)."""
        golden_dir, golden_result = golden

        def behaviour(conn, job):
            import hashlib

            send_frame(conn, {"type": "ready"})
            assign = recv_frame(conn)
            lo, hi = assign["block_lo"], assign["block_hi"]
            empty_sha = hashlib.sha256(b"").hexdigest()
            send_frame(
                conn,
                {
                    "type": "result",
                    "block_lo": lo,
                    "block_hi": hi,
                    "blocks": [
                        {"index": i, "sha256": empty_sha, "bytes": 0,
                         "digest": "00" * 32, "data": ""}
                        for i in range(lo, hi)
                    ],
                    "reducers": {"kind": "ReducerSet", "state_version": 999,
                                 "reducers": {}},
                },
            )
            recv_frame(conn)

        port, thread = _serving(behaviour)
        out = tmp_path / "healed"
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(out),
            workers=1, connect=[("127.0.0.1", port)],
            lease_blocks=2, quantiles=True,
        )
        thread.join(timeout=2)
        assert not thread.is_alive()
        assert result.reassigned_leases >= 1
        assert result.manifest.to_json() == golden_result.manifest.to_json()
        assert _payload_bytes(out, result.manifest) == _payload_bytes(
            golden_dir, golden_result.manifest
        )

    def test_worker_dying_mid_block_requeues(self, tmp_path, paper_generator):
        """Connection loss right after an assign must not hang the export."""

        def behaviour(conn, job):
            send_frame(conn, {"type": "ready"})
            recv_frame(conn)  # take the assign, then die without a result

        port, thread = _serving(behaviour)
        with pytest.raises(RuntimeError, match="workers died"):
            self._export(paper_generator, tmp_path, port)
        thread.join(timeout=2)
        assert not thread.is_alive()

    def test_garbage_frame_retires_the_worker(self, tmp_path, paper_generator):
        def behaviour(conn, job):
            conn.sendall(struct.pack(">I", 3) + b"zzz")  # not JSON

        port, thread = _serving(behaviour)
        with pytest.raises(RuntimeError, match="workers died"):
            self._export(paper_generator, tmp_path, port)
        thread.join(timeout=2)
        assert not thread.is_alive()

    def test_wrong_protocol_version_hello_is_refused(
        self, tmp_path, paper_generator
    ):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def run():
            conn, _ = listener.accept()
            try:
                send_frame(conn, {"type": "hello", "protocol": 999})
                recv_frame(conn)
            finally:
                conn.close()
                listener.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        with pytest.raises(RuntimeError, match="protocol"):
            self._export(paper_generator, tmp_path, port)
        thread.join(timeout=2)
        assert not thread.is_alive()


class TestServeWorker:
    def test_tcp_attached_worker_produces_identical_export(
        self, tmp_path, paper_generator, golden
    ):
        golden_dir, golden_result = golden
        ports: "queue.Queue[int]" = queue.Queue()
        thread = threading.Thread(
            target=serve_worker,
            kwargs={"port": 0, "on_bound": ports.put, "max_jobs": 1},
            daemon=True,
        )
        thread.start()
        port = ports.get(timeout=30)
        out = tmp_path / "attached"
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(out),
            workers=0, connect=[("127.0.0.1", port)],
            lease_blocks=2, quantiles=True,
        )
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert result.manifest.to_json() == golden_result.manifest.to_json()
        assert _payload_bytes(out, result.manifest) == _payload_bytes(
            golden_dir, golden_result.manifest
        )
        assert verify_manifest(str(out / "manifest.json")).ok

    def test_mixed_local_and_attached_workers(
        self, tmp_path, paper_generator, golden, slot_starts_late
    ):
        _, golden_result = golden
        ports: "queue.Queue[int]" = queue.Queue()
        thread = threading.Thread(
            target=serve_worker,
            kwargs={"port": 0, "on_bound": ports.put, "max_jobs": 1},
            daemon=True,
        )
        thread.start()
        port = ports.get(timeout=30)
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
            workers=1, connect=[("127.0.0.1", port)],
            lease_blocks=1, quantiles=True,
        )
        thread.join(timeout=30)
        assert result.manifest.to_json() == golden_result.manifest.to_json()
        assert result.workers == 2

    def test_rejected_worker_is_free_for_its_next_job(self, paper_params):
        """A coordinator that rejects the result and hangs up must not
        hold the serve-worker slot: the next dial gets its hello within
        2 s, not after a read deadline."""
        from repro.engine.distributed import _hang_up

        ports: "queue.Queue[int]" = queue.Queue()
        served = {}

        def run():
            served["jobs"] = serve_worker(port=0, max_jobs=2, on_bound=ports.put)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        port = ports.get(timeout=30)

        coordinator = socket.create_connection(("127.0.0.1", port), timeout=30)
        assert recv_frame(coordinator)["type"] == "hello"
        root = np.random.SeedSequence(SEED)
        send_frame(coordinator, {
            "type": "job", "protocol": PROTOCOL_VERSION,
            "params": paper_params.to_json(), "when": SEPT_2010,
            "size": RNG_BLOCK_SIZE, "chunk_size": RNG_BLOCK_SIZE,
            "entropy": str(root.entropy), "spawn_key": [],
            "block_size": RNG_BLOCK_SIZE, "format": "csv", "reducers": [],
            "worker_timeout": 60.0, "lease_depth": 1,
        })
        frame = recv_frame(coordinator)
        while frame["type"] == "heartbeat":
            frame = recv_frame(coordinator)
        assert frame["type"] == "ready"
        send_frame(coordinator, {"type": "assign", "block_lo": 0, "block_hi": 1})
        while frame["type"] != "result":
            frame = recv_frame(coordinator)
        _hang_up(coordinator)  # the coordinator rejects the result

        start = time.monotonic()
        with socket.create_connection(("127.0.0.1", port), timeout=2.0) as again:
            hello = recv_frame(again)
            assert hello["type"] == "hello"
            assert time.monotonic() - start < 2.0
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert served["jobs"] == 2

    def test_job_frame_cannot_make_it_write_files(self, paper_params, tmp_path):
        """A serve-worker writes no file a peer names: a job frame carrying
        a directory still gets every block back inline, and the directory
        stays empty."""
        ports: "queue.Queue[int]" = queue.Queue()
        thread = threading.Thread(
            target=serve_worker,
            kwargs={"port": 0, "max_jobs": 1, "on_bound": ports.put},
            daemon=True,
        )
        thread.start()
        port = ports.get(timeout=30)
        named = tmp_path / "named"
        named.mkdir()

        with socket.create_connection(("127.0.0.1", port), timeout=30) as peer:
            assert recv_frame(peer)["type"] == "hello"
            root = np.random.SeedSequence(SEED)
            send_frame(peer, {
                "type": "job", "protocol": PROTOCOL_VERSION,
                "params": paper_params.to_json(), "when": SEPT_2010,
                "size": RNG_BLOCK_SIZE, "chunk_size": RNG_BLOCK_SIZE,
                "entropy": str(root.entropy), "spawn_key": [],
                "block_size": RNG_BLOCK_SIZE, "format": "csv", "reducers": [],
                "worker_timeout": 60.0, "lease_depth": 1,
                "out_dir": str(named),
            })
            frame = recv_frame(peer)
            while frame["type"] == "heartbeat":
                frame = recv_frame(peer)
            assert frame["type"] == "ready"
            send_frame(peer, {"type": "assign", "block_lo": 0, "block_hi": 1})
            while frame["type"] != "result":
                frame = recv_frame(peer)
            send_frame(peer, {"type": "shutdown"})
        thread.join(timeout=30)
        assert not thread.is_alive()

        (block,) = frame["blocks"]
        data = base64.b64decode(block["data"], validate=True)
        assert hashlib.sha256(data).hexdigest() == block["sha256"]
        assert len(data) == block["bytes"]
        assert list(named.iterdir()) == []

    @staticmethod
    def _serve(max_jobs: int):
        """A serve_worker thread; returns ``(thread, port, served)``."""
        ports: "queue.Queue[int]" = queue.Queue()
        served = {}

        def run():
            served["jobs"] = serve_worker(
                port=0, max_jobs=max_jobs, on_bound=ports.put
            )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread, ports.get(timeout=30), served

    def test_peer_rebuilds_the_full_chain_generator(self, tmp_path):
        """The job frame names a non-default per-core cap, so a peer
        exports the full-chain fleet, not the default-cap one."""
        from repro.core.generator import CorrelatedHostGenerator

        full_chain = CorrelatedHostGenerator(percore_max_mb=None)
        thread, port, _ = self._serve(max_jobs=1)
        result = export_fleet_distributed(
            full_chain, SEPT_2010, SIZE, SEED, str(tmp_path / "peer"),
            workers=0, connect=[("127.0.0.1", port)],
        )
        thread.join(timeout=30)
        assert not thread.is_alive()
        local = export_fleet(full_chain, SEPT_2010, SIZE, SEED, str(tmp_path / "local"))
        default = export_fleet(
            CorrelatedHostGenerator(), SEPT_2010, SIZE, SEED, str(tmp_path / "default")
        )
        assert result.manifest.payload_sha256 == local.payload_sha256
        assert local.payload_sha256 != default.payload_sha256

    def test_unregistered_wire_generator_is_refused(
        self, tmp_path, paper_generator, golden
    ):
        """A job naming no registered family fails the export in one line
        carrying the peer's refusal, and the peer serves its next job."""

        class Unregistered:
            wire_name = "NoSuchFamily"
            schema = paper_generator.schema
            parameters = paper_generator.parameters

            def generate(self, when, size, rng):
                return paper_generator.generate(when, size, rng)

        thread, port, served = self._serve(max_jobs=2)
        with pytest.raises(RuntimeError) as raised:
            export_fleet_distributed(
                Unregistered(), SEPT_2010, SIZE, SEED, str(tmp_path / "refused"),
                workers=0, connect=[("127.0.0.1", port)],
            )
        message = str(raised.value)
        assert len(message.splitlines()) == 1
        assert "refused the job: unknown wire generator 'NoSuchFamily'" in message
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path / "next"),
            workers=0, connect=[("127.0.0.1", port)], quantiles=True,
        )
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert served["jobs"] == 2
        assert result.manifest.to_json() == golden[1].manifest.to_json()

    def test_malformed_params_get_the_malformed_job_error(self, paper_params):
        thread, port, _ = self._serve(max_jobs=1)
        with socket.create_connection(("127.0.0.1", port), timeout=30) as peer:
            assert recv_frame(peer)["type"] == "hello"
            root = np.random.SeedSequence(SEED)
            send_frame(peer, {
                "type": "job", "protocol": PROTOCOL_VERSION,
                "generator": "CorrelatedHostGenerator", "params": "{not json",
                "when": SEPT_2010, "size": RNG_BLOCK_SIZE,
                "chunk_size": RNG_BLOCK_SIZE, "entropy": str(root.entropy),
                "spawn_key": [], "block_size": RNG_BLOCK_SIZE, "format": "csv",
                "reducers": [], "worker_timeout": 60.0, "lease_depth": 1,
            })
            frame = recv_frame(peer)
            while frame["type"] == "heartbeat":
                frame = recv_frame(peer)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert frame["type"] == "error"
        assert frame["message"].startswith("malformed job: ")


def _make_coordinator(leases, size=16_384, lease_depth=1):
    from repro.engine.distributed import _Coordinator

    return _Coordinator(
        job={"type": "job"}, leases=leases, out_dir=".",
        factories={}, size=size, worker_timeout=60.0, lease_depth=lease_depth,
    )


class TestCoordinatorWait:
    def test_peer_frame_wakes_the_wait_on_a_busy_slot(self, monkeypatch):
        """One wait covers the slots' pool pipes and the peers' frames: a
        hello wakes it at once while a slot is busy, with no polling
        interval (the tick between periodic duties is a minute here)."""
        import repro.engine.distributed as distributed
        from repro.engine.distributed import _Remote
        from repro.engine.pool import get_pool

        monkeypatch.setattr(distributed, "_TICK", 60.0)
        coordinator = _make_coordinator([(0, 1)])
        coordinator.pool = get_pool(1)
        slot = _Remote("local-0")
        slot.task = coordinator.pool.apply_async(time.sleep, (120,))
        coordinator.remotes.append(slot)
        with socket.create_server(("127.0.0.1", 0)) as listener:
            theirs = socket.create_connection(listener.getsockname())
            ours, _ = listener.accept()
        theirs.settimeout(30)
        try:
            coordinator.attach(ours, "peer")
            send_frame(theirs, {"type": "hello", "protocol": PROTOCOL_VERSION})
            start = time.monotonic()
            coordinator._wait()
            assert time.monotonic() - start < 30
            assert recv_frame(theirs) == coordinator.job  # the hello's answer
            assert not slot.task.done
        finally:
            slot.task.kill()
            coordinator.close()
            theirs.close()


class TestWorkStealing:
    def test_idle_worker_steals_the_oldest_straggler_lease(self):
        """Scheduler unit: queue empty + aged straggler → speculative assign."""
        from repro.engine.distributed import _Remote

        coordinator = _make_coordinator([(0, 2), (2, 4)])
        straggler_sock, _straggler_peer = socket.socketpair()
        idle_sock, idle_peer = socket.socketpair()
        with straggler_sock, _straggler_peer, idle_sock, idle_peer:
            straggler = _Remote("slow", straggler_sock)
            straggler.state = "active"
            straggler.leases = {(0, 2): 0.0}  # ancient — well past STEAL_AFTER
            idle = _Remote("fast", idle_sock)
            idle.state = "active"
            idle.credits = 1
            coordinator.remotes.extend([straggler, idle])
            coordinator.pending.clear()

            coordinator._steal(time.monotonic())
            assert (0, 2) in idle.leases
            assert coordinator.stolen == 1
            assert coordinator.worker_metrics["fast"]["stolen_leases"] == 1
            assert recv_frame(idle_peer) == {
                "type": "assign", "block_lo": 0, "block_hi": 2,
            }

    def test_steal_spreads_idle_workers_across_distinct_stragglers(self):
        """One pass must not pile every idle worker onto the oldest lease."""
        from repro.engine.distributed import _Remote

        coordinator = _make_coordinator([(0, 2), (2, 4)])
        socks = [socket.socketpair() for _ in range(4)]
        try:
            stragglers = []
            for i, lease in enumerate([(0, 2), (2, 4)]):
                remote = _Remote(f"slow-{i}", socks[i][0])
                remote.state = "active"
                remote.leases = {lease: float(i)}  # (0,2) is the oldest
                stragglers.append(remote)
            idlers = []
            for i in range(2, 4):
                remote = _Remote(f"fast-{i}", socks[i][0])
                remote.state = "active"
                remote.credits = 1
                idlers.append(remote)
            coordinator.remotes.extend(stragglers + idlers)
            coordinator.pending.clear()

            coordinator._steal(time.monotonic())
            stolen = set()
            for idler in idlers:
                stolen.update(idler.leases)
            assert stolen == {(0, 2), (2, 4)}
            assert coordinator.stolen == 2
        finally:
            for a, b in socks:
                a.close()
                b.close()

    def test_worker_holding_a_lease_does_not_steal(self):
        """Speculation must never compete with a worker's own real work."""
        from repro.engine.distributed import _Remote

        coordinator = _make_coordinator([(0, 2), (2, 4)])
        socks = [socket.socketpair() for _ in range(2)]
        try:
            straggler = _Remote("slow", socks[0][0])
            straggler.state = "active"
            straggler.leases = {(0, 2): 0.0}
            busy = _Remote("busy", socks[1][0])
            busy.state = "active"
            busy.credits = 1
            busy.leases = {(2, 4): time.monotonic()}  # pipelining, not idle
            coordinator.remotes.extend([straggler, busy])
            coordinator.pending.clear()

            coordinator._steal(time.monotonic())
            assert (0, 2) not in busy.leases
            assert coordinator.stolen == 0
        finally:
            for a, b in socks:
                a.close()
                b.close()

    def test_duplicate_result_is_discarded(self):
        """First result for a lease wins; a speculative duplicate is dropped."""
        from repro.engine.distributed import _Remote

        coordinator = _make_coordinator([(0, 1)], size=4_096)
        sock, peer = socket.socketpair()
        with sock, peer:
            remote = _Remote("dup", sock)
            remote.state = "active"
            remote.leases = {(0, 1): 0.0}
            coordinator.remotes.append(remote)
            coordinator.completed[(0, 1)] = {"records": [], "digests": [],
                                             "reducers": None}
            coordinator._handle_result(
                remote, {"type": "result", "block_lo": 0, "block_hi": 1,
                         "blocks": [], "reducers": {}},
            )
            # discarded without touching the stored result, worker kept alive
            assert coordinator.completed[(0, 1)]["reducers"] is None
            assert remote.alive and not remote.leases


class TestLeaseDepth:
    def test_ready_beyond_the_cap_retires_the_worker(self):
        """Backpressure unit: credits past lease_depth are a protocol error."""
        from repro.engine.distributed import _Remote

        coordinator = _make_coordinator([(0, 1)], lease_depth=1)
        coordinator.pending.clear()  # nothing assignable: credits accumulate
        sock, _peer = socket.socketpair()
        with sock, _peer:
            remote = _Remote("greedy", sock)
            remote.state = "active"
            coordinator.remotes.append(remote)
            coordinator._handle_frame(remote, {"type": "ready"})
            assert remote.alive and remote.credits == 1
            coordinator._handle_frame(remote, {"type": "ready"})
            assert not remote.alive
            assert "in-flight lease cap" in str(coordinator.last_error)

    def test_pipelined_export_is_byte_identical(
        self, tmp_path, paper_generator, golden
    ):
        golden_dir, golden_result = golden
        out = tmp_path / "deep"
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(out),
            workers=2, lease_blocks=1, lease_depth=2, quantiles=True,
        )
        assert result.manifest.to_json() == golden_result.manifest.to_json()
        assert _payload_bytes(out, result.manifest) == _payload_bytes(
            golden_dir, golden_result.manifest
        )


class TestArgumentValidation:
    def test_rejects_zero_workers_without_connect(self, tmp_path, paper_generator):
        with pytest.raises(ValueError, match="at least one worker"):
            export_fleet_distributed(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path), workers=0
            )

    def test_rejects_unserialisable_generator(self, tmp_path):
        class Opaque:
            pass

        with pytest.raises(ValueError, match="parameters"):
            export_fleet_distributed(
                Opaque(), SEPT_2010, SIZE, SEED, str(tmp_path), workers=1
            )

    def test_rejects_unregistered_wire_reducer(self, tmp_path, paper_generator):
        from repro.engine import HistogramReducer

        factories = {"hist": lambda: HistogramReducer("disk_gb", [0.0, 1.0])}
        with pytest.raises(ValueError, match="cannot travel the wire"):
            export_fleet_distributed(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                workers=1, reducers=factories,
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lease_blocks": 0},
            {"lease_depth": 0},
            {"chunk_size": 0},
            {"workers": -1},
            {"worker_timeout": 0.0},
            {"worker_timeout": -1.0},
        ],
    )
    def test_rejects_bad_numbers(self, tmp_path, paper_generator, kwargs):
        with pytest.raises(ValueError):
            export_fleet_distributed(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                **{"workers": 1, **kwargs},
            )


class TestCliSubprocessCrashInjection:
    def test_cli_distributed_export_survives_worker_sigkill(self, tmp_path):
        """Mirror of test_resume's SIGKILL test: run the real CLI, have one
        worker process die by SIGKILL mid-run, and demand a verified export
        whose digests equal the single-process CLI export."""
        import subprocess
        import sys

        import repro.engine.writer as writer

        src = os.path.abspath(
            os.path.join(os.path.dirname(writer.__file__), "..", "..")
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        single = tmp_path / "single"
        dist = tmp_path / "dist"
        subprocess.run(
            [sys.executable, "-m", "repro", "fleet", "export",
             "--size", str(SIZE), "--seed", str(SEED),
             "--out-dir", str(single)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "fleet", "export",
             "--size", str(SIZE), "--seed", str(SEED),
             "--out-dir", str(dist), "--backend", "distributed",
             "--workers", "2", "--lease-blocks", "1", "--fault-spec",
             "distributed.worker.block:kind=sigkill,once=true,after=1"],
            env=env, check=True, capture_output=True, text=True, timeout=300,
        )
        (summary,) = [
            line for line in completed.stdout.splitlines()
            if line.startswith("distributed:")
        ]
        reassigned = int(summary.split(", ")[1].split()[0])
        assert reassigned >= 1, summary
        verify = subprocess.run(
            [sys.executable, "-m", "repro", "fleet", "verify",
             str(dist / "manifest.json")],
            env=env, check=True, capture_output=True, timeout=300,
        )
        assert b"OK" in verify.stdout
        single_manifest = json.loads((single / "manifest.json").read_text())
        dist_manifest = json.loads((dist / "manifest.json").read_text())
        assert dist_manifest["payload_sha256"] == single_manifest["payload_sha256"]
        assert dist_manifest["fleet_sha256"] == single_manifest["fleet_sha256"]

    def test_cli_coordinator_sigkill_then_resume(self, tmp_path):
        """The CI smoke sequence in miniature: a token-authed run whose
        coordinator is SIGKILLed after two lease checkpoints, then
        ``--resume`` with ``--metrics``, ending byte-identical to the
        single-process CLI export."""
        env = _cli_env()
        token_file = tmp_path / "fleet.token"
        token_file.write_text("cli-resume-secret\n")
        single = tmp_path / "single"
        dist = tmp_path / "dist"
        metrics = tmp_path / "metrics.json"
        subprocess.run(
            [sys.executable, "-m", "repro", "fleet", "export",
             "--size", str(SIZE), "--seed", str(SEED),
             "--out-dir", str(single)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        crashed = subprocess.run(
            [sys.executable, "-m", "repro", "fleet", "export",
             "--size", str(SIZE), "--seed", str(SEED),
             "--out-dir", str(dist), "--backend", "distributed",
             "--workers", "2", "--lease-blocks", "1",
             "--token-file", str(token_file),
             "--fault-spec",
             "distributed.coordinator.checkpoint:kind=sigkill,after=3"],
            env=env, capture_output=True, timeout=300,
        )
        assert crashed.returncode != 0
        assert (dist / DISTRIBUTED_PLAN_NAME).exists()
        assert (dist / DISTRIBUTED_LEASE_LOG).exists()
        resumed = subprocess.run(
            [sys.executable, "-m", "repro", "fleet", "export",
             "--size", str(SIZE), "--seed", str(SEED),
             "--out-dir", str(dist), "--backend", "distributed",
             "--workers", "2", "--resume",
             "--token-file", str(token_file),
             "--metrics", str(metrics)],
            env=env, check=True, capture_output=True, text=True, timeout=300,
        )
        assert "restored from checkpoints" in resumed.stdout
        single_manifest = json.loads((single / "manifest.json").read_text())
        dist_manifest = json.loads((dist / "manifest.json").read_text())
        assert dist_manifest["payload_sha256"] == single_manifest["payload_sha256"]
        assert dist_manifest["fleet_sha256"] == single_manifest["fleet_sha256"]
        doc = json.loads(metrics.read_text())
        assert doc["kind"] == "FleetDistributedMetrics"
        assert doc["resumed_leases"] >= 1
        assert not (dist / DISTRIBUTED_PLAN_NAME).exists()

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="process-tree check reads /proc"
    )
    def test_coordinator_crash_leaves_no_orphan_holding_the_pipe(self, tmp_path):
        """A SIGKILLed coordinator's local workers must exit at once: the
        piped stdout closes within 10 s and nothing of its session lives."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", "export",
             "--size", str(SIZE), "--seed", str(SEED),
             "--out-dir", str(tmp_path / "dist"), "--backend", "distributed",
             "--workers", "2", "--lease-blocks", "1",
             "--fault-spec",
             "distributed.coordinator.checkpoint:kind=sigkill,after=3"],
            env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the crashed export's stdout pipe stayed open 10 s")
        assert proc.returncode == -signal.SIGKILL
        # a worker closes its descriptors a moment before it is reaped
        deadline = time.monotonic() + 5
        while _session_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _session_members(proc.pid) == {}


def _session_members(session: int) -> "dict[int, str]":
    """Live (non-zombie) processes of ``session``: pid -> /proc stat line."""
    members = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] not in "ZX" and int(fields[3]) == session:
            members[int(entry)] = stat
    return members


def _cli_env():
    """Subprocess environment with ``src`` importable and no ambient token."""
    import repro.engine.writer as writer

    src = os.path.abspath(
        os.path.join(os.path.dirname(writer.__file__), "..", "..")
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FLEET_TOKEN", None)
    return env


class TestServeWorkerCliSignals:
    """S3 regression: signals must stop ``--forever`` cleanly, not traceback."""

    def _spawn(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", "serve-worker",
             "--port", "0", "--forever"],
            env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        line = proc.stdout.readline()
        assert "serving fleet worker on" in line
        return proc

    def test_ctrl_c_exits_cleanly_with_a_summary(self):
        proc = self._spawn()
        time.sleep(0.2)
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert "Traceback" not in out
        assert "served 0 job(s)" in out

    def test_sigterm_drains_and_exits_zero(self):
        proc = self._spawn()
        time.sleep(0.2)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert "served 0 job(s)" in out


class TestResolveFleetToken:
    def test_unset_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLEET_TOKEN", raising=False)
        assert resolve_fleet_token() is None

    def test_env_token_is_stripped(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_TOKEN", "  secret\n")
        assert resolve_fleet_token() == "secret"

    def test_blank_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_TOKEN", "   ")
        with pytest.raises(ValueError, match="blank"):
            resolve_fleet_token()

    def test_token_file_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_TOKEN", "env-secret")
        path = tmp_path / "token"
        path.write_text("file-secret\n")
        assert resolve_fleet_token(str(path)) == "file-secret"

    def test_empty_token_file_raises(self, tmp_path):
        path = tmp_path / "token"
        path.write_text(" \n")
        with pytest.raises(ValueError, match="empty"):
            resolve_fleet_token(str(path))

    def test_missing_token_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            resolve_fleet_token(str(tmp_path / "absent"))


class TestAuthentication:
    def test_token_round_trip_is_byte_identical(
        self, tmp_path, paper_generator, golden
    ):
        golden_dir, golden_result = golden
        ports = queue.Queue()
        thread = threading.Thread(
            target=serve_worker,
            kwargs={"port": 0, "max_jobs": 1, "on_bound": ports.put,
                    "token": "fleet-secret"},
            daemon=True,
        )
        thread.start()
        port = ports.get(timeout=30)
        out = tmp_path / "authed"
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(out),
            workers=1, connect=[("127.0.0.1", port)],
            lease_blocks=2, quantiles=True, token="fleet-secret",
        )
        thread.join(timeout=30)
        assert result.manifest.to_json() == golden_result.manifest.to_json()
        assert _payload_bytes(out, result.manifest) == _payload_bytes(
            golden_dir, golden_result.manifest
        )

    def test_wrong_worker_token_fails_authentication(
        self, tmp_path, paper_generator
    ):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def run():
            conn, _ = listener.accept()
            try:
                send_frame(conn, {
                    "type": "hello", "protocol": PROTOCOL_VERSION,
                    "token": "not-the-secret",
                })
                recv_frame(conn)
            except (ProtocolError, OSError):
                pass
            finally:
                conn.close()
                listener.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        with pytest.raises(RuntimeError, match="failed authentication"):
            export_fleet_distributed(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                workers=0, connect=[("127.0.0.1", port)],
                worker_timeout=5.0, token="the-secret",
            )
        thread.join(timeout=2)
        assert not thread.is_alive()

    def test_token_holding_worker_refuses_a_tokenless_coordinator(
        self, tmp_path, paper_generator
    ):
        ports = queue.Queue()
        served = {}
        drain = threading.Event()

        def run():
            served["jobs"] = serve_worker(
                port=0, max_jobs=1, on_bound=ports.put,
                token="fleet-secret", drain_event=drain,
            )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        port = ports.get(timeout=30)
        try:
            with pytest.raises(RuntimeError, match="workers died"):
                export_fleet_distributed(
                    paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                    workers=0, connect=[("127.0.0.1", port)],
                    worker_timeout=5.0,
                )
        finally:
            drain.set()
            thread.join(timeout=30)
        # an unauthenticated coordinator must not consume the job slot
        assert served["jobs"] == 0


class TestWorkerReadDeadline:
    def test_worker_abandons_a_coordinator_that_goes_silent(self, paper_params):
        """S1 regression: after accepting a job the worker must enforce a
        read deadline instead of trusting a silent coordinator forever."""
        from repro.engine.distributed import _worker_loop

        # A real TCP pair: the worker loop sets TCP_NODELAY, which AF_UNIX
        # socketpairs reject.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        ours = socket.create_connection(listener.getsockname())
        theirs, _ = listener.accept()
        listener.close()
        failures = []

        def run():
            try:
                _worker_loop(theirs)
            except ProtocolError as error:
                failures.append(error)
            finally:
                theirs.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        hello = recv_frame(ours)
        assert hello["type"] == "hello"
        root = np.random.SeedSequence(SEED)
        send_frame(ours, {
            "type": "job", "protocol": PROTOCOL_VERSION,
            "params": paper_params.to_json(), "when": SEPT_2010,
            "size": RNG_BLOCK_SIZE, "chunk_size": RNG_BLOCK_SIZE,
            "entropy": str(root.entropy), "spawn_key": [],
            "block_size": RNG_BLOCK_SIZE, "format": "csv", "reducers": [],
            "worker_timeout": 1.0, "lease_depth": 1,
        })
        frame = recv_frame(ours)
        while frame is not None and frame["type"] == "heartbeat":
            frame = recv_frame(ours)
        assert frame is not None and frame["type"] == "ready"
        # ...then say nothing: the worker must give up after ~1 s
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert failures
        assert "presuming it dead" in str(failures[0])
        ours.close()


class TestGracefulDrain:
    def test_drained_worker_deregisters_cleanly(
        self, tmp_path, paper_generator, golden, slot_starts_late
    ):
        golden_dir, golden_result = golden
        ports = queue.Queue()
        served = {}

        def run():
            served["jobs"] = serve_worker(
                port=0, max_jobs=1, on_bound=ports.put, drain_after=1,
            )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        port = ports.get(timeout=30)
        out = tmp_path / "drained"
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(out),
            workers=1, connect=[("127.0.0.1", port)],
            lease_blocks=1, quantiles=True,
        )
        thread.join(timeout=30)
        assert served["jobs"] == 1
        assert result.metrics["drained_workers"] == 1
        # drain is a completion, not a death: nothing gets requeued
        assert result.metrics["requeued_leases"] == 0
        assert result.manifest.to_json() == golden_result.manifest.to_json()
        assert _payload_bytes(out, result.manifest) == _payload_bytes(
            golden_dir, golden_result.manifest
        )


class TestMetricsDocument:
    def test_embedded_and_written_metrics_agree(self, tmp_path, paper_generator):
        out = tmp_path / "out"
        metrics_path = tmp_path / "metrics.json"
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(out),
            workers=2, lease_blocks=1, metrics_path=str(metrics_path),
        )
        doc = json.loads(metrics_path.read_text())
        assert doc == json.loads(json.dumps(result.metrics))
        assert doc["kind"] == "FleetDistributedMetrics"
        assert doc["state_version"] == 1
        assert doc["leases_total"] == 5
        assert doc["leases_run"] == 5
        assert doc["resumed_leases"] == 0
        events = doc["leases"]
        assert sorted((e["block_lo"], e["block_hi"]) for e in events) == [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5)
        ]
        assert all(e["seconds"] >= 0.0 for e in events)
        assert all(e["worker"] in doc["workers"] for e in events)
        assert doc["workers_seen"] == result.workers
        assert doc["requeued_leases"] == 0
        assert doc["stolen_leases"] == 0
        assert doc["drained_workers"] == 0
        assert len(doc["heartbeat_gap_bucket_seconds"]) == 7
        for entry in doc["workers"].values():
            # every observed inter-frame gap lands in exactly one bucket
            assert len(entry["heartbeat_gap_histogram"]) == 8
            assert sum(entry["heartbeat_gap_histogram"]) == entry["frames"]
        assert sum(
            e["leases_completed"] for e in doc["workers"].values()
        ) == 5


class TestPooledWorkerHandle:
    """Local workers are pool slots: each runs one lease at a time as a
    task on the persistent pool, with no socket in between."""

    def test_local_export_binds_dials_and_frames_nothing(
        self, tmp_path, paper_generator, golden, monkeypatch
    ):
        import repro.engine.distributed as distributed

        def no_sockets(*args, **kwargs):
            raise AssertionError("a local-only export touched a socket")

        for name in ("send_frame", "recv_frame"):
            monkeypatch.setattr(distributed, name, no_sockets)
        monkeypatch.setattr(socket.socket, "bind", no_sockets)
        monkeypatch.setattr(socket, "create_connection", no_sockets)
        golden_dir, golden_result = golden
        out = tmp_path / "local"
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(out),
            workers=2, lease_blocks=1, quantiles=True,
        )
        assert result.manifest.to_json() == golden_result.manifest.to_json()
        assert _payload_bytes(out, result.manifest) == _payload_bytes(
            golden_dir, golden_result.manifest
        )
        workers = result.metrics["workers"]
        assert sorted(workers) == ["local-0", "local-1"]
        assert all(entry["local"] for entry in workers.values())
        assert all(entry["frames"] == 0 for entry in workers.values())

    @pytest.fixture
    def first_task_raises(self, tmp_path_factory):
        spec = FaultSpec(site="pool.task", kind="raise", once=True)
        activate(
            FaultPlan(faults=(spec,)),
            state_dir=str(tmp_path_factory.mktemp("faults")),
        )
        yield
        deactivate()

    def test_raising_slot_is_retired_and_its_lease_requeued(
        self, tmp_path, paper_generator, golden, first_task_raises
    ):
        golden_dir, golden_result = golden
        out = tmp_path / "absorbed"
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(out),
            workers=2, lease_blocks=1, quantiles=True,
        )
        assert result.reassigned_leases >= 1
        assert result.manifest.to_json() == golden_result.manifest.to_json()
        assert _payload_bytes(out, result.manifest) == _payload_bytes(
            golden_dir, golden_result.manifest
        )

    def test_lone_raising_slot_fails_the_export(
        self, tmp_path, paper_generator, first_task_raises
    ):
        with pytest.raises(
            RuntimeError, match="all distributed workers died.*injected fault"
        ):
            export_fleet_distributed(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path / "out"),
                workers=1, lease_blocks=1,
            )
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the pool workers must inherit the patched opens",
    )
    def test_killed_duplicate_leaves_accepted_blocks_whole(
        self, tmp_path, paper_generator, golden, monkeypatch
    ):
        """The slot still running a stolen lease when the export completes
        is killed between opening and writing a block whose first result
        was already accepted: that block stays whole."""
        import builtins
        import re

        import repro.engine.distributed as distributed
        from repro.engine.pool import AsyncTask, shutdown_pools

        rewriting = tmp_path / "rewriting"
        block_name = re.compile(r"block-\d{6}\.csv")

        def then_hang_on_rewrite(real_open):
            # Either open of a block file that already holds bytes: the
            # duplicate's.  It hangs once the open (truncating or not) is
            # done, and is killed there.
            def opener(path, mode, *args, **kwargs):
                rewrite = (
                    isinstance(path, str)
                    and block_name.fullmatch(os.path.basename(path))
                    and os.path.exists(path)
                    and os.path.getsize(path) > 0
                    and (not isinstance(mode, str) or "w" in mode)
                )
                opened = real_open(path, mode, *args, **kwargs)
                if rewrite:
                    rewriting.touch()
                    time.sleep(60)
                return opened
            return opener

        kill = AsyncTask.kill

        def kill_while_rewriting(task):
            deadline = time.monotonic() + 30
            while not rewriting.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            kill(task)

        # The forked pool workers inherit the patched opens; the first task
        # waits a second, so the other slot steals its lease and wins.
        monkeypatch.setattr(
            distributed, "open", then_hang_on_rewrite(builtins.open), raising=False
        )
        monkeypatch.setattr(os, "open", then_hang_on_rewrite(os.open))
        monkeypatch.setattr(distributed, "STEAL_AFTER", 0.0)
        monkeypatch.setattr(AsyncTask, "kill", kill_while_rewriting)
        spec = FaultSpec(site="pool.task", kind="delay", delay_seconds=1.0, once=True)
        activate(FaultPlan(faults=(spec,)), state_dir=str(tmp_path / "faults"))
        shutdown_pools()
        golden_dir, golden_result = golden
        out = tmp_path / "duplicate"
        try:
            result = export_fleet_distributed(
                paper_generator, SEPT_2010, SIZE, SEED, str(out),
                workers=2, lease_blocks=1, quantiles=True, start_method="fork",
            )
        finally:
            deactivate()
            shutdown_pools()  # their opens stay patched
        assert rewriting.exists() and result.reassigned_leases >= 1
        assert verify_manifest(str(out / "manifest.json")).ok
        assert _payload_bytes(out, result.manifest) == _payload_bytes(
            golden_dir, golden_result.manifest
        )
        assert sorted(path.name for path in out.iterdir()) == sorted(
            [segment.path for segment in result.manifest.segments] + ["manifest.json"]
        )

    def test_pooled_worker_completes_a_reassigned_lease(
        self, tmp_path, paper_generator, golden, slot_starts_late
    ):
        """A remote worker takes a lease and dies; the pooled local worker
        must absorb the requeue and the export must stay byte-identical."""
        golden_dir, golden_result = golden

        def take_and_die(conn, job):
            send_frame(conn, {"type": "ready"})
            frame = recv_frame(conn)
            while frame is not None and frame["type"] == "heartbeat":
                frame = recv_frame(conn)
            assert frame is not None and frame["type"] == "assign"

        port, thread = _serving(take_and_die)
        out = tmp_path / "healed"
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(out),
            workers=1, connect=[("127.0.0.1", port)],
            lease_blocks=1, quantiles=True,
        )
        thread.join(timeout=30)
        assert result.reassigned_leases >= 1
        assert result.manifest.to_json() == golden_result.manifest.to_json()
        assert _payload_bytes(out, result.manifest) == _payload_bytes(
            golden_dir, golden_result.manifest
        )

    def test_sigkilled_local_worker_is_replaced_by_the_next_export(
        self, tmp_path, paper_generator, golden, worker_sigkill_after_block
    ):
        """The SIGKILLed worker's task reports its death instead of hanging
        the teardown, and the next export runs on a full pool again."""
        from repro.engine.pool import get_pool, pools_spawned

        _, golden_result = golden
        export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path / "a"),
            workers=2, lease_blocks=1, quantiles=True,
        )
        deactivate()
        spawned = pools_spawned()
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path / "b"),
            workers=2, lease_blocks=1, quantiles=True,
        )
        assert pools_spawned() == spawned  # healed in place, not rebuilt
        assert result.workers == 2
        assert all(w.process.is_alive() for w in get_pool(2)._workers)
        assert result.manifest.to_json() == golden_result.manifest.to_json()


def _resume_crash_main(out_dir):
    """Child body: a resume that SIGKILLs its own process as its second
    lease line is about to be appended, with one new line on disk."""
    from repro.core.generator import CorrelatedHostGenerator
    from repro.core.parameters import ModelParameters

    spec = FaultSpec(
        site="distributed.coordinator.checkpoint", kind="sigkill", after=2
    )
    activate(FaultPlan(faults=(spec,)))
    resume_export(
        CorrelatedHostGenerator(ModelParameters.paper_reference()), out_dir,
        workers=2,
    )


def _coordinator_crash_main(out_dir):
    """Child body for the fork-based coordinator SIGKILL tests: the export
    SIGKILLs its own process after the second lease checkpoint."""
    from repro.core.generator import CorrelatedHostGenerator
    from repro.core.parameters import ModelParameters

    # Die as the third lease checkpoint is about to be appended, with two
    # lines on disk.
    spec = FaultSpec(
        site="distributed.coordinator.checkpoint", kind="sigkill", after=3
    )
    activate(FaultPlan(faults=(spec,)))
    export_fleet_distributed(
        CorrelatedHostGenerator(ModelParameters.paper_reference()),
        SEPT_2010, SIZE, SEED, out_dir,
        workers=2, lease_blocks=1, quantiles=True,
    )


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="coordinator SIGKILL injection needs the fork start method",
)
class TestCoordinatorCrashResume:
    @pytest.fixture(scope="class")
    def crashed_template(self, tmp_path_factory):
        """One real coordinator crash, copied per test so each can tamper."""
        out = tmp_path_factory.mktemp("crash-template") / "run"
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_coordinator_crash_main, args=(str(out),))
        proc.start()
        proc.join(180)
        assert proc.exitcode == -signal.SIGKILL
        assert (out / DISTRIBUTED_PLAN_NAME).exists()
        assert (out / DISTRIBUTED_LEASE_LOG).exists()
        return out

    @pytest.fixture
    def crashed(self, crashed_template, tmp_path):
        out = tmp_path / "crashed"
        shutil.copytree(crashed_template, out)
        return out

    def _assert_byte_identical(self, out, result, golden):
        golden_dir, golden_result = golden
        assert result.manifest.to_json() == golden_result.manifest.to_json()
        assert _payload_bytes(out, result.manifest) == _payload_bytes(
            golden_dir, golden_result.manifest
        )
        assert verify_manifest(str(out / "manifest.json")).ok
        assert not (out / DISTRIBUTED_PLAN_NAME).exists()
        assert not (out / DISTRIBUTED_LEASE_LOG).exists()

    def test_resume_is_byte_identical(self, crashed, paper_generator, golden):
        result = resume_export(paper_generator, str(crashed), workers=2)
        assert result.resumed_leases == 2
        self._assert_byte_identical(crashed, result, golden)

    def test_cli_resume_takes_transport_flags_on_any_backend(
        self, crashed, golden, tmp_path, capsys, monkeypatch
    ):
        """Plain ``--resume`` reads the backend from the plan, so it takes
        ``--token-file`` and ``--metrics`` without ``--backend
        distributed`` and finishes byte-identical."""
        from repro.cli import main

        monkeypatch.delenv("REPRO_FLEET_TOKEN", raising=False)
        token_file = tmp_path / "fleet.token"
        token_file.write_text("resume-secret\n")
        metrics = tmp_path / "metrics.json"
        assert main(["fleet", "export", "--resume", "--out-dir", str(crashed),
                     "--token-file", str(token_file),
                     "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "resumed: 2 lease(s) restored" in out
        assert f"metrics: {metrics}" in out
        doc = json.loads(metrics.read_text())
        assert doc["kind"] == "FleetDistributedMetrics"
        assert doc["resumed_leases"] == 2
        golden_dir, golden_result = golden
        assert (crashed / "manifest.json").read_bytes() == (
            golden_dir / "manifest.json"
        ).read_bytes()
        assert _payload_bytes(crashed, golden_result.manifest) == _payload_bytes(
            golden_dir, golden_result.manifest
        )
        assert verify_manifest(str(crashed / "manifest.json")).ok
        assert not (crashed / DISTRIBUTED_PLAN_NAME).exists()

    def test_resume_tolerates_a_torn_final_checkpoint_line(
        self, crashed, paper_generator, golden
    ):
        with open(crashed / DISTRIBUTED_LEASE_LOG, "a") as handle:
            handle.write('{"kind": "FleetLeaseChec')  # torn mid-write tail
        result = resume_export(paper_generator, str(crashed), workers=2)
        assert result.resumed_leases == 2
        self._assert_byte_identical(crashed, result, golden)

    def test_corrupt_interior_checkpoint_line_raises(self, crashed, paper_generator):
        log = crashed / DISTRIBUTED_LEASE_LOG
        lines = log.read_text().splitlines(keepends=True)
        assert len(lines) == 2
        log.write_text('{"broken\n' + lines[1])
        with pytest.raises(StateError, match="not valid JSON"):
            resume_export(paper_generator, str(crashed), workers=2)

    def test_missing_checkpointed_block_regenerates_the_lease(
        self, crashed, paper_generator, golden
    ):
        first = json.loads(
            (crashed / DISTRIBUTED_LEASE_LOG).read_text().splitlines()[0]
        )
        (crashed / f"block-{first['block_lo']:06d}.csv").unlink()
        result = resume_export(paper_generator, str(crashed), workers=2)
        assert result.resumed_leases == 1  # the gutted lease re-ran
        self._assert_byte_identical(crashed, result, golden)

    def test_resume_without_a_plan_raises(self, tmp_path, paper_generator):
        with pytest.raises(StateError, match="nothing to resume"):
            resume_export(paper_generator, str(tmp_path), workers=1)

    def test_resume_refuses_a_mismatched_generator(self, crashed, paper_generator):
        plan_path = crashed / DISTRIBUTED_PLAN_NAME
        plan = json.loads(plan_path.read_text())
        plan["generator_sha256"] = "0" * 64
        plan_path.write_text(json.dumps(plan))
        with pytest.raises(StateError, match="do not match the interrupted export"):
            resume_export(paper_generator, str(crashed), workers=1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("size", "9000"),
            ("format", "parquet"),
            ("when", "sept"),
            ("manifest_name", "../escaped.json"),
        ],
    )
    def test_corrupt_plan_fields_raise_state_error(
        self, crashed, paper_generator, field, value
    ):
        """The block plan's corruption cases, on the distributed plan: a
        StateError each, and nothing is written outside the directory."""
        plan_path = crashed / DISTRIBUTED_PLAN_NAME
        plan = json.loads(plan_path.read_text())
        plan[field] = value
        plan_path.write_text(json.dumps(plan))
        with pytest.raises(StateError, match=field):
            resume_export(paper_generator, str(crashed), workers=1)
        assert not (crashed.parent / "escaped.json").exists()

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda line: line["blocks"][0].__setitem__("bytes", "12"), "byte count"),
            (lambda line: line.update(block_hi=line["block_lo"] + 2), "not a cell"),
        ],
    )
    def test_malformed_journal_line_raises_state_error(
        self, crashed, paper_generator, mutate, match
    ):
        log = crashed / DISTRIBUTED_LEASE_LOG
        first, second = log.read_text().splitlines()
        line = json.loads(first)
        mutate(line)
        log.write_text(json.dumps(line) + "\n" + second + "\n")
        with pytest.raises(StateError, match=match):
            resume_export(paper_generator, str(crashed), workers=1)

    def test_older_build_plan_is_refused_in_one_line(
        self, crashed, paper_generator, capsys
    ):
        """A version-1 ``FleetDistributedPlan``, as an older build wrote
        it, is refused by the API and by both CLI resume spellings."""
        from repro.cli import main

        plan_path = crashed / DISTRIBUTED_PLAN_NAME
        plan = json.loads(plan_path.read_text())
        plan.update(kind="FleetDistributedPlan", state_version=1)
        plan_path.write_text(json.dumps(plan))
        with pytest.raises(StateError, match="older build.*--force"):
            resume_export(paper_generator, str(crashed), workers=1)
        for backend in (["--backend", "distributed", "--workers", "1"], []):
            capsys.readouterr()
            argv = ["fleet", "export", "--out-dir", str(crashed), "--resume"]
            assert main(argv + backend) == 1
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and "Traceback" not in err
            assert "older build" in err and "--force" in err

    def test_resume_serialises_no_restored_lease(
        self, crashed, paper_generator, golden, monkeypatch
    ):
        """The journal is appended to, not rewritten: the coordinator
        serialises reducer state only for the leases it runs."""
        from repro.engine import ReducerSet

        calls = []
        to_state = ReducerSet.to_state

        def counting(self):
            calls.append(1)
            return to_state(self)

        monkeypatch.setattr(ReducerSet, "to_state", counting)
        result = resume_export(paper_generator, str(crashed), workers=2)
        assert result.resumed_leases == 2
        assert len(calls) == result.metrics["leases_run"] == 3
        self._assert_byte_identical(crashed, result, golden)

    def test_torn_tail_resume_second_crash_second_resume(
        self, crashed, paper_generator, golden
    ):
        """Torn tail, a resume whose coordinator is SIGKILLed too, a
        second resume: the torn line was cut back before the first resume
        appended, and the end state equals an uninterrupted run."""
        log = crashed / DISTRIBUTED_LEASE_LOG
        with open(log, "a") as handle:
            handle.write('{"block_lo": 4, "block_hi')  # torn mid-append
        proc = multiprocessing.get_context("fork").Process(
            target=_resume_crash_main, args=(str(crashed),)
        )
        proc.start()
        proc.join(180)
        assert proc.exitcode == -signal.SIGKILL
        lines, kept = _read_journal(str(log), "journal")
        assert len(lines) == 3 and kept == log.stat().st_size
        result = resume_export(paper_generator, str(crashed), workers=2)
        assert result.resumed_leases == 3
        self._assert_byte_identical(crashed, result, golden)

    def test_fresh_block_export_clears_the_distributed_run(
        self, crashed, paper_generator
    ):
        """A fresh block export over an interrupted distributed run leaves
        nothing of it: the directory reads as a completed export, and a
        resume cannot overwrite the manifest with another fleet's."""
        export_fleet_blocks(
            paper_generator, SEPT_2010, SIZE, SEED + 1, str(crashed),
            shards=1, checkpoint_every=2,
        )
        assert not (crashed / DISTRIBUTED_PLAN_NAME).exists()
        assert not (crashed / DISTRIBUTED_LEASE_LOG).exists()
        assert "completed export" in describe_export_dir(str(crashed))
        before = (crashed / "manifest.json").read_bytes()
        result = resume_export(paper_generator, str(crashed), workers=1)
        assert result.statistics is None
        assert (crashed / "manifest.json").read_bytes() == before

    def test_fresh_distributed_export_clears_the_block_run(
        self, tmp_path, paper_generator
    ):
        """The other direction: an interrupted block export's plan and
        journal do not survive a fresh distributed export."""
        activate(FaultPlan(faults=(
            FaultSpec(site="writer.block.done", kind="raise", after=3),
        )))
        try:
            with pytest.raises(FaultInjected):
                export_fleet_blocks(
                    paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                    shards=1, checkpoint_every=2,
                )
        finally:
            deactivate()
        assert (tmp_path / "checkpoint-0000.jsonl").exists()
        export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED + 1, str(tmp_path), workers=1
        )
        assert not (tmp_path / PLAN_NAME).exists()
        assert not list(tmp_path.glob("checkpoint-*"))
        assert "completed export" in describe_export_dir(str(tmp_path))
