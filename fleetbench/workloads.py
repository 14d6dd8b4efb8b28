"""The benchmark's four workloads: set-up, the timed call and its checks.

Every workload drives one public library entry point on a fleet made
from ``--seed``, with at most :data:`WORKERS` worker processes.  Set-up
computes the reference digests for that seed with the single-process
shard-layout :func:`~repro.engine.export_fleet`; every export a workload
times must reproduce its ``payload_sha256`` and ``fleet_sha256``.

``README.md`` beside this file says why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import shutil

from repro.core.generator import CorrelatedHostGenerator
from repro.engine import (
    block_count,
    export_fleet,
    export_fleet_blocks,
    export_fleet_distributed,
    generate_sharded,
    resume_export,
    shard_block_ranges,
    shutdown_pools,
)
from repro.engine.pool import get_pool
from repro.faults import FaultInjected, FaultPlan, FaultSpec, activate, deactivate
from repro.timeutil import parse_date, year_fraction

#: The date every fleet is generated for.
DATE = "2010-09-01"

#: Shards, pool processes and distributed workers (one per CPU of the
#: 2-CPU machine the benchmark was tuned on).
WORKERS = 2

#: Checkpoint cadence of the block-layout workloads, in blocks.
CHECKPOINT_EVERY = 8

#: Shared secret of the distributed workload (token auth armed, as a
#: deployment would run it).
TOKEN = "fleetbench"


class Workload:
    """One named workload; subclasses supply the timed call and checks."""

    name = ""
    #: Hosts in the fleet.  At this size every timed call takes 0.5 to
    #: 1 s on the 2-CPU machine, long enough to dwarf timer noise and
    #: short enough for about 20 calls in a 20 s run.
    size = 1_000_000
    #: Whether the timed call fans out over the persistent pool, so set-up
    #: spawns it.
    uses_pool = True
    #: Whether the timed call is a public writer function (export or
    #: resume); the trace then attributes its self time to the writer.
    writer_call = False

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self.when = year_fraction(parse_date(DATE))
        self.generator = None
        self.reference = None
        self.setup_dir = None
        self.reference_dir = None
        self._dirs = itertools.count()

    @property
    def blocks(self) -> int:
        return block_count(self.size)

    def fresh_dir(self, label: str) -> str:
        path = os.path.join(self.scratch, f"{label}-{next(self._dirs)}")
        os.makedirs(path)
        return path

    def setup(self) -> None:
        """Everything ``setup_s`` covers: a cold pool spawn, generator
        construction, the reference digests and :meth:`prepare`."""
        shutdown_pools()
        if self.uses_pool:
            get_pool(WORKERS)
        self.generator = CorrelatedHostGenerator()
        self.setup_dir = self.fresh_dir("setup")
        self.reference_dir = os.path.join(self.setup_dir, "reference")
        self.reference = export_fleet(
            self.generator, self.when, self.size, self.seed, self.reference_dir
        )
        self.prepare()

    def clear_setup(self) -> None:
        """Remove what the last set-up wrote (untimed, before the next)."""
        if self.setup_dir is not None:
            shutil.rmtree(self.setup_dir)
            self.setup_dir = None

    def prepare(self) -> None:
        """Workload-specific set-up beyond the reference digests."""

    def before_call(self, out_dir: str) -> None:
        """Untimed preparation of one call's input in ``out_dir``."""

    def call(self, out_dir: str):
        """The timed call."""
        raise NotImplementedError

    def check(self, result) -> "list[str]":
        """Problems with one call's output (empty when correct)."""
        manifest = result.manifest
        problems = []
        if manifest.payload_sha256 != self.reference.payload_sha256:
            problems.append("payload_sha256 differs from the reference export")
        if manifest.fleet_sha256 != self.reference.fleet_sha256:
            problems.append("fleet_sha256 differs from the reference export")
        return problems

    def verify_target(self, out_dir: str) -> str:
        """The manifest ``verify_mb_per_s`` re-hashes after the call."""
        return os.path.join(out_dir, "manifest.json")

    def written_segments(self, result) -> list:
        """Manifest segments the timed call wrote itself."""
        return list(result.manifest.segments)

    def expected_counts(self, result) -> "dict[str, int]":
        """Per-layer counters the trace of ``result`` must reproduce."""
        written = self.written_segments(result)
        # Block layouts hold one segment per RNG block: each written
        # segment is one generate call and one encode call.
        return {
            "core.generate_calls": len(written),
            "engine.csvfmt.encode_bytes": sum(record.bytes for record in written),
        }


class Summary(Workload):
    """``generate_sharded`` reduction over the pool; writes nothing."""

    name = "summary"

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.state_digest = None

    def call(self, out_dir: str):
        return generate_sharded(
            self.generator, self.when, self.size, self.seed,
            shards=WORKERS, quantiles=True,
        )

    def check(self, result) -> "list[str]":
        if result.moments.count != self.size:
            return [f"reduced {result.moments.count} hosts, not {self.size}"]
        state = json.dumps(result.reducers.to_state(), sort_keys=True)
        digest = hashlib.sha256(state.encode("utf-8")).hexdigest()
        if self.state_digest is None:
            self.state_digest = digest
        if digest != self.state_digest:
            return ["reducer-state digest differs from the first run's"]
        return []

    def verify_target(self, out_dir: str) -> str:
        # The timed call exports nothing; the read side is measured on
        # the set-up's shard-layout reference export instead.
        return os.path.join(self.reference_dir, "manifest.json")

    def written_segments(self, result) -> list:
        return []

    def expected_counts(self, result) -> "dict[str, int]":
        return {
            "core.generate_calls": self.blocks,
            "engine.csvfmt.encode_bytes": 0,
            "engine.distributed.frames_sent": 0,
            "stats.state.to_state_calls": 0,
        }


class ExportBlock(Workload):
    """Resumable block-layout CSV export over the pool, checkpointing."""

    name = "export-block"
    writer_call = True

    def call(self, out_dir: str):
        return export_fleet_blocks(
            self.generator, self.when, self.size, self.seed, out_dir,
            shards=WORKERS, checkpoint_every=CHECKPOINT_EVERY,
        )

    def expected_counts(self, result) -> "dict[str, int]":
        ranges = shard_block_ranges(self.blocks, WORKERS)
        checkpoints = sum(math.ceil((hi - lo) / CHECKPOINT_EVERY) for lo, hi in ranges)
        return {
            **super().expected_counts(result),
            # One extra to_state: export_fleet_blocks round-trips an empty
            # reducer set up front to prove the set can be checkpointed.
            "stats.state.to_state_calls": checkpoints + 1,
        }


class ExportDistributed(Workload):
    """Coordinator plus local socket workers, token auth, default leases."""

    name = "export-distributed"

    def call(self, out_dir: str):
        return export_fleet_distributed(
            self.generator, self.when, self.size, self.seed, out_dir,
            workers=WORKERS, token=TOKEN,
        )

    def check(self, result) -> "list[str]":
        problems = super().check(result)
        if result.metrics["leases_run"] != result.metrics["leases_total"]:
            problems.append("a fresh distributed export resumed leases")
        return problems

    def expected_counts(self, result) -> "dict[str, int]":
        if result.reassigned_leases:
            # A requeued or stolen lease is generated twice, so the exact
            # counts are unknown and go unchecked.
            return {}
        return {
            **super().expected_counts(result),
            # Each lease's reducer state is serialised twice: by its worker
            # for the result frame, by the coordinator for the lease journal.
            "stats.state.to_state_calls": 2 * result.metrics["leases_run"],
        }


class CrashResume(Workload):
    """``resume_export`` of a single-shard block export cut off halfway."""

    name = "crash-resume"
    uses_pool = False
    writer_call = True

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.interrupted = None
        # The fault fires after this many blocks; the interrupted run's
        # last checkpoint holds the blocks before the last multiple of
        # CHECKPOINT_EVERY, and resume regenerates the rest.
        self.fault_after = self.blocks // 2 + 3
        self.restored = self.fault_after // CHECKPOINT_EVERY * CHECKPOINT_EVERY

    def prepare(self) -> None:
        self.interrupted = os.path.join(self.setup_dir, "interrupted")
        activate(
            FaultPlan(
                faults=(
                    FaultSpec(
                        site="writer.block.done", kind="raise", after=self.fault_after
                    ),
                )
            )
        )
        try:
            export_fleet_blocks(
                self.generator, self.when, self.size, self.seed, self.interrupted,
                shards=1, checkpoint_every=CHECKPOINT_EVERY,
            )
        except FaultInjected:
            pass
        else:
            raise RuntimeError("the interrupting fault never fired")
        finally:
            deactivate()

    def before_call(self, out_dir: str) -> None:
        # Resume consumes its input, so each call gets a copy of the
        # interrupted export.
        shutil.copytree(self.interrupted, out_dir, dirs_exist_ok=True)

    def call(self, out_dir: str):
        return resume_export(self.generator, out_dir)

    def check(self, result) -> "list[str]":
        problems = super().check(result)
        if result.resumed_blocks != self.restored:
            problems.append(
                f"resumed {result.resumed_blocks} blocks, expected {self.restored}"
            )
        return problems

    def written_segments(self, result) -> list:
        return [
            record
            for record in result.manifest.segments
            if record.block_lo >= result.resumed_blocks
        ]

    def expected_counts(self, result) -> "dict[str, int]":
        checkpoints = sum(
            1
            for index in range(result.resumed_blocks, self.blocks)
            if (index + 1) % CHECKPOINT_EVERY == 0 or index + 1 == self.blocks
        )
        return {
            **super().expected_counts(result),
            "stats.state.to_state_calls": checkpoints,
        }


WORKLOADS = {
    workload.name: workload
    for workload in (Summary, ExportBlock, ExportDistributed, CrashResume)
}
