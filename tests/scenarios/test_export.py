"""Scenario exports: byte-identity across layouts, shard counts, backends.

The acceptance bar for the scenario registry: every registered scenario
must produce byte-identical manifests (payload and fleet digests) whether
exported per-shard, per-block with checkpoints, after a crash/resume, or
through the distributed coordinator/worker backend.
"""

from __future__ import annotations

import pytest

from repro.engine import (
    export_fleet,
    export_fleet_blocks,
    export_fleet_distributed,
    resume_export,
    verify_manifest,
)
from repro.faults import FaultInjected, FaultPlan, FaultSpec, activate, deactivate
from repro.scenarios import get_scenario_spec, iter_scenario_specs

SEED = 20110611
WHEN = 2010.666
SIZE = 9000  # three RNG blocks


@pytest.fixture(scope="module", params=[s.key for s in iter_scenario_specs()])
def scenario_export(request, tmp_path_factory):
    """One per-shard export per registered scenario, shared by the tests."""
    spec = get_scenario_spec(request.param)
    out_dir = tmp_path_factory.mktemp(f"{spec.key}-shard1")
    manifest = export_fleet(
        spec.make_generator(), WHEN, SIZE, SEED + spec.seed_offset,
        str(out_dir), shards=1,
    )
    return spec, out_dir, manifest


class TestEveryScenarioExports:
    def test_manifest_verifies(self, scenario_export):
        _, out_dir, _ = scenario_export
        assert verify_manifest(str(out_dir / "manifest.json")).ok

    def test_segment_rows_match_the_schema_width(self, scenario_export):
        # segments are headerless so they concatenate byte-identically;
        # every row must carry exactly the schema's columns
        spec, out_dir, manifest = scenario_export
        lines = (out_dir / manifest.segments[0].path).read_text().splitlines()
        assert lines
        assert all(len(line.split(",")) == spec.schema.width for line in lines)

    def test_shard_count_does_not_change_the_bytes(
        self, scenario_export, tmp_path
    ):
        spec, _, single = scenario_export
        sharded = export_fleet(
            spec.make_generator(), WHEN, SIZE, SEED + spec.seed_offset,
            str(tmp_path), shards=2,
        )
        assert sharded.payload_sha256 == single.payload_sha256
        assert sharded.fleet_sha256 == single.fleet_sha256

    def test_block_layout_matches_the_shard_layout(
        self, scenario_export, tmp_path
    ):
        spec, _, single = scenario_export
        result = export_fleet_blocks(
            spec.make_generator(), WHEN, SIZE, SEED + spec.seed_offset,
            str(tmp_path), checkpoint_every=1, reducers=spec.profile(),
        )
        assert result.manifest.payload_sha256 == single.payload_sha256
        assert result.manifest.fleet_sha256 == single.fleet_sha256


class TestCrashResume:
    def test_resumed_export_is_byte_identical(self, tmp_path):
        spec = get_scenario_spec("availability")
        whole_dir, crash_dir = tmp_path / "whole", tmp_path / "crash"
        whole = export_fleet_blocks(
            spec.make_generator(), WHEN, SIZE, SEED, str(whole_dir),
            checkpoint_every=1, reducers=spec.profile(),
        )
        # die after the first block
        fault = FaultSpec(site="writer.block.done", kind="raise", after=1)
        activate(FaultPlan(faults=(fault,)))
        try:
            with pytest.raises(FaultInjected, match="injected fault"):
                export_fleet_blocks(
                    spec.make_generator(), WHEN, SIZE, SEED, str(crash_dir),
                    checkpoint_every=1, reducers=spec.profile(),
                )
        finally:
            deactivate()
        resumed = resume_export(
            spec.make_generator(), str(crash_dir), reducers=spec.profile()
        )
        assert resumed.resumed_blocks >= 1
        assert resumed.manifest.payload_sha256 == whole.manifest.payload_sha256
        assert resumed.manifest.fleet_sha256 == whole.manifest.fleet_sha256
        assert verify_manifest(str(crash_dir / "manifest.json")).ok


class TestDistributedBackend:
    def test_distributed_export_matches_local(self, tmp_path):
        spec = get_scenario_spec("lifetimes")
        local_dir, dist_dir = tmp_path / "local", tmp_path / "dist"
        local = export_fleet(
            spec.make_generator(), WHEN, SIZE, SEED, str(local_dir), shards=2
        )
        result = export_fleet_distributed(
            spec.make_generator(), WHEN, SIZE, SEED, str(dist_dir),
            workers=2, reducers=spec.profile(),
        )
        assert result.manifest.payload_sha256 == local.payload_sha256
        assert result.manifest.fleet_sha256 == local.fleet_sha256
        assert verify_manifest(str(dist_dir / "manifest.json")).ok
