"""Tests for the sharded fleet writer and its verifiable manifest."""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from repro.engine import (
    FleetManifest,
    export_fleet,
    fleet_digest,
    generate_fleet,
    shard_block_ranges,
    verify_manifest,
)
from repro.engine.writer import HOST_CSV_HEADER
from repro.hosts.population import RESOURCE_LABELS

SEPT_2010 = 2010.667
SEED = 20110611
SIZE = 20_000


def _concatenate_segments(out_dir: str, manifest: FleetManifest) -> bytes:
    payload = b""
    for segment in manifest.segments:
        with open(os.path.join(out_dir, segment.path), "rb") as handle:
            payload += handle.read()
    return payload


class TestShardRanges:
    def test_partition_is_contiguous_and_complete(self):
        ranges = shard_block_ranges(10, 4)
        assert ranges == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_more_shards_than_blocks_collapses(self):
        assert shard_block_ranges(2, 8) == [(0, 1), (1, 2)]

    def test_zero_blocks(self):
        assert shard_block_ranges(0, 3) == [(0, 0)]

    def test_invalid_shards_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            shard_block_ranges(4, 0)


class TestCsvExport:
    @pytest.fixture(scope="class")
    def export_dir(self, tmp_path_factory, paper_generator):
        out = tmp_path_factory.mktemp("export")
        manifest = export_fleet(
            paper_generator, SEPT_2010, SIZE, SEED, str(out), shards=4
        )
        return out, manifest

    def test_manifest_and_segments_on_disk(self, export_dir):
        out, manifest = export_dir
        assert (out / "manifest.json").exists()
        assert len(manifest.segments) == 4
        for segment in manifest.segments:
            assert (out / segment.path).exists()

    def test_row_ranges_cover_fleet(self, export_dir):
        _, manifest = export_dir
        assert manifest.segments[0].row_lo == 0
        assert manifest.segments[-1].row_hi == SIZE
        for previous, current in zip(manifest.segments, manifest.segments[1:]):
            assert current.row_lo == previous.row_hi

    def test_verify_roundtrip(self, export_dir):
        out, _ = export_dir
        report = verify_manifest(str(out / "manifest.json"))
        assert report.ok
        assert report.segments_checked == 4
        assert "OK" in report.format_lines()[0]

    def test_concatenation_matches_single_process_export(
        self, export_dir, paper_generator, tmp_path
    ):
        out, manifest = export_dir
        single = export_fleet(
            paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path / "single"), shards=1
        )
        assert manifest.payload_sha256 == single.payload_sha256
        assert manifest.fleet_sha256 == single.fleet_sha256
        sharded_bytes = _concatenate_segments(str(out), manifest)
        single_bytes = _concatenate_segments(str(tmp_path / "single"), single)
        assert sharded_bytes == single_bytes

    def test_fleet_digest_matches_streaming_contract(self, export_dir, paper_generator):
        _, manifest = export_dir
        assert manifest.fleet_sha256 == fleet_digest(
            paper_generator, SEPT_2010, SIZE, SEED
        )

    def test_row_payload_parses_back_to_the_fleet(self, export_dir, paper_generator):
        out, manifest = export_dir
        text = HOST_CSV_HEADER + _concatenate_segments(str(out), manifest).decode()
        rows = text.strip().splitlines()
        assert len(rows) == SIZE + 1
        parsed = np.loadtxt(rows[1:], delimiter=",")
        fleet = generate_fleet(paper_generator, SEPT_2010, SIZE, SEED)
        np.testing.assert_allclose(parsed[:, 0], fleet.cores)
        np.testing.assert_allclose(parsed[:, 4], np.round(fleet.disk_gb, 2))

    def test_manifest_json_roundtrip(self, export_dir):
        out, manifest = export_dir
        loaded = FleetManifest.load(str(out / "manifest.json"))
        assert loaded == manifest

    def test_tampered_segment_detected(self, paper_generator, tmp_path):
        out = tmp_path / "tamper"
        manifest = export_fleet(
            paper_generator, SEPT_2010, 5_000, SEED, str(out), shards=2
        )
        target = out / manifest.segments[1].path
        data = target.read_bytes()
        target.write_bytes(b"9" + data[1:])
        report = verify_manifest(str(out / "manifest.json"))
        assert not report.ok
        assert any("sha256 mismatch" in problem for problem in report.problems)

    def test_truncated_segment_reported_with_path_and_sizes(
        self, paper_generator, tmp_path
    ):
        """A partial file names the segment and the byte counts, not just a hash."""
        out = tmp_path / "trunc"
        manifest = export_fleet(
            paper_generator, SEPT_2010, 5_000, SEED, str(out), shards=2
        )
        target = out / manifest.segments[1].path
        data = target.read_bytes()
        target.write_bytes(data[: len(data) // 2])
        report = verify_manifest(str(out / "manifest.json"))
        assert not report.ok
        assert report.segments_checked == 2
        [problem] = report.problems
        assert manifest.segments[1].path in problem
        assert "truncated" in problem
        assert f"{len(data) // 2} of {len(data)}" in problem

    def test_empty_segment_reported_as_truncated(self, paper_generator, tmp_path):
        out = tmp_path / "empty"
        manifest = export_fleet(
            paper_generator, SEPT_2010, 5_000, SEED, str(out), shards=2
        )
        (out / manifest.segments[0].path).write_bytes(b"")
        report = verify_manifest(str(out / "manifest.json"))
        assert not report.ok
        assert any(
            "truncated" in problem and manifest.segments[0].path in problem
            for problem in report.problems
        )

    def test_grown_segment_reported_as_oversized(self, paper_generator, tmp_path):
        out = tmp_path / "grown"
        manifest = export_fleet(
            paper_generator, SEPT_2010, 5_000, SEED, str(out), shards=2
        )
        target = out / manifest.segments[0].path
        target.write_bytes(target.read_bytes() + b"extra\n")
        report = verify_manifest(str(out / "manifest.json"))
        assert not report.ok
        assert any("oversized" in problem for problem in report.problems)

    def test_legacy_manifest_without_bytes_still_verifies(
        self, paper_generator, tmp_path
    ):
        """Pre-bytes manifests (bytes=-1) skip the size check but hash fine."""
        out = tmp_path / "legacy"
        export_fleet(paper_generator, SEPT_2010, 5_000, SEED, str(out), shards=1)
        manifest_path = out / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        for segment in payload["segments"]:
            del segment["bytes"]
        manifest_path.write_text(json.dumps(payload))
        assert verify_manifest(str(manifest_path)).ok

    def test_unreadable_manifest_is_a_clean_failure(self, tmp_path):
        report = verify_manifest(str(tmp_path / "nope.json"))
        assert not report.ok
        assert any("cannot read" in problem for problem in report.problems)

    def test_malformed_manifest_is_a_clean_failure(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{ not json at all")
        report = verify_manifest(str(path))
        assert not report.ok
        path.write_text(json.dumps({"version": 1, "nonsense": True}))
        report = verify_manifest(str(path))
        assert not report.ok
        assert any("malformed" in problem for problem in report.problems)

    def test_missing_segment_detected(self, paper_generator, tmp_path):
        out = tmp_path / "missing"
        manifest = export_fleet(
            paper_generator, SEPT_2010, 5_000, SEED, str(out), shards=2
        )
        (out / manifest.segments[0].path).unlink()
        report = verify_manifest(str(out / "manifest.json"))
        assert not report.ok
        assert any("missing" in problem for problem in report.problems)

    def test_unsupported_manifest_version_rejected(self, paper_generator, tmp_path):
        out = tmp_path / "future"
        export_fleet(paper_generator, SEPT_2010, 5_000, SEED, str(out), shards=1)
        manifest_path = out / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        payload["version"] = 999
        manifest_path.write_text(json.dumps(payload))
        report = verify_manifest(str(manifest_path))
        assert not report.ok
        assert any("version" in problem for problem in report.problems)

    def test_manifest_records_determinism_inputs(self, export_dir):
        _, manifest = export_dir
        assert manifest.size == SIZE
        assert manifest.entropy == str(SEED)
        assert manifest.block_size == 4096
        payload = json.loads(manifest.to_json())
        assert payload["version"] == 1
        assert payload["format"] == "csv"


class TestHashPasses:
    """sha256 input bytes per payload byte of one-shard exports, which run
    in this process: as many passes as the format needs."""

    @pytest.fixture
    def hashed(self, monkeypatch):
        import types

        import repro.engine.writer as writer

        counted = [0]

        def sha256(data=b""):
            digest = hashlib.sha256()

            class Counting:
                def update(self, piece):
                    counted[0] += len(piece)
                    digest.update(piece)

                def hexdigest(self):
                    return digest.hexdigest()

            counting = Counting()
            counting.update(data)
            return counting

        monkeypatch.setattr(writer, "hashlib", types.SimpleNamespace(sha256=sha256))
        return counted

    @staticmethod
    def _passes(counted, manifest) -> float:
        return counted[0] / sum(segment.bytes for segment in manifest.segments)

    def test_shard_layout_hashes_the_payload_once(
        self, hashed, paper_generator, tmp_path
    ):
        manifest = export_fleet(paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path))
        assert self._passes(hashed, manifest) == 1.0

    def test_block_layout_hashes_its_entries_and_the_payload(
        self, hashed, paper_generator, paper_params, tmp_path
    ):
        from repro.engine import export_fleet_blocks

        result = export_fleet_blocks(
            paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path), checkpoint_every=2
        )
        hashed[0] -= len(paper_params.to_json())  # the plan's fingerprint
        assert self._passes(hashed, result.manifest) == 2.0


class TestNpzExport:
    """Row-segment npz is retired: exports refuse it, while npz exports an
    older build wrote still verify (compact_export refuses them, see
    test_resume)."""

    @staticmethod
    def _older_build_npz_export(generator, out, layout="shard"):
        """An npz export as an older build wrote it: one zip of column
        arrays and a format-"npz" manifest with no header."""
        from repro.engine import RNG_BLOCK_SIZE, SegmentRecord

        size = 5_000
        fleet = generate_fleet(generator, SEPT_2010, size, SEED)
        out.mkdir()
        name = "segment-0000.npz" if layout == "shard" else "block-000000.npz"
        columns = {label: fleet.column(label) for label in RESOURCE_LABELS}
        with open(out / name, "wb") as handle:
            np.savez(handle, **columns)
        data = (out / name).read_bytes()
        sha = hashlib.sha256(data).hexdigest()
        blocks = -(-size // RNG_BLOCK_SIZE)
        FleetManifest(
            version=1, format="npz", size=size, when=SEPT_2010,
            entropy=str(SEED), spawn_key=(), shards=1, block_size=RNG_BLOCK_SIZE,
            header="", payload_sha256=sha,
            fleet_sha256=fleet_digest(generator, SEPT_2010, size, SEED),
            segments=(
                SegmentRecord(
                    path=name, shard=0, block_lo=0, block_hi=blocks, row_lo=0,
                    row_hi=size, sha256=sha, bytes=len(data),
                ),
            ),
            layout=layout,
        ).save(str(out / "manifest.json"))
        return out / "manifest.json"

    def test_older_build_npz_export_still_verifies(
        self, paper_generator, tmp_path, capsys
    ):
        from repro.cli import main

        manifest = self._older_build_npz_export(paper_generator, tmp_path / "npz")
        assert verify_manifest(str(manifest)).ok
        assert main(["fleet", "verify", str(manifest)]) == 0
        assert "1 segment(s) verified: OK" in capsys.readouterr().out

    def test_older_build_npz_block_export_is_not_compacted(
        self, paper_generator, tmp_path
    ):
        from repro.engine import compact_export

        manifest = self._older_build_npz_export(
            paper_generator, tmp_path / "npz", layout="block"
        )
        with pytest.raises(ValueError, match="only csv block exports"):
            compact_export(str(manifest), str(tmp_path / "out"))

    @pytest.mark.parametrize("fmt", ["parquet", "npz"])
    def test_unknown_format_rejected(self, paper_generator, tmp_path, fmt):
        with pytest.raises(ValueError, match=f"unknown segment format '{fmt}'"):
            export_fleet(
                paper_generator, SEPT_2010, 100, SEED, str(tmp_path), fmt=fmt
            )
        assert not list(tmp_path.iterdir())
