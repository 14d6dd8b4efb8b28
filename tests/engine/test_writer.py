"""Tests for the sharded fleet writer and its verifiable manifest."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
import time

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
        lock = threading.Lock()  # verify updates from two threads

        def sha256(data=b""):
            digest = hashlib.sha256()

            class Counting:
                def update(self, piece):
                    with lock:
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

    def test_verify_hashes_a_one_segment_export_once(
        self, hashed, paper_generator, tmp_path
    ):
        """A one-file concatenation is the file: one digest is both."""
        manifest = export_fleet(paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path))
        hashed[0] = 0
        assert verify_manifest(str(tmp_path / "manifest.json")).ok
        assert self._passes(hashed, manifest) == 1.0

    def test_verify_hashes_a_many_segment_export_twice(
        self, hashed, paper_generator, tmp_path
    ):
        from repro.engine import export_fleet_blocks

        result = export_fleet_blocks(
            paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path), checkpoint_every=0
        )
        assert len(result.manifest.segments) == 5
        hashed[0] = 0
        assert verify_manifest(str(tmp_path / "manifest.json")).ok
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


# -- verify: one digest pass, the same reports -------------------------------

PARITY_SIZE = 5_000  # two RNG blocks


def _parity_export(kind: str, generator, out) -> None:
    """Write one of the verify-parity fixture exports into ``out``."""
    from repro.engine import COLUMNAR_FORMAT, export_fleet_blocks

    if kind == "npz":
        TestNpzExport._older_build_npz_export(generator, out)
    elif kind == "block":
        export_fleet_blocks(
            generator, SEPT_2010, PARITY_SIZE, SEED, str(out), checkpoint_every=1
        )
    elif kind == "empty":
        export_fleet_blocks(generator, SEPT_2010, 0, SEED, str(out))
    else:
        export_fleet(
            generator, SEPT_2010, PARITY_SIZE, SEED, str(out),
            shards=2 if kind == "two" else 1,
            fmt=COLUMNAR_FORMAT if kind == "columnar" else "csv",
        )
    if kind == "legacy":
        manifest_path = out / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        for segment in payload["segments"]:
            del segment["bytes"]
        manifest_path.write_text(json.dumps(payload))


def _flip(path) -> None:
    """Flip one bit in the middle of a file, keeping its size."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))


def _truncate(path) -> None:
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _corrupt(out, corruption: str) -> None:
    """Apply one named corruption to the export in ``out``."""
    manifest_path = out / "manifest.json"
    payload = json.loads(manifest_path.read_text())
    paths = [out / segment["path"] for segment in payload["segments"]]
    if corruption == "missing":
        paths[-1].unlink()
    elif corruption == "truncated":
        _truncate(paths[-1])
    elif corruption == "oversized":
        paths[-1].write_bytes(paths[-1].read_bytes() + b"0\n")
    elif corruption == "flipped":
        _flip(paths[-1])
    elif corruption == "flipped-first-truncated-last":
        _flip(paths[0])
        _truncate(paths[-1])
    elif corruption == "reordered":
        payload["segments"].reverse()
    elif corruption == "payload":
        payload["payload_sha256"] = "0" * 64
    manifest_path.write_text(json.dumps(payload))


#: ``verify_manifest``'s report for each fixture export and corruption:
#: ``(ok, segments_checked, problems)``, problems in segment order.  CSV
#: bytes are pinned by the goldens, so their lines are literal; columnar
#: and npz bytes come from numpy's ``.npy`` and zip writers, so their
#: digest prefixes are filled in from the files (``{recorded}``,
#: ``{actual}``).
VERIFY_PINS = {
    ("one", "intact"): (True, 1, ()),
    ("one", "missing"): (False, 0, ("segment segment-0000.csv is missing",)),
    ("one", "truncated"): (False, 1, (
        "segment segment-0000.csv is truncated: 72422 of 144844 expected bytes",
    )),
    ("one", "oversized"): (False, 1, (
        "segment segment-0000.csv is oversized: 144846 of 144844 expected bytes",
    )),
    ("one", "flipped"): (False, 1, (
        "segment segment-0000.csv sha256 mismatch "
        "(expected 79b20ff9b7f0…, got d274d4e37f49…)",
    )),
    ("one", "payload"): (False, 1, ("concatenated payload sha256 mismatch",)),
    ("two", "intact"): (True, 2, ()),
    ("two", "missing"): (False, 1, ("segment segment-0001.csv is missing",)),
    ("two", "truncated"): (False, 2, (
        "segment segment-0001.csv is truncated: 13100 of 26200 expected bytes",
    )),
    ("two", "oversized"): (False, 2, (
        "segment segment-0001.csv is oversized: 26202 of 26200 expected bytes",
    )),
    ("two", "flipped"): (False, 2, (
        "segment segment-0001.csv sha256 mismatch "
        "(expected 349b3e6866b1…, got 916430135c6c…)",
    )),
    ("two", "flipped-first-truncated-last"): (False, 2, (
        "segment segment-0000.csv sha256 mismatch "
        "(expected 56823923b63f…, got c7746c93d82e…)",
        "segment segment-0001.csv is truncated: 13100 of 26200 expected bytes",
    )),
    ("two", "reordered"): (False, 2, ("concatenated payload sha256 mismatch",)),
    ("two", "payload"): (False, 2, ("concatenated payload sha256 mismatch",)),
    ("block", "intact"): (True, 2, ()),
    ("block", "missing"): (False, 1, ("segment block-000001.csv is missing",)),
    ("block", "truncated"): (False, 2, (
        "segment block-000001.csv is truncated: 13100 of 26200 expected bytes",
    )),
    ("block", "oversized"): (False, 2, (
        "segment block-000001.csv is oversized: 26202 of 26200 expected bytes",
    )),
    ("block", "flipped"): (False, 2, (
        "segment block-000001.csv sha256 mismatch "
        "(expected 349b3e6866b1…, got 916430135c6c…)",
    )),
    ("block", "flipped-first-truncated-last"): (False, 2, (
        "segment block-000000.csv sha256 mismatch "
        "(expected 56823923b63f…, got c7746c93d82e…)",
        "segment block-000001.csv is truncated: 13100 of 26200 expected bytes",
    )),
    ("block", "reordered"): (False, 2, ("concatenated payload sha256 mismatch",)),
    ("block", "payload"): (False, 2, ("concatenated payload sha256 mismatch",)),
    ("columnar", "intact"): (True, 5, ()),
    ("columnar", "missing"): (False, 4, ("segment column-4-disk_gb.npy is missing",)),
    ("columnar", "truncated"): (False, 5, (
        "segment column-4-disk_gb.npy is truncated: 20064 of 40128 expected bytes",
    )),
    ("columnar", "oversized"): (False, 5, (
        "segment column-4-disk_gb.npy is oversized: 40130 of 40128 expected bytes",
    )),
    ("columnar", "flipped"): (False, 5, (
        "segment column-4-disk_gb.npy sha256 mismatch "
        "(expected {recorded}…, got {actual}…)",
    )),
    ("columnar", "flipped-first-truncated-last"): (False, 5, (
        "segment column-0-cores.npy sha256 mismatch "
        "(expected {recorded}…, got {actual}…)",
        "segment column-4-disk_gb.npy is truncated: 20064 of 40128 expected bytes",
    )),
    ("columnar", "reordered"): (False, 5, ("concatenated payload sha256 mismatch",)),
    ("columnar", "payload"): (False, 5, ("concatenated payload sha256 mismatch",)),
    ("npz", "intact"): (True, 1, ()),
    ("npz", "missing"): (False, 0, ("segment segment-0000.npz is missing",)),
    ("npz", "truncated"): (False, 1, (
        "segment segment-0000.npz is truncated: {half} of {size} expected bytes",
    )),
    ("npz", "oversized"): (False, 1, (
        "segment segment-0000.npz is oversized: {grown} of {size} expected bytes",
    )),
    ("npz", "flipped"): (False, 1, (
        "segment segment-0000.npz sha256 mismatch "
        "(expected {recorded}…, got {actual}…)",
    )),
    ("npz", "payload"): (False, 1, ("concatenated payload sha256 mismatch",)),
    ("legacy", "intact"): (True, 1, ()),
    ("legacy", "truncated"): (False, 1, (
        "segment segment-0000.csv sha256 mismatch "
        "(expected 79b20ff9b7f0…, got 54956b974b30…)",
    )),
    ("legacy", "oversized"): (False, 1, (
        "segment segment-0000.csv sha256 mismatch "
        "(expected 79b20ff9b7f0…, got fa2a152556c9…)",
    )),
    ("legacy", "flipped"): (False, 1, (
        "segment segment-0000.csv sha256 mismatch "
        "(expected 79b20ff9b7f0…, got d274d4e37f49…)",
    )),
    ("legacy", "payload"): (False, 1, ("concatenated payload sha256 mismatch",)),
    ("empty", "intact"): (True, 0, ()),
    ("empty", "payload"): (False, 0, ("concatenated payload sha256 mismatch",)),
}


@pytest.fixture(scope="module")
def parity_export(tmp_path_factory, paper_generator):
    """``parity_export(kind)``: the directory of one fixture export, built
    once per module."""
    root = tmp_path_factory.mktemp("parity")
    built: "dict[str, object]" = {}

    def build(kind: str):
        if kind not in built:
            _parity_export(kind, paper_generator, root / kind)
            built[kind] = root / kind
        return built[kind]

    return build


class TestVerifyParity:
    """``verify_manifest`` reads each file once: a one-segment export in
    one pass, a larger one with the segment and payload digests on two
    threads.  Its reports stay the two-digest reports pinned here, and no
    thread outlives a call."""

    @pytest.mark.parametrize("kind, corruption", list(VERIFY_PINS))
    def test_report_is_pinned(self, parity_export, tmp_path, kind, corruption):
        out = tmp_path / "export"
        shutil.copytree(parity_export(kind), out)
        manifest_path = out / "manifest.json"
        segments = json.loads(manifest_path.read_text())["segments"]
        _corrupt(out, corruption)
        fill = {}
        if segments:
            flipped = segments[0 if corruption.startswith("flipped-first") else -1]
            size = flipped.get("bytes", -1)
            fill = {
                "recorded": flipped["sha256"][:12],
                "size": size,
                "half": size // 2,
                "grown": size + 2,
            }
            if (out / flipped["path"]).exists():
                data = (out / flipped["path"]).read_bytes()
                fill["actual"] = hashlib.sha256(data).hexdigest()[:12]
        ok, checked, problems = VERIFY_PINS[kind, corruption]
        before = threading.active_count()
        report = verify_manifest(str(manifest_path))
        assert threading.active_count() == before
        assert report.ok is ok
        assert report.segments_checked == checked
        assert report.problems == tuple(problem.format(**fill) for problem in problems)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_read_error_propagates_and_leaves_no_thread(
        self, paper_generator, tmp_path, monkeypatch, shards
    ):
        """An OSError mid-read surfaces from either branch, after the
        payload thread (if any) is joined."""
        import builtins

        import repro.engine.writer as writer

        export_fleet(
            paper_generator, SEPT_2010, PARITY_SIZE, SEED, str(tmp_path), shards=shards
        )
        reads = [0]

        class FailingSecondRead:
            def __init__(self, handle):
                self._handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._handle.close()

            def read(self, size=-1):
                reads[0] += 1
                if reads[0] == 2:
                    raise OSError(5, "injected read error")
                return self._handle.read(size)

        def failing_open(path, mode="r", *args, **kwargs):
            return FailingSecondRead(builtins.open(path, mode, *args, **kwargs))

        monkeypatch.setattr(writer, "open", failing_open, raising=False)
        before = threading.active_count()
        with pytest.raises(OSError, match="injected read error"):
            verify_manifest(str(tmp_path / "manifest.json"))
        assert reads[0] == 2
        assert threading.active_count() == before


class TestDigestFiles:
    """``_digest_files`` against hashlib: each file's digest and the digest
    of their concatenation."""

    @pytest.mark.parametrize(
        "sizes", [[], [0], [(2 << 20) + 5], [5, 0, (1 << 20) + 7, 3, 4 << 20]]
    )
    def test_digests_equal_hashlib(self, tmp_path, sizes):
        from repro.engine.writer import _digest_files

        rng = np.random.default_rng(1)
        blobs = [rng.bytes(size) for size in sizes]
        paths = []
        for index, blob in enumerate(blobs):
            path = tmp_path / f"file-{index}"
            path.write_bytes(blob)
            paths.append(str(path))
        before = threading.active_count()
        digests, payload = _digest_files(paths)
        assert threading.active_count() == before
        assert digests == [hashlib.sha256(blob).hexdigest() for blob in blobs]
        assert payload == hashlib.sha256(b"".join(blobs)).hexdigest()

    def test_a_failing_payload_thread_raises_in_the_caller(
        self, tmp_path, monkeypatch
    ):
        """More pieces than the queue holds: the failed helper keeps
        draining, so the reader finishes and the error surfaces."""
        import types

        import repro.engine.writer as writer

        paths = []
        for index in range(3):
            path = tmp_path / f"file-{index}"
            path.write_bytes(bytes(2 << 20))
            paths.append(str(path))
        caller = threading.current_thread()

        class PayloadThreadFails:
            def __init__(self):
                self._digest = hashlib.sha256()

            def update(self, piece):
                if threading.current_thread() is not caller:
                    raise RuntimeError("payload thread failed")
                self._digest.update(piece)

            def hexdigest(self):
                return self._digest.hexdigest()

        monkeypatch.setattr(
            writer, "hashlib", types.SimpleNamespace(sha256=PayloadThreadFails)
        )
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="payload thread failed"):
            writer._digest_files(paths)
        assert threading.active_count() == before


def _within_a_second(call):
    """``call()``'s result; fails if it is still running after one second."""
    result = []
    worker = threading.Thread(target=lambda: result.append(call()), daemon=True)
    worker.start()
    worker.join(timeout=1.0)
    assert not worker.is_alive(), "still running after 1 s"
    return result[0]


class TestSegmentPathRule:
    """A manifest may come from elsewhere: verify and compact read only
    regular files named in the manifest's directory."""

    CASES = ["absolute", "parent", "directory", "device"]

    @staticmethod
    def _aim(out, segment, case) -> str:
        """Point ``segment`` (a manifest entry) out of bounds; return the
        problem verify must report."""
        target = out / segment["path"]
        outside = out.parent / "outside.csv"
        outside.write_bytes(target.read_bytes())
        if case == "absolute":
            segment["path"] = str(outside)
        elif case == "parent":
            segment["path"] = "../outside.csv"
        else:
            target.unlink()
            if case == "directory":
                target.mkdir()
            else:
                target.symlink_to("/dev/zero")
            return f"segment {segment['path']} is not a regular file"
        return f"segment {segment['path']!r} is not a file name in the export directory"

    @pytest.mark.parametrize("case", CASES)
    def test_verify_is_one_problem_line_and_exit_1(
        self, paper_generator, tmp_path, capsys, case
    ):
        from repro.cli import main

        if case == "device" and not os.path.exists("/dev/zero"):
            pytest.skip("no /dev/zero")
        out = tmp_path / "export"
        export_fleet(paper_generator, SEPT_2010, PARITY_SIZE, SEED, str(out))
        manifest_path = out / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        [segment] = payload["segments"]
        del segment["bytes"]  # a legacy manifest: no size check before a read
        problem = self._aim(out, segment, case)
        manifest_path.write_text(json.dumps(payload))
        code = _within_a_second(lambda: main(["fleet", "verify", str(manifest_path)]))
        assert code == 1
        assert capsys.readouterr().out.splitlines() == [
            "0 segment(s) checked", f"FAIL: {problem}"
        ]

    @pytest.mark.parametrize("case", ["absolute", "parent", "directory"])
    def test_compact_raises_its_value_error(self, paper_generator, tmp_path, case):
        from repro.engine import compact_export, export_fleet_blocks

        out = tmp_path / "blocks"
        export_fleet_blocks(
            paper_generator, SEPT_2010, PARITY_SIZE, SEED, str(out), checkpoint_every=1
        )
        manifest_path = out / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        problem = self._aim(out, payload["segments"][0], case)
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as raised:
            compact_export(str(manifest_path), str(tmp_path / "compact"))
        assert str(raised.value) == problem
