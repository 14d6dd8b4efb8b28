"""Tests for the columnar binary export (``--format npz-columnar``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    COLUMNAR_FORMAT,
    FleetManifest,
    export_fleet,
    generate_fleet,
    read_columnar_export,
    shutdown_pools,
    verify_manifest,
)
from repro.engine.csvfmt import encode_csv_rows
from repro.engine.writer import HOST_CSV_FMT, HOST_CSV_HEADER
from repro.hosts.population import RESOURCE_LABELS

SEPT_2010 = 2010.667
SIZE = 9000
SEED = 11


@pytest.fixture(scope="module", autouse=True)
def _shutdown_after_module():
    yield
    shutdown_pools()


@pytest.fixture(scope="module")
def columnar_export(tmp_path_factory, paper_generator):
    out = tmp_path_factory.mktemp("columnar")
    manifest = export_fleet(
        paper_generator,
        SEPT_2010,
        SIZE,
        SEED,
        str(out),
        shards=2,
        fmt=COLUMNAR_FORMAT,
    )
    return out, manifest


class TestColumnarExport:
    def test_manifest_shape(self, columnar_export):
        _, manifest = columnar_export
        assert manifest.format == COLUMNAR_FORMAT
        assert manifest.layout == "columnar"
        assert manifest.header == HOST_CSV_HEADER
        assert len(manifest.segments) == len(RESOURCE_LABELS)
        for index, (segment, label) in enumerate(
            zip(manifest.segments, RESOURCE_LABELS)
        ):
            assert segment.path == f"column-{index}-{label}.npy"
            assert segment.shard == index
            assert (segment.row_lo, segment.row_hi) == (0, SIZE)

    def test_verify_roundtrip(self, columnar_export):
        out, _ = columnar_export
        report = verify_manifest(str(out / "manifest.json"))
        assert report.ok, report.problems
        assert report.segments_checked == len(RESOURCE_LABELS)

    def test_verify_detects_corruption(self, columnar_export, tmp_path):
        out, manifest = columnar_export
        scratch = tmp_path / "corrupt"
        scratch.mkdir()
        for segment in manifest.segments:
            (scratch / segment.path).write_bytes((out / segment.path).read_bytes())
        (scratch / "manifest.json").write_bytes((out / "manifest.json").read_bytes())
        victim = scratch / manifest.segments[2].path
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        report = verify_manifest(str(scratch / "manifest.json"))
        assert not report.ok
        assert any(manifest.segments[2].path in p for p in report.problems)

    def test_columns_equal_generated_fleet(self, columnar_export, paper_generator):
        out, _ = columnar_export
        manifest, columns = read_columnar_export(str(out / "manifest.json"))
        assert manifest.size == SIZE
        fleet = generate_fleet(paper_generator, SEPT_2010, SIZE, SEED)
        for label in RESOURCE_LABELS:
            np.testing.assert_array_equal(columns[label], fleet.column(label))

    def test_fleet_sha_matches_csv_export(
        self, columnar_export, paper_generator, tmp_path
    ):
        _, manifest = columnar_export
        csv_manifest = export_fleet(
            paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path / "csv"), shards=2
        )
        assert manifest.fleet_sha256 == csv_manifest.fleet_sha256
        assert manifest.payload_sha256 != csv_manifest.payload_sha256

    def test_payload_sha_is_shard_invariant(
        self, columnar_export, paper_generator, tmp_path
    ):
        _, manifest = columnar_export
        single = export_fleet(
            paper_generator,
            SEPT_2010,
            SIZE,
            SEED,
            str(tmp_path / "one"),
            shards=1,
            fmt=COLUMNAR_FORMAT,
        )
        assert single.payload_sha256 == manifest.payload_sha256
        assert single.fleet_sha256 == manifest.fleet_sha256

    def test_decoded_columns_render_the_csv_bytes(
        self, columnar_export, paper_generator, tmp_path
    ):
        out, _ = columnar_export
        _, columns = read_columnar_export(str(out / "manifest.json"))
        matrix = np.column_stack([columns[label] for label in RESOURCE_LABELS])
        csv_manifest = export_fleet(
            paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path / "csv2"), shards=1
        )
        body = b"".join(
            (tmp_path / "csv2" / seg.path).read_bytes()
            for seg in csv_manifest.segments
        )
        assert not body.startswith(HOST_CSV_HEADER.encode())  # rows only
        assert encode_csv_rows(matrix, HOST_CSV_FMT) == body


class _FailsOnSecondBlock:
    """Delegates to a real generator and raises on its second block (in
    each process, so every pool worker with two blocks raises too)."""

    def __init__(self, generator):
        self.generator = generator
        self.calls = 0

    def generate(self, when, n, rng):
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("generator failed on its second block")
        return self.generator.generate(when, n, rng)


class TestColumnarEdges:
    @pytest.mark.parametrize(
        "size, shards",
        [(0, 1), (0, 2), (4097, 3)],
        ids=["empty", "empty-2-shards", "more-shards-than-blocks"],
    )
    def test_round_trip(self, paper_generator, tmp_path, size, shards):
        out = tmp_path / "columnar"
        manifest = export_fleet(
            paper_generator, SEPT_2010, size, SEED, str(out),
            shards=shards, fmt=COLUMNAR_FORMAT,
        )
        assert manifest.shards == min(shards, max(1, -(-size // 4096)))
        report = verify_manifest(str(out / "manifest.json"))
        assert report.ok, report.problems
        decoded, columns = read_columnar_export(str(out / "manifest.json"))
        assert decoded == manifest
        fleet = generate_fleet(paper_generator, SEPT_2010, size, SEED)
        for label in RESOURCE_LABELS:
            assert columns[label].shape == (size,)
            np.testing.assert_array_equal(columns[label], fleet.column(label))

    @pytest.mark.parametrize("shards", [1, 2])
    def test_failed_export_leaves_no_column_files(
        self, paper_generator, tmp_path, shards
    ):
        out = tmp_path / "failed"
        with pytest.raises(RuntimeError, match="second block"):
            export_fleet(
                _FailsOnSecondBlock(paper_generator), SEPT_2010, 5 * 4096, SEED,
                str(out), shards=shards, fmt=COLUMNAR_FORMAT,
            )
        assert sorted(path.name for path in out.iterdir()) == []

    def test_column_digests_leave_no_thread(self, paper_generator, tmp_path):
        """The parent reads the column files once, the payload digest on a
        helper thread that is joined before the manifest is written."""
        import hashlib
        import threading

        before = threading.active_count()
        manifest = export_fleet(
            paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path), fmt=COLUMNAR_FORMAT
        )
        assert threading.active_count() == before
        files = [(tmp_path / segment.path).read_bytes() for segment in manifest.segments]
        assert [segment.sha256 for segment in manifest.segments] == [
            hashlib.sha256(data).hexdigest() for data in files
        ]
        assert manifest.payload_sha256 == hashlib.sha256(b"".join(files)).hexdigest()

    def test_read_error_in_the_digest_pass_fails_the_export(
        self, paper_generator, tmp_path, monkeypatch
    ):
        import builtins
        import threading

        import repro.engine.writer as writer

        def failing_open(path, mode="r", *args, **kwargs):
            if str(path).endswith("-whetstone.npy"):
                raise OSError(5, "injected read error")
            return builtins.open(path, mode, *args, **kwargs)

        monkeypatch.setattr(writer, "open", failing_open, raising=False)
        before = threading.active_count()
        with pytest.raises(OSError, match="injected read error"):
            export_fleet(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                fmt=COLUMNAR_FORMAT,
            )
        assert threading.active_count() == before
        assert sorted(path.name for path in tmp_path.iterdir()) == []


class TestColumnarRejections:
    def test_reader_rejects_row_layout_manifest(self, paper_generator, tmp_path):
        export_fleet(
            paper_generator, SEPT_2010, 100, SEED, str(tmp_path / "csv"), shards=1
        )
        with pytest.raises(ValueError, match="not 'npz-columnar'"):
            read_columnar_export(str(tmp_path / "csv" / "manifest.json"))

    def test_reader_rejects_renamed_column(self, paper_generator, tmp_path):
        out = tmp_path / "renamed"
        export_fleet(
            paper_generator,
            SEPT_2010,
            100,
            SEED,
            str(out),
            shards=1,
            fmt=COLUMNAR_FORMAT,
        )
        import dataclasses

        manifest = FleetManifest.load(str(out / "manifest.json"))
        segments = list(manifest.segments)
        segments[0] = dataclasses.replace(segments[0], path="column-0-bogus.npy")
        (out / manifest.segments[0].path).rename(out / "column-0-bogus.npy")
        dataclasses.replace(manifest, segments=tuple(segments)).save(
            str(out / "manifest.json")
        )
        with pytest.raises(ValueError, match="expected file for column"):
            read_columnar_export(str(out / "manifest.json"))

    def test_reader_rejects_a_reordered_scenario_header(self, tmp_path):
        """The header names the columns: a scenario export whose manifest
        header was reordered no longer matches its column files."""
        import dataclasses

        from repro.scenarios import AvailabilityScenarioGenerator

        out = tmp_path / "reordered"
        manifest = export_fleet(
            AvailabilityScenarioGenerator(), SEPT_2010, 100, SEED, str(out),
            fmt=COLUMNAR_FORMAT,
        )
        _, columns = read_columnar_export(str(out / "manifest.json"))
        assert list(columns) == ["fraction", "on_hours", "off_hours", "duty_cycle"]
        dataclasses.replace(
            manifest, header="on_hours,fraction,off_hours,duty_cycle\n"
        ).save(str(out / "manifest.json"))
        with pytest.raises(ValueError):
            read_columnar_export(str(out / "manifest.json"))
