"""Crash-injection tests for the resumable block-layout fleet export.

The contract under test: an export interrupted after *k* blocks and then
resumed produces a manifest, a CSV payload concatenation and reduced
statistics **identical** to an uninterrupted run of the same parameters.
Interruption is injected three ways — a fault plan on the writer's
``writer.block.done`` site, a monkeypatched block writer that dies
mid-file (leaving a truncated segment behind), and a real ``SIGKILL`` of
a CLI subprocess.  Checkpoints live in one append-only journal per shard
(``checkpoint-SSSS.jsonl``); the corruption cases edit its lines.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro.engine.writer as writer
from repro.engine import (
    StateError,
    compact_export,
    export_fleet,
    export_fleet_blocks,
    fleet_digest,
    resume_export,
    verify_manifest,
)
from repro.faults import FaultInjected, FaultPlan, FaultSpec, activate, deactivate
from repro.timeutil import parse_date, year_fraction

SEPT_2010 = 2010.667
SEED = 20110611
SIZE = 20_000  # five RNG blocks
CHECKPOINT_EVERY = 2


@contextlib.contextmanager
def _interrupted_after(blocks: int):
    """Expect the export inside to die of the plan
    ``writer.block.done:kind=raise,after=BLOCKS``: every shard worker
    raises after writing its ``blocks``-th block."""
    spec = FaultSpec(site="writer.block.done", kind="raise", after=blocks)
    activate(FaultPlan(faults=(spec,)))
    try:
        with pytest.raises(FaultInjected, match="injected fault"):
            yield
    finally:
        deactivate()


def _journal(out_dir, shard: int = 0):
    return out_dir / f"checkpoint-{shard:04d}.jsonl"


def _journal_lines(path) -> "list[dict]":
    return [json.loads(line) for line in path.read_text().splitlines()]


def _rewrite_journal_line(path, index: int, mutate) -> None:
    """Apply ``mutate`` to one parsed journal line and write it back."""
    lines = path.read_text().splitlines()
    entry = json.loads(lines[index])
    mutate(entry)
    lines[index] = json.dumps(entry)
    path.write_text("".join(line + "\n" for line in lines))


def _payload_bytes(out_dir, manifest) -> bytes:
    payload = b""
    for segment in manifest.segments:
        with open(os.path.join(str(out_dir), segment.path), "rb") as handle:
            payload += handle.read()
    return payload


def _assert_identical_runs(golden_dir, golden, resumed_dir, resumed) -> None:
    """Manifest JSON, payload bytes and statistics must match exactly."""
    assert resumed.manifest.to_json() == golden.manifest.to_json()
    assert _payload_bytes(resumed_dir, resumed.manifest) == _payload_bytes(
        golden_dir, golden.manifest
    )
    golden_stats, resumed_stats = golden.statistics, resumed.statistics
    assert resumed_stats.moments.means() == golden_stats.moments.means()
    assert resumed_stats.moments.stds() == golden_stats.moments.stds()
    np.testing.assert_array_equal(
        resumed_stats.correlation.matrix().values,
        golden_stats.correlation.matrix().values,
    )
    if golden_stats.quantiles is not None:
        assert resumed_stats.medians() == golden_stats.medians()
        assert (
            resumed_stats.quantiles.to_state() == golden_stats.quantiles.to_state()
        )


@pytest.fixture(scope="module")
def golden(tmp_path_factory, paper_generator):
    """The uninterrupted reference run every crash variant must reproduce."""
    out = tmp_path_factory.mktemp("golden")
    result = export_fleet_blocks(
        paper_generator,
        SEPT_2010,
        SIZE,
        SEED,
        str(out),
        shards=1,
        checkpoint_every=CHECKPOINT_EVERY,
        quantiles=True,
    )
    return out, result


class TestInjectedFault:
    @pytest.mark.parametrize("fault_after", [1, 3, 4])
    def test_interrupt_then_resume_equals_uninterrupted(
        self, fault_after, tmp_path, paper_generator, golden
    ):
        """Kill after k blocks (before/after/on a checkpoint boundary)."""
        golden_dir, golden_result = golden
        out = tmp_path / "interrupted"
        with _interrupted_after(fault_after):
            export_fleet_blocks(
                paper_generator,
                SEPT_2010,
                SIZE,
                SEED,
                str(out),
                shards=1,
                checkpoint_every=CHECKPOINT_EVERY,
                quantiles=True,
            )
        assert (out / writer.PLAN_NAME).exists()
        assert not (out / "manifest.json").exists()
        resumed = resume_export(paper_generator, str(out), quantiles=True)
        expected_restored = (fault_after // CHECKPOINT_EVERY) * CHECKPOINT_EVERY
        assert resumed.resumed_blocks == expected_restored
        assert verify_manifest(str(out / "manifest.json")).ok
        assert not (out / writer.PLAN_NAME).exists()
        _assert_identical_runs(golden_dir, golden_result, out, resumed)

    def test_multiprocess_interrupt_then_resume(self, tmp_path, paper_generator):
        golden_dir = tmp_path / "golden2"
        golden_result = export_fleet_blocks(
            paper_generator, SEPT_2010, SIZE, SEED, str(golden_dir),
            shards=2, checkpoint_every=1, quantiles=True,
        )
        out = tmp_path / "interrupted2"
        with _interrupted_after(1):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(out),
                shards=2, checkpoint_every=1, quantiles=True,
            )
        resumed = resume_export(paper_generator, str(out), quantiles=True)
        assert resumed.resumed_blocks >= 1
        _assert_identical_runs(golden_dir, golden_result, out, resumed)

    def test_fleet_digest_survives_resume(self, golden, paper_generator):
        _, golden_result = golden
        assert golden_result.manifest.fleet_sha256 == fleet_digest(
            paper_generator, SEPT_2010, SIZE, SEED
        )


class TestMonkeypatchedWriterFault:
    def test_truncated_block_beyond_checkpoint_is_rewritten(
        self, tmp_path, paper_generator, golden
    ):
        """Die mid-write, leaving a corrupt segment the checkpoint never saw."""
        golden_dir, golden_result = golden
        out = tmp_path / "torn"
        real = writer._write_block_file

        with pytest.MonkeyPatch.context() as patch:
            calls = {"n": 0}

            def torn_write(out_dir, index, data):
                if calls["n"] == 3:
                    path = os.path.join(out_dir, f"block-{index:06d}.csv")
                    with open(path, "wb") as handle:
                        handle.write(b"torn mid-write")
                    raise OSError("disk vanished")
                calls["n"] += 1
                return real(out_dir, index, data)

            patch.setattr(writer, "_write_block_file", torn_write)
            with pytest.raises(OSError, match="disk vanished"):
                export_fleet_blocks(
                    paper_generator,
                    SEPT_2010,
                    SIZE,
                    SEED,
                    str(out),
                    shards=1,
                    checkpoint_every=CHECKPOINT_EVERY,
                    quantiles=True,
                )
        # the torn file is on disk but absent from any checkpoint
        assert (out / "block-000003.csv").read_bytes() == b"torn mid-write"
        resumed = resume_export(paper_generator, str(out), quantiles=True)
        assert resumed.resumed_blocks == 2
        _assert_identical_runs(golden_dir, golden_result, out, resumed)

    def test_checkpointed_block_tampered_on_disk_is_regenerated(
        self, tmp_path, paper_generator, golden
    ):
        """Corruption of an already-checkpointed block file heals on resume."""
        golden_dir, golden_result = golden
        out = tmp_path / "tampered"
        with _interrupted_after(3):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(out),
                shards=1, checkpoint_every=CHECKPOINT_EVERY, quantiles=True,
            )
        target = out / "block-000000.csv"
        target.write_bytes(b"flipped" + target.read_bytes()[7:])
        resumed = resume_export(paper_generator, str(out), quantiles=True)
        assert verify_manifest(str(out / "manifest.json")).ok
        _assert_identical_runs(golden_dir, golden_result, out, resumed)


class TestResumeRejections:
    def test_nothing_to_resume(self, tmp_path, paper_generator):
        with pytest.raises(StateError, match="nothing to resume"):
            resume_export(paper_generator, str(tmp_path))

    def test_corrupt_finalised_manifest_rejected(self, tmp_path, paper_generator):
        """The already-finalised branch maps read errors to StateError too."""
        (tmp_path / "manifest.json").write_text("{ not json")
        with pytest.raises(StateError, match="cannot read"):
            resume_export(paper_generator, str(tmp_path))

    def test_corrupt_plan_rejected(self, tmp_path, paper_generator):
        (tmp_path / writer.PLAN_NAME).write_text("{ not json")
        with pytest.raises(StateError, match="cannot read"):
            resume_export(paper_generator, str(tmp_path))

    def test_wrong_plan_version_rejected(self, tmp_path, paper_generator):
        with _interrupted_after(1):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                shards=1, checkpoint_every=1,
            )
        plan_path = tmp_path / writer.PLAN_NAME
        plan = json.loads(plan_path.read_text())
        plan["state_version"] = 999
        plan_path.write_text(json.dumps(plan))
        with pytest.raises(StateError, match="state_version"):
            resume_export(paper_generator, str(tmp_path))

    def test_corrupt_checkpoint_rejected(self, tmp_path, paper_generator):
        with _interrupted_after(2):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                shards=1, checkpoint_every=1,
            )
        _rewrite_journal_line(
            _journal(tmp_path), -1, lambda line: line.__setitem__("block_hi", 999)
        )
        with pytest.raises(StateError, match="checkpoint"):
            resume_export(paper_generator, str(tmp_path))

    def test_generator_parameter_mismatch_rejected(self, tmp_path, paper_generator):
        """Resuming with different model parameters must not splice fleets."""
        import dataclasses

        from repro.core.generator import CorrelatedHostGenerator
        from repro.core.laws import ExponentialLaw
        from repro.core.parameters import ModelParameters

        with _interrupted_after(2):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                shards=1, checkpoint_every=1,
            )
        other_params = dataclasses.replace(
            ModelParameters.paper_reference(),
            disk_mean=ExponentialLaw(99.0, 0.1, r=0.5),
        )
        with pytest.raises(StateError, match="parameter"):
            resume_export(CorrelatedHostGenerator(other_params), str(tmp_path))
        # the matching generator still resumes fine afterwards
        resumed = resume_export(paper_generator, str(tmp_path))
        assert verify_manifest(str(tmp_path / "manifest.json")).ok
        assert resumed.resumed_blocks == 2

    @pytest.mark.parametrize("cap, other", [(None, 2048.0), (2048.0, None)])
    def test_percore_cap_mismatch_rejected(self, tmp_path, cap, other):
        """Two host generators that differ only in their per-core-memory
        cap are two fleets: neither resumes the other's export."""
        from repro.core.generator import CorrelatedHostGenerator

        with _interrupted_after(3):
            export_fleet_blocks(
                CorrelatedHostGenerator(percore_max_mb=cap), SEPT_2010, SIZE,
                7, str(tmp_path), shards=1, checkpoint_every=1,
            )
        with pytest.raises(StateError, match="do not match the interrupted export"):
            resume_export(CorrelatedHostGenerator(percore_max_mb=other), str(tmp_path))
        resumed = resume_export(CorrelatedHostGenerator(percore_max_mb=cap), str(tmp_path))
        whole = export_fleet(
            CorrelatedHostGenerator(percore_max_mb=cap), SEPT_2010, SIZE, 7,
            str(tmp_path / "whole"),
        )
        assert resumed.manifest.payload_sha256 == whole.payload_sha256

    def test_default_plan_fingerprint_is_the_parameter_json(
        self, tmp_path, paper_generator, paper_params
    ):
        """A default-cap host plan pins the sha256 of the parameter JSON,
        the bytes older builds pinned."""
        import hashlib

        with _interrupted_after(1):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                shards=1, checkpoint_every=1,
            )
        plan = json.loads((tmp_path / writer.PLAN_NAME).read_text())
        assert plan["generator_sha256"] == hashlib.sha256(
            paper_params.to_json().encode("utf-8")
        ).hexdigest()
        assert plan["generator_sha256"] == (
            "718488b15942411106a4ba82936a7831dc81ab0e4336dad0995b59912c422c0d"
        )

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda plan: plan.__setitem__("size", "9000"), "size"),
            (lambda plan: plan.__setitem__("format", "parquet"), "format"),
            (lambda plan: plan.__setitem__("when", "sept"), "when"),
            (lambda plan: plan.__setitem__("manifest_name", "../evil.json"), "manifest_name"),
        ],
    )
    def test_corrupt_plan_fields_raise_state_error(
        self, tmp_path, paper_generator, mutate, match
    ):
        """Every plan corruption mode is a StateError, never a raw TypeError."""
        with _interrupted_after(1):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                shards=1, checkpoint_every=1,
            )
        plan_path = tmp_path / writer.PLAN_NAME
        plan = json.loads(plan_path.read_text())
        mutate(plan)
        plan_path.write_text(json.dumps(plan))
        with pytest.raises(StateError, match=match):
            resume_export(paper_generator, str(tmp_path))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda checkpoint: checkpoint.pop("reducers"),
            lambda checkpoint: checkpoint["blocks"][0].__setitem__(
                "digest", "zz-not-hex"
            ),
            lambda checkpoint: checkpoint["blocks"][0].pop("sha256"),
            # an entry's file name derives from its index, so a path-like
            # index cannot point a record outside the export
            lambda checkpoint: checkpoint["blocks"][0].__setitem__(
                "index", "../outside.csv"
            ),
            # duplicated record: block 0 listed twice (and block 1 dropped)
            # must not splice a wrong-but-verifiable fleet together
            lambda checkpoint: checkpoint["blocks"].__setitem__(
                1, checkpoint["blocks"][0]
            ),
            # shuffled records are equally invalid
            lambda checkpoint: checkpoint["blocks"].reverse(),
        ],
    )
    def test_corrupt_checkpoint_fields_raise_state_error(
        self, tmp_path, paper_generator, mutate
    ):
        # One journal line carrying two records, so the duplicate and
        # shuffle cases have something to reorder.
        with _interrupted_after(2):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                shards=1, checkpoint_every=2,
            )
        assert len(_journal_lines(_journal(tmp_path))) == 1
        _rewrite_journal_line(_journal(tmp_path), 0, mutate)
        with pytest.raises(StateError, match="checkpoint"):
            resume_export(paper_generator, str(tmp_path))

    def test_reducer_mismatch_rejected(self, tmp_path, paper_generator):
        with _interrupted_after(1):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                shards=1, checkpoint_every=1, quantiles=True,
            )
        with pytest.raises(StateError, match="reducer"):
            resume_export(paper_generator, str(tmp_path), quantiles=False)

    @pytest.mark.parametrize(
        "forged",
        [{"digest": "ab" * 32, "sha256": "cd" * 32}, {"sha256": "cd" * 32},
         {"bytes": 12}],
        ids=["digest", "sha256", "bytes"],
    )
    def test_non_reproducing_generator_fails_on_torn_block(
        self, tmp_path, paper_generator, forged
    ):
        """A torn checkpointed file + a fleet that no longer reproduces it
        must fail fast, not finish with a self-contradictory manifest.

        (Simulates resuming in an environment whose RNG stream differs;
        here the recorded entry is forged instead.)  A heal must reproduce
        the whole journalled entry, so matching rows with a different file
        digest or size fail too.
        """
        with _interrupted_after(2):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                shards=1, checkpoint_every=1,
            )
        # tear block 0 on disk and forge its checkpointed entry so the
        # (correct) regeneration cannot match it
        (tmp_path / "block-000000.csv").write_bytes(b"torn")
        _rewrite_journal_line(
            _journal(tmp_path), 0, lambda line: line["blocks"][0].update(forged)
        )
        with pytest.raises(StateError, match="does not reproduce"):
            resume_export(paper_generator, str(tmp_path))

    def test_unrestorable_reducer_set_fails_before_exporting(
        self, tmp_path, paper_generator
    ):
        """Checkpoints that could never be restored must be refused upfront."""
        import numpy as np

        from repro.engine import HistogramReducer

        factories = {
            "hist": lambda: HistogramReducer(
                "disk_gb", [0.0, 10.0, 100.0, 1000.0], transform=np.log10
            )
        }
        with pytest.raises(ValueError, match="cannot be checkpointed"):
            export_fleet_blocks(
                paper_generator, SEPT_2010, 5_000, SEED, str(tmp_path),
                shards=1, checkpoint_every=1, reducers=factories,
            )
        assert not (tmp_path / "block-000000.csv").exists()
        # without checkpoints the same set exports fine (nothing to restore)
        result = export_fleet_blocks(
            paper_generator, SEPT_2010, 5_000, SEED, str(tmp_path),
            shards=1, checkpoint_every=0, reducers=factories,
        )
        assert verify_manifest(str(tmp_path / "manifest.json")).ok
        assert result.statistics.reducers["hist"].count == 5_000

    def test_resume_of_finished_export_is_noop(self, tmp_path, paper_generator):
        export_fleet_blocks(
            paper_generator, SEPT_2010, 5_000, SEED, str(tmp_path),
            shards=1, checkpoint_every=1,
        )
        before = (tmp_path / "manifest.json").read_text()
        result = resume_export(paper_generator, str(tmp_path))
        assert result.statistics is None and result.resumed_blocks == 0
        assert (tmp_path / "manifest.json").read_text() == before


class TestDistributedOnlyFlags:
    """A block plan's resume refuses the transport flags it would drop,
    before any block is regenerated, and a plain resume still finishes."""

    @pytest.mark.parametrize(
        "keyword, value, flag, cli_value",
        [
            ("metrics_path", "metrics.json", "--metrics", None),
            ("connect", [("127.0.0.1", 9)], "--connect", "127.0.0.1:9"),
            ("lease_depth", 3, "--lease-depth", "3"),
            ("worker_timeout", 5.0, None, None),  # no CLI flag
            ("token", "secret", "--token-file", "fleet.token"),
        ],
        ids=["metrics", "connect", "lease-depth", "worker-timeout", "token"],
    )
    def test_block_resume_refuses_then_finishes(
        self, tmp_path, paper_generator, golden, capsys, keyword, value, flag,
        cli_value,
    ):
        from repro.cli import main

        golden_dir, golden_result = golden
        out = tmp_path / "blk"
        with _interrupted_after(3):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(out),
                shards=1, checkpoint_every=CHECKPOINT_EVERY, quantiles=True,
            )
        if keyword == "metrics_path":
            value = cli_value = str(tmp_path / value)
        elif keyword == "token":
            cli_value = str(tmp_path / cli_value)
            (tmp_path / "fleet.token").write_text(value + "\n")
        before = {path.name: path.read_bytes() for path in out.iterdir()}

        with pytest.raises(StateError, match=keyword):
            resume_export(paper_generator, str(out), quantiles=True, **{keyword: value})
        if flag is not None:
            capsys.readouterr()
            argv = ["fleet", "export", "--resume", "--out-dir", str(out), flag, cli_value]
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and "Traceback" not in err
            assert err.startswith("fleet export --resume: ") and flag in err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        assert not (tmp_path / "metrics.json").exists()

        resumed = resume_export(paper_generator, str(out), quantiles=True)
        _assert_identical_runs(golden_dir, golden_result, out, resumed)


class TestJournal:
    """The append-only checkpoint journal: one line per checkpoint."""

    @staticmethod
    def _interrupt(generator, out, fault_after, checkpoint_every=CHECKPOINT_EVERY):
        with _interrupted_after(fault_after):
            export_fleet_blocks(
                generator, SEPT_2010, SIZE, SEED, str(out),
                shards=1, checkpoint_every=checkpoint_every, quantiles=True,
            )

    def test_torn_tail_is_dropped(self, tmp_path, paper_generator, golden):
        golden_dir, golden_result = golden
        out = tmp_path / "torn-tail"
        self._interrupt(paper_generator, out, 4)
        journal = _journal(out)
        data = journal.read_bytes()
        assert len(_journal_lines(journal)) == 2
        journal.write_bytes(data[:-40])  # the second line, torn mid-append
        resumed = resume_export(paper_generator, str(out), quantiles=True)
        assert resumed.resumed_blocks == CHECKPOINT_EVERY
        _assert_identical_runs(golden_dir, golden_result, out, resumed)

    def test_torn_checkpoint_append_keeps_earlier_lines(
        self, tmp_path, paper_generator, golden, monkeypatch
    ):
        """A torn write at ``writer.checkpoint.write`` tears only the line
        being appended; resume restores the lines before it."""
        import repro.faults.injector as injector

        class Killed(BaseException):
            pass

        def _no_kill():
            raise Killed

        golden_dir, golden_result = golden
        out = tmp_path / "torn-append"
        monkeypatch.setattr(injector, "_sigkill", _no_kill)
        spec = FaultSpec(site="writer.checkpoint.write", kind="torn-write", after=2)
        activate(FaultPlan(faults=(spec,)))
        try:
            with pytest.raises(Killed):
                export_fleet_blocks(
                    paper_generator, SEPT_2010, SIZE, SEED, str(out),
                    shards=1, checkpoint_every=CHECKPOINT_EVERY, quantiles=True,
                )
        finally:
            deactivate()
        data = _journal(out).read_bytes()
        first, torn = data.split(b"\n")
        assert json.loads(first)["block_hi"] == CHECKPOINT_EVERY and torn
        resumed = resume_export(paper_generator, str(out), quantiles=True)
        assert resumed.resumed_blocks == CHECKPOINT_EVERY
        _assert_identical_runs(golden_dir, golden_result, out, resumed)

    def test_malformed_earlier_line_raises(self, tmp_path, paper_generator):
        out = tmp_path / "malformed"
        self._interrupt(paper_generator, out, 4)
        journal = _journal(out)
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text('{"broken\n' + lines[1])
        with pytest.raises(StateError, match="line 1 .* not valid JSON"):
            resume_export(paper_generator, str(out), quantiles=True)

    @pytest.mark.parametrize("recount", [False, True])
    def test_line_that_skips_a_block_raises(
        self, tmp_path, paper_generator, recount
    ):
        """Dropping a middle line leaves a gap; with the line's block
        range rewritten to hide it, its first entry still betrays it."""
        out = tmp_path / "gap"
        self._interrupt(paper_generator, out, 3, checkpoint_every=1)
        journal = _journal(out)
        lines = journal.read_text().splitlines(keepends=True)
        assert len(lines) == 3
        journal.write_text(lines[0] + lines[2])
        if recount:
            _rewrite_journal_line(
                journal, 1, lambda line: line.update(block_lo=1, block_hi=2)
            )
        match = "is not block 1" if recount else "not the next cell"
        with pytest.raises(StateError, match=match):
            resume_export(paper_generator, str(out), quantiles=True)

    def test_line_off_a_checkpoint_boundary_raises(self, tmp_path, paper_generator):
        """Reducer state is only restorable at the run's checkpoint
        boundaries; a line ending elsewhere would double-fold a block."""
        out = tmp_path / "off-boundary"
        self._interrupt(paper_generator, out, 4)

        def drop_last_block(line):
            line["blocks"].pop()
            line["block_hi"] -= 1

        _rewrite_journal_line(_journal(out), -1, drop_last_block)
        with pytest.raises(StateError, match="not the next cell of the plan's grid"):
            resume_export(paper_generator, str(out), quantiles=True)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_torn_tail_resume_second_crash_second_resume(
        self, tmp_path, paper_generator, shards
    ):
        """Torn tail, resume, a second crash, a second resume: the end
        state equals an uninterrupted run."""
        size = 12 * writer.RNG_BLOCK_SIZE  # six blocks per shard at shards=2
        options = dict(shards=shards, checkpoint_every=2, quantiles=True)
        golden_dir = tmp_path / "golden"
        golden_result = export_fleet_blocks(
            paper_generator, SEPT_2010, size, SEED, str(golden_dir), **options
        )
        out = tmp_path / "crashed"
        with _interrupted_after(3):
            export_fleet_blocks(
                paper_generator, SEPT_2010, size, SEED, str(out), **options
            )
        journals = [_journal(out, shard) for shard in range(shards)]
        for journal in journals:
            data = journal.read_bytes()
            assert data.count(b"\n") == 1
            journal.write_bytes(data + data[: len(data) // 2])  # torn append
        with _interrupted_after(3):
            resume_export(paper_generator, str(out), quantiles=True)
        for journal in journals:
            # The torn tail was cut away before the resumed run appended.
            lines, kept = writer._read_journal(str(journal), "journal")
            first = lines[0]["block_lo"]
            assert [line["block_hi"] - first for line in lines] == [2, 4]
            assert kept == journal.stat().st_size
        resumed = resume_export(paper_generator, str(out), quantiles=True)
        assert resumed.resumed_blocks == 4 * shards
        assert verify_manifest(str(out / "manifest.json")).ok
        assert not any(journal.exists() for journal in journals)
        _assert_identical_runs(golden_dir, golden_result, out, resumed)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_each_line_carries_only_its_new_records(
        self, tmp_path, paper_generator, shards
    ):
        """Checkpoint cost is linear: every line holds exactly
        ``checkpoint_every`` new records (a shard's last line the rest),
        and no record is written twice."""
        out = tmp_path / "lines"
        size = 20 * writer.RNG_BLOCK_SIZE
        every = 3
        # The manifest write fails after every block is checkpointed, so
        # the journals survive for inspection.
        activate(FaultPlan(faults=(
            FaultSpec(site="writer.manifest.write", kind="io-error"),
        )))
        try:
            with pytest.raises(OSError, match="injected io-error"):
                export_fleet_blocks(
                    paper_generator, SEPT_2010, size, SEED, str(out),
                    shards=shards, checkpoint_every=every,
                )
        finally:
            deactivate()
        for shard, (lo, hi) in enumerate(writer.shard_block_ranges(20, shards)):
            lines = _journal_lines(_journal(out, shard))
            counts = [len(line["blocks"]) for line in lines]
            full, rest = divmod(hi - lo, every)
            assert counts == [every] * full + ([rest] if rest else [])
            blocks = [entry["index"] for line in lines for entry in line["blocks"]]
            assert blocks == list(range(lo, hi))
            assert [(line["block_lo"], line["block_hi"]) for line in lines] == [
                (start, min(start + every, hi)) for start in range(lo, hi, every)
            ]
        resumed = resume_export(paper_generator, str(out))
        assert resumed.resumed_blocks == 20
        assert verify_manifest(str(out / "manifest.json")).ok


class TestFreshRunsAndOldExports:
    def test_fresh_export_removes_every_stale_checkpoint(
        self, tmp_path, paper_generator, golden
    ):
        """Journals and version-1 checkpoints of any shard count go, so a
        re-export never appends to another run's journal."""
        golden_dir, golden_result = golden
        out = tmp_path / "reused"
        out.mkdir()
        stale = {
            "checkpoint-0000.jsonl": '{"kind":"FleetShardCheckpoint"}\n',
            "checkpoint-0003.jsonl": "{}\n",
            "checkpoint-0000.json": "{}",
            "checkpoint-0001.json": "{}",
            "checkpoint-0000.json.tmp": "{",
        }
        for name, text in stale.items():
            (out / name).write_text(text)
        (out / "notes.txt").write_text("not ours")
        with _interrupted_after(3):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(out),
                shards=1, checkpoint_every=CHECKPOINT_EVERY, quantiles=True,
            )
        checkpoints = sorted(p.name for p in out.glob("checkpoint-*"))
        assert checkpoints == ["checkpoint-0000.jsonl"]
        assert (out / "notes.txt").exists()
        lines = _journal_lines(_journal(out))
        assert [line["block_hi"] for line in lines] == [CHECKPOINT_EVERY]
        resumed = resume_export(paper_generator, str(out), quantiles=True)
        _assert_identical_runs(golden_dir, golden_result, out, resumed)

    def test_shard_export_clears_an_interrupted_run(self, tmp_path, paper_generator):
        """A shard-layout export over an interrupted block export leaves
        no plan behind for a later resume to finish over its manifest."""
        with _interrupted_after(3):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                shards=1, checkpoint_every=CHECKPOINT_EVERY,
            )
        export_fleet(paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path), shards=2)
        assert not (tmp_path / writer.PLAN_NAME).exists()
        assert not list(tmp_path.glob("checkpoint-*"))
        assert "completed export" in writer.describe_export_dir(str(tmp_path))
        before = (tmp_path / "manifest.json").read_bytes()
        assert resume_export(paper_generator, str(tmp_path)).statistics is None
        assert (tmp_path / "manifest.json").read_bytes() == before

    def _older_build_partial_export(self, out, paper_generator):
        """A partial export as a version-1 build left it: plan v1 and a
        rewritten ``checkpoint-0000.json``."""
        with _interrupted_after(2):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(out),
                shards=1, checkpoint_every=1,
            )
        plan_path = out / writer.PLAN_NAME
        plan = json.loads(plan_path.read_text())
        plan["state_version"] = 1
        plan_path.write_text(json.dumps(plan, indent=2))
        _journal(out).unlink()
        (out / "checkpoint-0000.json").write_text(
            json.dumps({"kind": "FleetShardCheckpoint", "state_version": 1})
        )

    def test_older_build_partial_export_is_refused(self, tmp_path, paper_generator):
        self._older_build_partial_export(tmp_path, paper_generator)
        with pytest.raises(StateError, match="older build.*--force"):
            resume_export(paper_generator, str(tmp_path))

    def test_cli_resume_of_older_build_exits_1_with_one_line(
        self, tmp_path, paper_generator, capsys
    ):
        from repro.cli import main

        self._older_build_partial_export(tmp_path, paper_generator)
        capsys.readouterr()
        assert main(["fleet", "export", "--resume", "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert "older build" in err and "--force" in err
        # --force starts over and leaves no version-1 checkpoint behind.
        assert main(["fleet", "export", "--size", str(SIZE), "--out-dir",
                     str(tmp_path), "--checkpoint-every", "2", "--force"]) == 0
        assert not list(tmp_path.glob("checkpoint-*"))
        assert verify_manifest(str(tmp_path / "manifest.json")).ok

    def test_npz_partial_export_is_refused(self, tmp_path, paper_generator, capsys):
        """An older build's row-segment npz block export (plan format
        "npz") cannot be resumed: the API and the CLI refuse it in one
        line naming --force."""
        from repro.cli import main

        with _interrupted_after(2):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                shards=1, checkpoint_every=1,
            )
        plan_path = tmp_path / writer.PLAN_NAME
        plan = json.loads(plan_path.read_text())
        plan["format"] = "npz"
        plan_path.write_text(json.dumps(plan, indent=2))
        with pytest.raises(StateError, match="'npz'.*--force"):
            resume_export(paper_generator, str(tmp_path))
        capsys.readouterr()
        assert main(["fleet", "export", "--resume", "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("fleet export --resume: ") and "--force" in err
        assert not (tmp_path / "manifest.json").exists()

    def test_version_2_partial_export_is_refused(
        self, tmp_path, paper_generator, capsys
    ):
        """A version-2 block plan (the journal's previous line shape) is
        an older build's too: refused by the API and by the CLI in one
        line naming --force."""
        from repro.cli import main

        with _interrupted_after(2):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                shards=1, checkpoint_every=1,
            )
        plan_path = tmp_path / writer.PLAN_NAME
        plan = json.loads(plan_path.read_text())
        plan["state_version"] = 2
        plan_path.write_text(json.dumps(plan, indent=2))
        with pytest.raises(StateError, match="older build.*--force"):
            resume_export(paper_generator, str(tmp_path))
        capsys.readouterr()
        assert main(["fleet", "export", "--resume", "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert "older build" in err and "--force" in err


class TestMalformedJournalEntries:
    """Every malformed journal entry is a typed one-line CLI failure."""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda line: line["blocks"][0].__setitem__("bytes", "12"),
            lambda line: line["blocks"][0].__setitem__("bytes", None),
            lambda line: line["blocks"][0].__setitem__("sha256", "ab12"),
            lambda line: line["blocks"][0].__setitem__("sha256", "zz" * 32),
            lambda line: line["blocks"][0].__setitem__("digest", "ab12"),
            lambda line: line["blocks"][0].__setitem__("digest", "zz" * 32),
            lambda line: line["blocks"][1].__setitem__("index", 0),
            lambda line: line.update(block_lo=1, block_hi=3),
        ],
        ids=[
            "bytes-string", "bytes-null", "sha256-short", "sha256-not-hex",
            "digest-short", "digest-not-hex", "index-not-next", "not-a-cell",
        ],
    )
    def test_cli_resume_exits_1_with_one_line(
        self, tmp_path, paper_generator, capsys, mutate
    ):
        from repro.cli import main

        with _interrupted_after(2):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                shards=1, checkpoint_every=2,
            )
        _rewrite_journal_line(_journal(tmp_path), 0, mutate)
        with pytest.raises(StateError, match="checkpoint"):
            resume_export(paper_generator, str(tmp_path))
        capsys.readouterr()
        assert main(["fleet", "export", "--resume", "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("fleet export --resume: checkpoint")


class TestCompaction:
    def test_compacted_layout_matches_direct_shard_export(
        self, tmp_path, paper_generator
    ):
        block_dir = tmp_path / "blocks"
        export_fleet_blocks(
            paper_generator, SEPT_2010, SIZE, SEED, str(block_dir),
            shards=2, checkpoint_every=2,
        )
        direct_dir = tmp_path / "direct"
        direct = export_fleet(
            paper_generator, SEPT_2010, SIZE, SEED, str(direct_dir), shards=2
        )
        compact_dir = tmp_path / "compacted"
        compacted = compact_export(
            str(block_dir / "manifest.json"), str(compact_dir), shards=2
        )
        assert (compact_dir / "manifest.json").read_bytes() == (
            direct_dir / "manifest.json"
        ).read_bytes()
        for segment in direct.segments:
            assert (compact_dir / segment.path).read_bytes() == (
                direct_dir / segment.path
            ).read_bytes()
        assert verify_manifest(str(compact_dir / "manifest.json")).ok
        assert compacted.payload_sha256 == direct.payload_sha256

    def test_compaction_refuses_shard_layout(self, tmp_path, paper_generator):
        export_fleet(paper_generator, SEPT_2010, 5_000, SEED, str(tmp_path), shards=1)
        with pytest.raises(ValueError, match="block-layout"):
            compact_export(
                str(tmp_path / "manifest.json"), str(tmp_path / "out"), shards=1
            )

    def test_compaction_detects_corrupt_blocks(self, tmp_path, paper_generator):
        block_dir = tmp_path / "blocks"
        export_fleet_blocks(
            paper_generator, SEPT_2010, 9_000, SEED, str(block_dir),
            shards=1, checkpoint_every=1,
        )
        target = block_dir / "block-000001.csv"
        target.write_bytes(b"0" + target.read_bytes()[1:])
        with pytest.raises(ValueError, match="sha256 mismatch"):
            compact_export(
                str(block_dir / "manifest.json"), str(tmp_path / "out"), shards=1
            )


class TestSigkillSubprocess:
    def test_sigkill_mid_export_then_cli_resume(self, tmp_path, paper_generator):
        """A real SIGKILL: no atexit handlers, no cleanup, torn files allowed."""
        out = tmp_path / "killed"
        size = 163_840  # 40 blocks — enough runway to land the kill mid-run
        src = os.path.join(os.path.dirname(writer.__file__), "..", "..")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "fleet", "export",
                "--size", str(size), "--seed", str(SEED),
                "--out-dir", str(out), "--checkpoint-every", "1",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        journal = _journal(out)
        deadline = time.monotonic() + 120
        while (
            time.monotonic() < deadline
            and process.poll() is None
            and not (journal.exists() and journal.stat().st_size > 0)
        ):
            time.sleep(0.005)
        if process.poll() is None:
            process.send_signal(signal.SIGKILL)
        process.wait(timeout=120)

        when = year_fraction(parse_date("2010-09-01"))
        golden_dir = tmp_path / "golden"
        golden = export_fleet_blocks(
            paper_generator, when, size, SEED, str(golden_dir),
            shards=1, checkpoint_every=1,
        )
        resumed = resume_export(paper_generator, str(out))
        assert verify_manifest(str(out / "manifest.json")).ok
        assert resumed.manifest.to_json() == golden.manifest.to_json()
        assert _payload_bytes(out, resumed.manifest) == _payload_bytes(
            golden_dir, golden.manifest
        )
        if resumed.statistics is not None:  # killed mid-run (the usual case)
            assert (
                resumed.statistics.moments.means()
                == golden.statistics.moments.means()
            )
