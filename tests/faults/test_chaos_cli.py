"""``fleet chaos``: the CLI harness around :func:`repro.faults.run_chaos`.

These run the harness in-process (``main([...])``) — the chaos legs
themselves are subprocesses either way, so the tests stay hermetic while
still exercising the real SIGKILL/resume machinery end to end.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.faults import FIRING_LOG_NAME, read_firings

SIZE = "8000"  # two RNG blocks — smallest export with a mid-run checkpoint
DATE = "2010-09-01"


def chaos_argv(out_dir, plan, *extra):
    return [
        "fleet",
        "chaos",
        "--plan",
        plan,
        "--out-dir",
        str(out_dir),
        "--size",
        SIZE,
        "--date",
        DATE,
        *extra,
    ]


class TestChaosVerdicts:
    def test_block_layout_replays_byte_identically(self, tmp_path, capsys):
        # A SIGKILL after the first block, twice over: both runs must
        # recover to the baseline digests and fire identically.
        code = main(
            chaos_argv(
                tmp_path,
                "writer.block.done:kind=sigkill,after=1,once=1",
                "--layout",
                "block",
                "--checkpoint-every",
                "1",
                "--runs",
                "2",
            )
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "2 run(s) recovered byte-identical" in captured.out
        assert "recovered byte-identical after 1 repair(s)" in captured.out

        with open(tmp_path / "baseline" / "manifest.json") as handle:
            baseline = json.load(handle)
        for run in ("run-01", "run-02"):
            with open(tmp_path / run / "manifest.json") as handle:
                manifest = json.load(handle)
            assert manifest["payload_sha256"] == baseline["payload_sha256"]
            assert manifest["fleet_sha256"] == baseline["fleet_sha256"]
        for state in ("state-01", "state-02"):
            firings = read_firings(str(tmp_path / state / FIRING_LOG_NAME))
            assert [(f["site"], f["kind"]) for f in firings] == [
                ("writer.block.done", "sigkill")
            ]

    def test_shard_layout_fault_is_a_typed_chaos_failure(self, tmp_path, capsys):
        # The per-shard layout keeps no checkpoints, so chaos reports it
        # as unrecoverable (exit 1) rather than looping on repairs.
        code = main(
            chaos_argv(
                tmp_path,
                "writer.segment.write:kind=io-error",
                "--layout",
                "shard",
            )
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "fleet chaos:" in captured.err
        assert "unrecoverable under this layout" in captured.err
        assert "writer.segment.write io-error" in captured.err
        assert not (tmp_path / "run-01" / "manifest.json").exists()

    def test_plan_file_argument_is_accepted(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            json.dumps(
                {
                    "kind": "FaultPlan",
                    "version": 1,
                    "seed": 7,
                    "name": "cli-io",
                    "faults": [
                        {
                            "site": "writer.checkpoint.fsync",
                            "kind": "fsync-error",
                            "after": 1,
                            "once": True,
                        }
                    ],
                }
            )
        )
        code = main(
            chaos_argv(
                tmp_path / "out",
                str(plan_path),
                "--layout",
                "block",
                "--checkpoint-every",
                "1",
            )
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "plan: writer.checkpoint.fsync: fsync-error" in captured.out


class TestChaosArgumentErrors:
    def test_malformed_plan_is_exit_2(self, tmp_path, capsys):
        code = main(chaos_argv(tmp_path, "writer.bogus:after=1"))
        captured = capsys.readouterr()
        assert code == 2
        assert "fleet chaos: --plan" in captured.err
        assert "unknown fault site" in captured.err

    def test_missing_plan_file_is_exit_2(self, tmp_path, capsys):
        code = main(chaos_argv(tmp_path, str(tmp_path / "absent.json")))
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot read fault plan" in captured.err

    def test_bad_runs_is_exit_2(self, tmp_path, capsys):
        code = main(
            chaos_argv(tmp_path, "writer.block.done", "--runs", "0")
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "--runs" in captured.err

    def test_scenario_with_params_is_exit_2_before_any_leg(self, tmp_path, capsys):
        """A scenario's generator comes from its spec, so ``--params``
        would be dropped: one usage line, and no leg runs."""
        params = tmp_path / "params.json"
        params.write_text("{}")
        code = main(
            chaos_argv(
                tmp_path / "chaos", "writer.block.done",
                "--scenario", "availability", "--params", str(params),
            )
        )
        captured = capsys.readouterr()
        assert code == 2
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("fleet chaos: --params")
        assert not (tmp_path / "chaos").exists()


class TestExportDirHints:
    """The non-empty-dir refusal names what it found and how to proceed."""

    def test_distributed_plan_spelling_matches_the_engine(self, tmp_path):
        # describe_export_dir matches the literal file name so the writer
        # needs no import from the distributed layer; this pins the two
        # spellings together.
        from repro.engine.distributed import DISTRIBUTED_PLAN_NAME
        from repro.engine.writer import describe_export_dir

        (tmp_path / DISTRIBUTED_PLAN_NAME).write_text("{}")
        hint = describe_export_dir(str(tmp_path))
        assert hint is not None
        assert "interrupted distributed export" in hint
        assert "pass --resume to finish it" in hint

    def test_columnar_leftovers_read_as_partial_segments(self, tmp_path):
        # A columnar export creates its column files before the fan-out,
        # so a killed run leaves them without any manifest or plan.
        from repro.engine.writer import describe_export_dir

        (tmp_path / "column-0-cores.npy").write_bytes(b"")
        hint = describe_export_dir(str(tmp_path))
        assert hint is not None
        assert "partial segments" in hint

    def test_refusal_suggests_resume_for_interrupted_export(
        self, tmp_path, capsys
    ):
        from repro.engine.writer import PLAN_NAME

        (tmp_path / PLAN_NAME).write_text("{}")
        code = main(
            [
                "fleet",
                "export",
                "--size",
                SIZE,
                "--date",
                DATE,
                "--out-dir",
                str(tmp_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "not empty" in captured.err
        assert "--resume" in captured.err

    def test_refusal_suggests_verify_for_completed_export(
        self, tmp_path, capsys
    ):
        (tmp_path / "manifest.json").write_text("{}")
        code = main(
            [
                "fleet",
                "export",
                "--size",
                SIZE,
                "--date",
                DATE,
                "--out-dir",
                str(tmp_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "completed export" in captured.err
        assert "--force" in captured.err
