"""CLI tests for ``fleet scenario list/run/compare``."""

from __future__ import annotations

import pytest

from repro.cli import main

SIZE = ["--size", "9000", "--seed", "20110611"]


class TestScenarioList:
    def test_lists_every_registered_scenario(self, capsys):
        assert main(["fleet", "scenario", "list"]) == 0
        out = capsys.readouterr().out
        for key in ("availability", "lifetimes", "allocation", "bandwidth"):
            assert key in out
        assert "columns: fraction, on_hours" in out


class TestScenarioRunSummary:
    def test_prints_statistics_and_digests(self, capsys):
        assert main(
            ["fleet", "scenario", "run", "availability", *SIZE, "--shards", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "scenario 'availability'" in out
        assert "duty_cycle" in out
        assert "fleet sha256:" in out
        assert "statistics sha256:" in out

    def test_seed_offset_enters_the_stream(self, capsys):
        # same CLI seed, different scenarios: digests must differ
        assert main(["fleet", "scenario", "run", "availability", *SIZE]) == 0
        first = capsys.readouterr().out
        assert main(["fleet", "scenario", "run", "bandwidth", *SIZE]) == 0
        second = capsys.readouterr().out
        digest = lambda out: [  # noqa: E731
            line for line in out.splitlines() if "fleet sha256" in line
        ][0].split()[-1]
        assert digest(first) != digest(second)


class TestScenarioRunExport:
    def test_export_verify_roundtrip(self, tmp_path, capsys):
        out_dir = tmp_path / "avail"
        assert main(
            ["fleet", "scenario", "run", "availability", *SIZE,
             "--shards", "2", "--out-dir", str(out_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "exported 9000 rows of scenario 'availability'" in out
        assert main(["fleet", "verify", str(out_dir / "manifest.json")]) == 0

    def test_summary_digest_matches_export_digest(self, tmp_path, capsys):
        assert main(["fleet", "scenario", "run", "bandwidth", *SIZE]) == 0
        summary = capsys.readouterr().out
        out_dir = tmp_path / "links"
        assert main(
            ["fleet", "scenario", "run", "bandwidth", *SIZE,
             "--out-dir", str(out_dir)]
        ) == 0
        export = capsys.readouterr().out
        pick = lambda out: [  # noqa: E731
            line for line in out.splitlines() if "fleet sha256" in line
        ][0].split()[-1]
        assert pick(summary) == pick(export)

    def test_interrupt_then_resume_roundtrip(self, tmp_path, capsys):
        out_dir = tmp_path / "resumable"
        assert main(
            ["fleet", "scenario", "run", "availability", *SIZE,
             "--out-dir", str(out_dir), "--checkpoint-every", "1",
             "--fault-spec", "writer.block.done:kind=raise,after=1"]
        ) == 1
        assert "injected fault" in capsys.readouterr().err
        assert not (out_dir / "manifest.json").exists()
        assert main(
            ["fleet", "scenario", "run", "availability",
             "--out-dir", str(out_dir), "--resume"]
        ) == 0
        out = capsys.readouterr().out
        assert "resumed:" in out
        assert main(["fleet", "verify", str(out_dir / "manifest.json")]) == 0

    @pytest.mark.parametrize(
        "command",
        [["fleet", "export"], ["fleet", "scenario", "run", "availability"]],
        ids=["export", "scenario-run"],
    )
    def test_empty_fleet_exports_and_verifies(self, tmp_path, capsys, command):
        out_dir = tmp_path / "empty"
        assert main([*command, "--size", "0", "--out-dir", str(out_dir)]) == 0
        assert "exported 0 " in capsys.readouterr().out
        assert main(["fleet", "verify", str(out_dir / "manifest.json")]) == 0

    def test_refuses_nonempty_out_dir_without_force(self, tmp_path, capsys):
        out_dir = tmp_path / "occupied"
        out_dir.mkdir()
        (out_dir / "stale.csv").write_text("old\n")
        assert main(
            ["fleet", "scenario", "run", "availability", *SIZE,
             "--out-dir", str(out_dir)]
        ) == 2
        assert "--force" in capsys.readouterr().err


class TestHostsScenario:
    """``hosts`` is the host model as a scenario, and ``fleet export`` is
    its export."""

    @staticmethod
    def _digest(out: str) -> str:
        return [line for line in out.splitlines() if "fleet sha256" in line][0].split()[-1]

    def test_summary_prints_the_fleet_digest(self, capsys):
        assert main(["fleet", "scenario", "list"]) == 0
        assert capsys.readouterr().out.startswith("hosts ")
        assert main(["fleet", "scenario", "run", "hosts", *SIZE]) == 0
        summary = capsys.readouterr().out
        assert "disk_gb" in summary and "statistics sha256:" in summary
        assert main(["fleet", *SIZE, "--digest"]) == 0
        assert self._digest(summary) == self._digest(capsys.readouterr().out)
        assert main(["fleet", "scenario", "compare", "hosts", *SIZE, "--shards", "1", "2"]) == 0

    def test_export_writes_the_fleet_export_manifest(self, tmp_path, capsys):
        for command in (["fleet", "export"], ["fleet", "scenario", "run", "hosts"]):
            out_dir = tmp_path / command[-1]
            assert main(
                [*command, *SIZE, "--checkpoint-every", "1", "--out-dir", str(out_dir)]
            ) == 0
        assert (tmp_path / "export" / "manifest.json").read_bytes() == (
            tmp_path / "hosts" / "manifest.json"
        ).read_bytes()


class TestScenarioCompare:
    def test_identical_digests_exit_zero(self, capsys):
        assert main(
            ["fleet", "scenario", "compare", "lifetimes", *SIZE,
             "--shards", "1", "2", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("fleet sha256") == 3
        assert "identical across 3 shard count(s)" in out


class TestScenarioUsageErrors:
    @pytest.mark.parametrize(
        "argv, match",
        [
            (["fleet", "scenario", "run", "nosuch"], "unknown scenario"),
            (["fleet", "scenario", "run", "availability", "--size", "0"],
             "size must be at least 1"),
            (["fleet", "scenario", "run", "availability", "--shards", "0"],
             "--shards must be a positive integer"),
            (["fleet", "scenario", "run", "availability", "--seed", "-1"],
             "--seed must be non-negative"),
            (["fleet", "scenario", "run", "availability", "--resume"],
             "pass --out-dir"),
            (["fleet", "scenario", "run", "availability", "--out-dir", "x",
              "--backend", "distributed", "--checkpoint-every", "2"],
             "local backend only"),
            (["fleet", "scenario", "run", "availability", "--out-dir", "x",
              "--backend", "distributed", "--workers", "0"],
             "--workers >= 1"),
            (["fleet", "scenario", "compare", "availability",
              "--shards", "2", "0"], "positive integers"),
            (["fleet", "scenario", "compare", "nosuch"], "unknown scenario"),
        ],
    )
    def test_usage_errors_exit_2(self, capsys, argv, match):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert match in err
        assert "Traceback" not in err
