"""Unit tests for the benchmark regression gate.

``benchmarks/check_bench_regression.py`` is what CI runs against the
committed baselines, so its comparison semantics (tracked ``*seconds``
keys, one-sided threshold, noise floor, escape hatch, and the flipped
one-sided gate on ``*speedup`` ratios) are pinned here with synthetic
payloads.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_bench_regression",
    os.path.join(
        os.path.dirname(__file__), "..", "benchmarks", "check_bench_regression.py"
    ),
)
check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check)


BASELINE = {
    "benchmark": "hotpaths",
    "sections": {
        "csv_encode": {"encode_seconds": 0.100, "speedup": 3.0, "rows": 1000},
        "sketch_compress": {"vectorised_seconds": 0.050, "loop_seconds": 0.5},
    },
    "noise": {"tiny_seconds": 0.001},
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestFlatten:
    def test_only_seconds_keys_tracked(self):
        timings = check.flatten_timings(BASELINE)
        assert timings == {
            "sections.csv_encode.encode_seconds": 0.100,
            "sections.sketch_compress.vectorised_seconds": 0.050,
            "noise.tiny_seconds": 0.001,
        }

    def test_bools_and_rates_ignored(self):
        assert check.flatten_timings({"ok_seconds": True, "hosts_per_second": 9}) == {}

    def test_reference_side_timings_never_gated(self):
        # The frozen "before" yardsticks (pure-Python loop, np.savetxt,
        # write-then-rehash, the step-by-step block composition) vary with
        # interpreter/runner speed, not with product code — tracking them
        # would fail CI for nothing.
        payload = {
            "loop_seconds": 9.9,
            "savetxt_seconds": 9.9,
            "write_then_rehash_seconds": 9.9,
            "block_synthesis": {"reference_seconds": 9.9, "seconds": 0.2},
            "encode_seconds": 0.1,
        }
        assert check.flatten_timings(payload) == {
            "block_synthesis.seconds": 0.2,
            "encode_seconds": 0.1,
        }


class TestCompare:
    def test_within_threshold_passes(self, tmp_path):
        current = json.loads(json.dumps(BASELINE))
        current["sections"]["csv_encode"]["encode_seconds"] = 0.125  # +25%
        rc = check.main(
            [_write(tmp_path, "cur.json", current), _write(tmp_path, "base.json", BASELINE)]
        )
        assert rc == 0

    def test_regression_beyond_threshold_fails(self, tmp_path, monkeypatch):
        monkeypatch.delenv(check.ENV_ESCAPE_HATCH, raising=False)
        current = json.loads(json.dumps(BASELINE))
        current["sections"]["csv_encode"]["encode_seconds"] = 0.150  # +50%
        rc = check.main(
            [_write(tmp_path, "cur.json", current), _write(tmp_path, "base.json", BASELINE)]
        )
        assert rc == 1

    def test_faster_is_never_a_failure(self, tmp_path):
        current = json.loads(json.dumps(BASELINE))
        current["sections"]["csv_encode"]["encode_seconds"] = 0.001
        current["sections"]["sketch_compress"]["vectorised_seconds"] = 0.001
        rc = check.main(
            [_write(tmp_path, "cur.json", current), _write(tmp_path, "base.json", BASELINE)]
        )
        assert rc == 0

    def test_noise_floor_exempts_tiny_timings(self, tmp_path):
        current = json.loads(json.dumps(BASELINE))
        current["noise"]["tiny_seconds"] = 0.009  # 9x, still under the floor
        rc = check.main(
            [_write(tmp_path, "cur.json", current), _write(tmp_path, "base.json", BASELINE)]
        )
        assert rc == 0

    def test_escape_hatch_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(check.ENV_ESCAPE_HATCH, "1")
        current = json.loads(json.dumps(BASELINE))
        current["sections"]["csv_encode"]["encode_seconds"] = 9.0
        rc = check.main(
            [_write(tmp_path, "cur.json", current), _write(tmp_path, "base.json", BASELINE)]
        )
        assert rc == 0

    def test_missing_tracked_timing_fails_the_gate(self, tmp_path, capsys, monkeypatch):
        # A renamed/removed bench section must not silently disable its gate.
        monkeypatch.delenv(check.ENV_ESCAPE_HATCH, raising=False)
        current = {"benchmark": "hotpaths", "sections": {}}
        rc = check.main(
            [_write(tmp_path, "cur.json", current), _write(tmp_path, "base.json", BASELINE)]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "missing" in out and "REGRESSION" in out

    def test_one_line_delta_summary_printed(self, tmp_path, capsys):
        rc = check.main(
            [
                _write(tmp_path, "cur.json", BASELINE),
                _write(tmp_path, "base.json", BASELINE),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "bench delta vs baseline [hotpaths]:" in out
        assert "1.00x" in out

    def test_speedup_drop_beyond_threshold_fails(self, tmp_path, monkeypatch):
        monkeypatch.delenv(check.ENV_ESCAPE_HATCH, raising=False)
        current = json.loads(json.dumps(BASELINE))
        current["sections"]["csv_encode"]["speedup"] = 2.0  # limit: 3.0/1.3
        rc = check.main(
            [_write(tmp_path, "cur.json", current), _write(tmp_path, "base.json", BASELINE)]
        )
        assert rc == 1

    def test_speedup_within_threshold_passes(self, tmp_path):
        current = json.loads(json.dumps(BASELINE))
        current["sections"]["csv_encode"]["speedup"] = 2.5
        rc = check.main(
            [_write(tmp_path, "cur.json", current), _write(tmp_path, "base.json", BASELINE)]
        )
        assert rc == 0

    def test_sub_unity_baseline_speedup_is_not_gated(self, tmp_path, monkeypatch):
        # A baseline ratio < 1 records a regime where the optimisation
        # cannot win (e.g. sharding on one vCPU); gating it would only
        # measure scheduler noise.
        monkeypatch.delenv(check.ENV_ESCAPE_HATCH, raising=False)
        baseline = json.loads(json.dumps(BASELINE))
        baseline["sharded_speedup"] = 0.36
        current = json.loads(json.dumps(baseline))
        current["sharded_speedup"] = 0.01
        rc = check.main(
            [_write(tmp_path, "cur.json", current), _write(tmp_path, "base.json", baseline)]
        )
        assert rc == 0

    def test_missing_speedup_fails_the_gate(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(check.ENV_ESCAPE_HATCH, raising=False)
        current = json.loads(json.dumps(BASELINE))
        del current["sections"]["csv_encode"]["speedup"]
        rc = check.main(
            [_write(tmp_path, "cur.json", current), _write(tmp_path, "base.json", BASELINE)]
        )
        assert rc == 1
        assert "speedup" in capsys.readouterr().out

    def test_bad_threshold_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            check.main(
                [
                    _write(tmp_path, "a.json", BASELINE),
                    _write(tmp_path, "b.json", BASELINE),
                    "--threshold",
                    "-1",
                ]
            )
