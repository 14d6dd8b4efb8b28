"""The process-global injector: gating, determinism, logs, env arming."""

from __future__ import annotations

import json
import os

import pytest

from repro.faults import (
    ENV_PLAN_FILE,
    ENV_PLAN_JSON,
    ENV_STATE_DIR,
    FIRING_LOG_NAME,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    Firing,
    activate,
    active_plan,
    arm_process,
    deactivate,
    describe_plan,
    fire,
    plan_is_active,
    read_firings,
)

SITE = "writer.block.done"


@pytest.fixture(autouse=True)
def disarmed():
    """Every test starts and ends with no plan armed anywhere."""
    deactivate()
    yield
    deactivate()


def plan_of(*specs: FaultSpec, seed: int = 0) -> FaultPlan:
    return FaultPlan(seed=seed, faults=tuple(specs))


class TestGating:
    def test_inactive_fire_is_none(self):
        assert fire(SITE) is None
        assert not plan_is_active()
        assert active_plan() is None

    def test_after_threshold(self):
        activate(plan_of(FaultSpec(site=SITE, kind="raise", after=3)))
        assert fire(SITE) is None
        assert fire(SITE) is None
        with pytest.raises(FaultInjected, match=SITE):
            fire(SITE)

    def test_counters_are_per_site(self):
        activate(plan_of(FaultSpec(site=SITE, kind="raise", after=2)))
        assert fire("writer.segment.write") is None
        assert fire(SITE) is None  # invocation 1 of SITE, not 2
        with pytest.raises(FaultInjected):
            fire(SITE)

    def test_count_limits_firings(self):
        activate(plan_of(FaultSpec(site=SITE, kind="raise", count=2)))
        for _ in range(2):
            with pytest.raises(FaultInjected):
                fire(SITE)
        assert fire(SITE) is None  # spent

    def test_unlimited_count(self):
        activate(plan_of(FaultSpec(site=SITE, kind="raise", count=None)))
        for _ in range(5):
            with pytest.raises(FaultInjected):
                fire(SITE)

    def test_probability_stream_is_seed_deterministic(self):
        spec = FaultSpec(site=SITE, kind="raise", probability=0.5, count=None)

        def firing_pattern(seed: int) -> "list[bool]":
            activate(plan_of(spec, seed=seed))
            pattern = []
            for _ in range(64):
                try:
                    fire(SITE)
                    pattern.append(False)
                except FaultInjected:
                    pattern.append(True)
            return pattern

        first = firing_pattern(11)
        assert firing_pattern(11) == first
        assert firing_pattern(12) != first
        assert any(first) and not all(first)

    def test_once_takes_cross_process_marker(self, tmp_path):
        spec = FaultSpec(site=SITE, kind="raise", once=True, count=None)
        activate(plan_of(spec), state_dir=str(tmp_path))
        with pytest.raises(FaultInjected):
            fire(SITE)
        # A second *process* is simulated by re-activating (fresh
        # per-process counters) against the same state directory: the
        # marker file must block the second firing.
        activate(plan_of(spec), state_dir=str(tmp_path))
        assert fire(SITE) is None
        markers = [f for f in os.listdir(tmp_path) if f.startswith("fault-once-")]
        assert len(markers) == 1


class TestEnactment:
    def test_io_error_carries_errno_and_path(self):
        activate(
            plan_of(
                FaultSpec(site="writer.block.write", kind="io-error", errno="EIO")
            )
        )
        with pytest.raises(OSError) as excinfo:
            fire("writer.block.write", path="/x/block-0.csv")
        import errno as errno_module

        assert excinfo.value.errno == errno_module.EIO
        assert "/x/block-0.csv" in str(excinfo.value)

    @pytest.mark.parametrize(
        "append, expected", [(False, b"0123"), (True, b"kept\n0123")]
    )
    def test_torn_write_appends_at_append_sites(
        self, tmp_path, monkeypatch, append, expected
    ):
        """A torn append keeps the file's bytes and tears only the new
        tail; a torn replacement leaves just the prefix."""
        import repro.faults.injector as injector

        class Killed(BaseException):
            pass

        def _no_kill():
            raise Killed

        monkeypatch.setattr(injector, "_sigkill", _no_kill)
        target = tmp_path / "journal.jsonl"
        target.write_bytes(b"kept\n")
        activate(
            plan_of(FaultSpec(site="writer.checkpoint.write", kind="torn-write"))
        )
        with pytest.raises(Killed):
            fire(
                "writer.checkpoint.write",
                path=str(target),
                data=b"01234567",
                append=append,
            )
        assert target.read_bytes() == expected

    def test_dial_refuse_and_conn_reset_types(self):
        activate(
            plan_of(
                FaultSpec(site="distributed.connect.dial", kind="dial-refuse"),
                FaultSpec(site="distributed.frame.recv", kind="conn-reset"),
            )
        )
        with pytest.raises(ConnectionRefusedError):
            fire("distributed.connect.dial")
        with pytest.raises(ConnectionResetError):
            fire("distributed.frame.recv")

    def test_cooperative_kinds_return_a_firing(self):
        activate(
            plan_of(FaultSpec(site="distributed.frame.send", kind="frame-drop"))
        )
        firing = fire("distributed.frame.send")
        assert isinstance(firing, Firing)
        assert firing.kind == "frame-drop"
        assert firing.site == "distributed.frame.send"

    def test_delay_returns_none_after_sleeping(self):
        activate(
            plan_of(FaultSpec(site=SITE, kind="delay", delay_seconds=0.0))
        )
        assert fire(SITE) is None


class TestFiringLog:
    def test_firings_are_logged_with_invocations(self, tmp_path):
        activate(
            plan_of(FaultSpec(site=SITE, kind="raise", after=2, count=2)),
            state_dir=str(tmp_path),
        )
        for _ in range(3):
            try:
                fire(SITE)
            except FaultInjected:
                pass
        records = read_firings(str(tmp_path / FIRING_LOG_NAME))
        assert [r["invocation"] for r in records] == [2, 3]
        assert all(r["site"] == SITE and r["kind"] == "raise" for r in records)
        assert all(r["pid"] == os.getpid() for r in records)

    def test_read_firings_missing_log_is_empty(self, tmp_path):
        assert read_firings(str(tmp_path / "absent.jsonl")) == []


class TestEnvironmentArming:
    def test_arm_process_exports_and_activates(self, tmp_path):
        plan = plan_of(FaultSpec(site=SITE, kind="raise"))
        arm_process(plan, state_dir=str(tmp_path))
        assert plan_is_active()
        assert FaultPlan.from_json(os.environ[ENV_PLAN_JSON]) == plan
        assert os.environ[ENV_STATE_DIR] == str(tmp_path)
        deactivate()
        assert ENV_PLAN_JSON not in os.environ
        assert not plan_is_active()

    def test_plan_file_env_is_resolved_lazily(self, tmp_path, monkeypatch):
        plan = plan_of(FaultSpec(site=SITE, kind="raise"))
        path = tmp_path / "plan.json"
        plan.save(str(path))
        monkeypatch.setenv(ENV_PLAN_FILE, str(path))
        # No explicit state dir: the plan file's directory hosts the log.
        with pytest.raises(FaultInjected):
            fire(SITE)
        records = read_firings(str(tmp_path / FIRING_LOG_NAME))
        assert len(records) == 1

    def test_describe_plan_lines(self):
        plan = plan_of(
            FaultSpec(site=SITE, kind="sigkill", after=3, once=True),
            FaultSpec(site="distributed.heartbeat", kind="heartbeat-stall",
                      count=None),
        )
        lines = describe_plan(plan)
        assert lines[0].startswith(f"{SITE}: sigkill")
        assert "once" in lines[0]
        assert "count=∞" in lines[1]


class TestLogLineAtomicity:
    def test_log_lines_are_whole_json_objects(self, tmp_path):
        activate(
            plan_of(FaultSpec(site=SITE, kind="raise", count=None)),
            state_dir=str(tmp_path),
        )
        for _ in range(10):
            with pytest.raises(FaultInjected):
                fire(SITE)
        with open(tmp_path / FIRING_LOG_NAME, "r", encoding="utf-8") as handle:
            for line in handle:
                json.loads(line)  # every line parses on its own
