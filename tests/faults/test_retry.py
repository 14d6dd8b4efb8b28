"""RetryPolicy: delay schedules, deadlines and call semantics."""

from __future__ import annotations

import pytest

from repro.engine import retry
from repro.engine.retry import (
    DIAL_RETRY,
    WRITE_RETRY,
    RetryError,
    RetryPolicy,
)


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"attempts": 0},
            {"base_delay": -0.1},
            {"deadline": 0.0},
            {"multiplier": 0.5},
            {"jitter": 1.5},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestDelays:
    def test_schedule_length_is_attempts_minus_one(self):
        assert len(RetryPolicy(attempts=5).delays(seed=0)) == 4
        assert RetryPolicy(attempts=1).delays(seed=0) == []

    def test_seeded_schedule_is_reproducible(self):
        policy = RetryPolicy(attempts=6, jitter=0.5)
        assert policy.delays(seed=42) == policy.delays(seed=42)
        assert policy.delays(seed=42) != policy.delays(seed=43)

    def test_exponential_growth_capped_at_max_delay(self):
        policy = RetryPolicy(
            attempts=6, base_delay=0.1, multiplier=2.0, max_delay=0.3, jitter=0.0
        )
        # With jitter 0 the schedule is exact: 0.1, 0.2, then capped.
        assert policy.delays(seed=0) == pytest.approx([0.1, 0.2, 0.3, 0.3, 0.3])

    def test_jitter_bounds_each_step(self):
        policy = RetryPolicy(
            attempts=4, base_delay=0.1, multiplier=1.0, max_delay=1.0, jitter=0.5
        )
        for delay in policy.delays(seed=7):
            assert 0.05 <= delay <= 0.1


class TestCall:
    def test_returns_first_success(self):
        calls = []
        policy = RetryPolicy(attempts=3, base_delay=0.0, max_delay=0.0)
        assert policy.call(lambda: calls.append(1) or "ok") == "ok"
        assert len(calls) == 1

    def test_retries_then_succeeds(self):
        attempts = iter([OSError("boom"), OSError("boom"), "ok"])
        policy = RetryPolicy(attempts=3, base_delay=0.0, max_delay=0.0)

        def flaky():
            value = next(attempts)
            if isinstance(value, Exception):
                raise value
            return value

        assert policy.call(flaky) == "ok"

    def test_exhaustion_raises_retry_error_with_cause(self):
        policy = RetryPolicy(attempts=2, base_delay=0.0, max_delay=0.0)

        def always_fails():
            raise OSError("disk on fire")

        with pytest.raises(RetryError, match="2 attempt") as excinfo:
            policy.call(always_fails, describe="writing segment")
        assert "writing segment" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, OSError)

    def test_non_retry_on_exceptions_propagate_untouched(self):
        policy = RetryPolicy(attempts=5, base_delay=0.0, max_delay=0.0)

        def typed_failure():
            raise KeyError("not transient")

        with pytest.raises(KeyError):
            policy.call(typed_failure, retry_on=(OSError,))

    def test_deadline_preempts_attempt_budget(self):
        # Huge attempt budget, but a deadline the first backoff sleep
        # would already overrun: exactly one attempt runs.
        policy = RetryPolicy(
            attempts=50, base_delay=5.0, max_delay=5.0, deadline=0.05, jitter=0.0
        )
        calls = []

        def failing():
            calls.append(1)
            raise OSError("slow")

        with pytest.raises(RetryError, match="1 attempt"):
            policy.call(failing)
        assert len(calls) == 1

    def test_retry_on_connection_errors(self):
        attempts = iter([ConnectionRefusedError("nope"), "up"])
        policy = RetryPolicy(attempts=2, base_delay=0.0, max_delay=0.0)

        def dial():
            value = next(attempts)
            if isinstance(value, Exception):
                raise value
            return value

        assert policy.call(dial, retry_on=(ConnectionError,)) == "up"


class TestScheduleBuiltOnFailure:
    """``call`` draws its backoff schedule only once something failed."""

    def test_seeded_schedules_are_pinned(self):
        assert WRITE_RETRY.delays(seed=7) == [
            0.01625095466604667,
            0.037944276019391515,
        ]
        assert DIAL_RETRY.delays(seed=3) == [
            0.02714122917859061,
            0.06184052532980499,
            0.1801274465206397,
            0.3164324072128736,
            0.4376514568961597,
        ]

    @pytest.mark.parametrize("failures", [1, 3, 4])
    def test_retried_call_sleeps_its_seeded_schedule(self, monkeypatch, failures):
        slept = []
        monkeypatch.setattr(retry.time, "sleep", slept.append)
        policy = RetryPolicy(attempts=4, base_delay=0.01, max_delay=1.0)
        outcomes = iter([OSError("boom")] * failures + ["ok"])

        def flaky():
            value = next(outcomes)
            if isinstance(value, Exception):
                raise value
            return value

        if failures < policy.attempts:
            assert policy.call(flaky, seed=11) == "ok"
        else:
            with pytest.raises(RetryError, match="4 attempt"):
                policy.call(flaky, seed=11)
        schedule = policy.delays(seed=11)
        assert slept == schedule[: min(failures, len(schedule))]

    def test_first_attempt_success_builds_no_generator(self, monkeypatch):
        def no_generator(*args, **kwargs):
            raise AssertionError("a call that succeeded at once built an RNG")

        monkeypatch.setattr(retry.np.random, "default_rng", no_generator)
        assert WRITE_RETRY.call(lambda: "written") == "written"
        with pytest.raises(KeyError):
            WRITE_RETRY.call(lambda: {}["not retried"])


class TestTunedPolicies:
    def test_shared_instances_are_bounded(self):
        # The tuned policies must never spin forever: every one has a
        # finite attempt budget and a deadline.
        for policy in (DIAL_RETRY, WRITE_RETRY):
            assert policy.attempts >= 2
            assert policy.deadline > 0
            total_sleep = sum(policy.delays(seed=0))
            assert total_sleep < policy.deadline + policy.max_delay
