"""Shared retry/backoff policies for the export stack.

Every place the stack used to fail hard on the first transient error —
a coordinator dialling a ``serve-worker`` peer that is not listening
*yet*, a block write hitting a momentary ``ENOSPC``/``EIO`` — now routes
through one :class:`RetryPolicy`: jittered exponential backoff, capped
both by an attempt budget and a wall-clock deadline.  The policy is a
frozen value object so call sites can share tuned instances
(:data:`DIAL_RETRY`, :data:`WRITE_RETRY`) and tests can assert the exact
delay schedule.

Jitter is *full jitter* on a fraction of each step: step ``i`` sleeps
``base_delay * multiplier**i``, of which ``jitter`` of the span is
uniformly random.  Pass ``seed`` for a reproducible schedule (the
chaos tests do); the default draws fresh entropy, which is what a real
thundering herd wants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np


class RetryError(RuntimeError):
    """Raised when a retried operation exhausts its policy; chains the
    final attempt's exception as ``__cause__``."""


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff, capped by attempts and deadline.

    ``attempts`` counts *tries*, not retries: ``attempts=1`` means no
    retry at all.  The ``deadline`` (seconds, from the first attempt)
    wins over the attempt budget — a policy never sleeps past it, and a
    failure after it raises immediately.
    """

    attempts: int = 5
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    deadline: float = 15.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1 (got {self.attempts})")
        if self.base_delay < 0 or self.max_delay < 0 or self.deadline <= 0:
            raise ValueError("delays must be >= 0 and deadline > 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1 (got {self.multiplier})")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1] (got {self.jitter})")

    def delays(self, seed: "int | None" = None) -> "list[float]":
        """The backoff schedule: one sleep per retry (``attempts - 1``)."""
        rng = np.random.default_rng(seed)
        delays = []
        for step in range(self.attempts - 1):
            span = min(self.base_delay * self.multiplier**step, self.max_delay)
            fixed = span * (1.0 - self.jitter)
            delays.append(fixed + span * self.jitter * float(rng.random()))
        return delays

    def call(
        self,
        func,
        retry_on: "tuple[type, ...]" = (OSError,),
        seed: "int | None" = None,
        describe: str = "operation",
    ):
        """Run ``func()`` under this policy.

        Exceptions outside ``retry_on`` propagate untouched on the first
        throw.  A ``retry_on`` failure that exhausts the budget raises
        :class:`RetryError` naming the operation, the attempts spent and
        the final error (chained as ``__cause__``).  The backoff schedule,
        :meth:`delays` of ``seed``, is built at the first such failure, so
        a call that succeeds at once draws no random numbers.
        """
        start = time.monotonic()
        delays: "list[float] | None" = None
        attempt = 0
        while True:
            attempt += 1
            try:
                return func()
            except retry_on as error:
                if delays is None:
                    delays = self.delays(seed)
                if (
                    attempt > len(delays)
                    or time.monotonic() - start + delays[attempt - 1] > self.deadline
                ):
                    raise RetryError(
                        f"{describe} failed after {attempt} attempt(s) over "
                        f"{time.monotonic() - start:.2f} s: {error}"
                    ) from error
                time.sleep(delays[attempt - 1])


#: The coordinator dialling a ``--connect`` endpoint that may not be
#: listening yet — the serve-worker race the CI smokes used to paper
#: over with ``sleep 1``.
DIAL_RETRY = RetryPolicy(
    attempts=6, base_delay=0.05, multiplier=2.0, max_delay=1.0, deadline=10.0
)

#: Transient I/O on a block-segment write; short and cheap, because a
#: *persistent* write failure should surface fast.
WRITE_RETRY = RetryPolicy(
    attempts=3, base_delay=0.02, multiplier=2.0, max_delay=0.2, deadline=5.0
)
