"""Memoised streamed scenario passes (the ``fleet scenario`` engine room).

:class:`ScenarioRun` is the scenario counterpart of
:class:`~repro.validation.runner.ValidationRun`: one object per CLI
invocation owns the generator and memoises one
:class:`~repro.engine.sharding.FleetStatistics` per shard count, so
``fleet scenario compare`` proving shard-count invariance pays one
streamed pass per shard count and nothing twice.
"""

from __future__ import annotations

import hashlib
import json

from repro.engine.reduce import VALIDATION_PROFILE_NAMES
from repro.engine.sharding import generate_sharded
from repro.registry import ScenarioSpec, get_scenario_spec, scenario_profile
from repro.timeutil import parse_date, year_fraction
from repro.validation.runner import CANONICAL_DATE, CANONICAL_SEED


class ScenarioRun:
    """Memoised streamed passes over one registered scenario."""

    def __init__(
        self,
        key: str,
        *,
        size: int,
        seed: int = CANONICAL_SEED,
        date: str = CANONICAL_DATE,
        start_method: "str | None" = None,
    ):
        if size < 1:
            raise ValueError("size must be at least 1")
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.spec: ScenarioSpec = get_scenario_spec(key)
        self.generator = self.spec.make_generator()
        self.size = int(size)
        self.seed = int(seed)
        self.date = str(date)
        self.when = year_fraction(parse_date(self.date))
        self.start_method = start_method
        self._stats: dict = {}
        self._statistics_digest: "str | None" = None

    @property
    def effective_seed(self) -> int:
        """The run seed shifted by the scenario's registered offset."""
        return self.seed + self.spec.seed_offset

    def stats(self, shards: int = 1):
        """The memoised streamed pass for ``shards``: it folds
        :func:`~repro.registry.scenario_profile`, whose sketch gives the
        medians, whatever profile the scenario's exports fold."""
        if shards not in self._stats:
            self._stats[shards] = generate_sharded(
                self.generator,
                self.when,
                self.size,
                self.effective_seed,
                shards=shards,
                digest=True,
                reducers=scenario_profile(self.spec.schema.labels),
                start_method=self.start_method,
            )
        return self._stats[shards]

    def digest(self, shards: int = 1) -> str:
        """The fleet content digest of the streamed pass."""
        return self.stats(shards).digest

    def statistics_digest(self) -> str:
        """sha256 over the profile reducer states of the shards=1 pass.

        Same canonical-JSON construction as
        :meth:`~repro.validation.runner.ValidationRun.statistics_digest`,
        so scenario statistics can be pinned the way host statistics are.
        """
        if self._statistics_digest is None:
            reducers = self.stats(shards=1).reducers
            payload = {
                name: reducers.get(name).to_state()
                for name in VALIDATION_PROFILE_NAMES
            }
            blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            self._statistics_digest = hashlib.sha256(
                blob.encode("utf-8")
            ).hexdigest()
        return self._statistics_digest

    def summary_rows(self, shards: int = 1) -> "list[dict]":
        """Per-column mean/std/median rows for the CLI tables."""
        stats = self.stats(shards)
        means = stats.moments.means()
        stds = stats.moments.stds()
        medians = stats.quantiles.medians()
        return [
            {
                "column": label,
                "mean": float(means[label]),
                "std": float(stds[label]),
                "median": float(medians[label]),
            }
            for label in self.spec.schema.labels
        ]
