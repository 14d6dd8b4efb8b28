"""Lifetime cohort scenario: Weibull host lifetimes with creation decay.

Wraps :class:`~repro.traces.lifetimes.LifetimeModel` (Figs 1/3: Weibull
lifetimes whose scale decays with the creation date, shortened further for
better-equipped hosts) into the scenario contract: each row is one host's
creation date (uniform over the cohort window), resource-quality
percentile, sampled lifetime in days, and the model's one-year survival
probability for its cohort.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from repro.registry import ScenarioSpec, register_scenario_spec
from repro.table import ColumnBlock, TableSchema
from repro.traces.lifetimes import LifetimeModel

LIFETIME_LABELS = ("creation_year", "quality", "lifetime_days", "survival_one_year")

LIFETIME_SCHEMA = TableSchema(
    labels=LIFETIME_LABELS,
    csv_fmt="%.6f,%.6f,%.4f,%.6f",
    csv_header="creation_year,quality,lifetime_days,survival_one_year\n",
)


@dataclass(frozen=True)
class LifetimeScenarioParameters:
    """Weibull lifetime law plus the cohort creation window."""

    shape: float = 0.58
    scale_2006_days: float = 175.0
    decay_per_year: float = 0.18
    quality_effect: float = 0.2
    cohort_start_year: float = 2007.0
    cohort_span_years: float = 3.0

    def __post_init__(self) -> None:
        if self.cohort_span_years <= 0:
            raise ValueError("cohort_span_years must be positive")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LifetimeScenarioParameters":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("lifetime scenario parameters must be a JSON object")
        return cls(**raw)


class LifetimeScenarioGenerator:
    """Generates lifetime cohort rows under the block contract."""

    wire_name = "LifetimeScenarioGenerator"
    name = "lifetimes"
    schema = LIFETIME_SCHEMA

    def __init__(self, parameters: "LifetimeScenarioParameters | None" = None):
        self._parameters = (
            parameters if parameters is not None else LifetimeScenarioParameters()
        )
        self._model = LifetimeModel(
            shape=self._parameters.shape,
            scale_2006_days=self._parameters.scale_2006_days,
            decay_per_year=self._parameters.decay_per_year,
            quality_effect=self._parameters.quality_effect,
        )

    @property
    def parameters(self) -> LifetimeScenarioParameters:
        return self._parameters

    @property
    def model(self) -> LifetimeModel:
        """The wrapped lifetime model (the batch-equivalence anchor)."""
        return self._model

    def generate(
        self, when, size: int, rng: np.random.Generator
    ) -> ColumnBlock:
        """One block of cohort draws (creation, quality, lifetime, survival).

        Draw order (creation years, qualities, lifetimes) is part of the
        block determinism contract.
        """
        del when  # cohorts span the fixed creation window
        p = self._parameters
        creation_year = p.cohort_start_year + p.cohort_span_years * rng.random(size)
        quality = rng.random(size)
        lifetime_days = self._model.sample_days(creation_year, quality, rng)
        survival = np.asarray(
            self._model.survival(1.0, creation_year), dtype=float
        )
        return ColumnBlock(
            {
                "creation_year": creation_year,
                "quality": quality,
                "lifetime_days": lifetime_days,
                "survival_one_year": survival,
            },
            LIFETIME_SCHEMA,
        )


LIFETIMES_SPEC = register_scenario_spec(
    ScenarioSpec(
        key="lifetimes",
        title="Weibull lifetime cohorts with creation-date decay",
        schema=LIFETIME_SCHEMA,
        make_generator=LifetimeScenarioGenerator,
        description="per-host creation dates, quality percentiles, sampled "
        "Weibull lifetimes and cohort one-year survival",
    )
)
