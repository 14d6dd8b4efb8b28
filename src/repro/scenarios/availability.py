"""ON/OFF churn scenario: per-host availability draws as a streamed table.

Wraps :class:`~repro.availability.model.AvailabilityModel` (the paper's
refs [26]/[27] availability features) into the scenario contract: each row
is one host's long-run availability fraction, one Weibull ON-interval
draw, one exponential OFF-interval draw at that host's implied OFF mean,
and the resulting duty cycle of the pair.  The churn process is stationary
— ``when`` does not enter the draws.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from math import gamma

import numpy as np

from repro.availability.model import AvailabilityModel
from repro.registry import ScenarioSpec, register_scenario_spec
from repro.table import ColumnBlock, TableSchema

AVAILABILITY_LABELS = ("fraction", "on_hours", "off_hours", "duty_cycle")

AVAILABILITY_SCHEMA = TableSchema(
    labels=AVAILABILITY_LABELS,
    csv_fmt="%.6f,%.4f,%.4f,%.6f",
    csv_header="fraction,on_hours,off_hours,duty_cycle\n",
)


@dataclass(frozen=True)
class AvailabilityScenarioParameters:
    """Beta fraction mix plus ON-interval law (the model's defaults)."""

    fraction_alpha: float = 0.64
    fraction_beta: float = 0.36
    on_shape: float = 0.65
    mean_on_hours: float = 10.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AvailabilityScenarioParameters":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("availability scenario parameters must be a JSON object")
        return cls(**raw)


class AvailabilityScenarioGenerator:
    """Generates availability churn rows under the block contract."""

    wire_name = "AvailabilityScenarioGenerator"
    name = "availability"
    schema = AVAILABILITY_SCHEMA

    def __init__(self, parameters: "AvailabilityScenarioParameters | None" = None):
        self._parameters = (
            parameters if parameters is not None else AvailabilityScenarioParameters()
        )
        self._model = AvailabilityModel(
            fraction_alpha=self._parameters.fraction_alpha,
            fraction_beta=self._parameters.fraction_beta,
            on_shape=self._parameters.on_shape,
            mean_on_hours=self._parameters.mean_on_hours,
        )

    @property
    def parameters(self) -> AvailabilityScenarioParameters:
        return self._parameters

    @property
    def model(self) -> AvailabilityModel:
        """The wrapped availability model (the batch-equivalence anchor)."""
        return self._model

    def generate(
        self, when, size: int, rng: np.random.Generator
    ) -> ColumnBlock:
        """One block of per-host availability draws.

        Draw order (fractions, ON lengths, OFF lengths) is part of the
        block determinism contract — reordering changes every fleet.
        """
        del when  # the churn process is stationary
        p = self._parameters
        fraction = self._model.sample_fractions(size, rng)
        on_scale = p.mean_on_hours / gamma(1.0 + 1.0 / p.on_shape)
        on_hours = on_scale * rng.weibull(p.on_shape, size)
        off_hours = rng.exponential(p.mean_on_hours * (1.0 - fraction) / fraction)
        total = on_hours + off_hours
        duty_cycle = np.divide(
            on_hours, total, out=np.zeros_like(total), where=total > 0
        )
        return ColumnBlock(
            {
                "fraction": fraction,
                "on_hours": on_hours,
                "off_hours": off_hours,
                "duty_cycle": duty_cycle,
            },
            AVAILABILITY_SCHEMA,
        )


AVAILABILITY_SPEC = register_scenario_spec(
    ScenarioSpec(
        key="availability",
        title="ON/OFF churn: per-host fractions and interval draws",
        schema=AVAILABILITY_SCHEMA,
        make_generator=AvailabilityScenarioGenerator,
        description="Beta(0.64, 0.36) availability fractions with Weibull ON "
        "and fraction-matched exponential OFF interval draws",
    )
)
