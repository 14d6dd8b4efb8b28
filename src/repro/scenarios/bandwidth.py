"""Bandwidth scenario: asymmetric residential access links per host.

Wraps :class:`~repro.network.bandwidth.BandwidthModel` (ref [9]-era
log-normal, heavily asymmetric broadband) into the scenario contract:
each row is one host's downlink and uplink rate at ``when`` plus the
realised down/up asymmetry ratio.  Unlike availability and lifetimes this
scenario is time-dependent — the downlink mean grows along the model's
``a·e^{b(year-2006)}`` trend.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.laws import ExponentialLaw
from repro.registry import ScenarioSpec, register_scenario_spec
from repro.table import ColumnBlock, TableSchema
from repro.network.bandwidth import BandwidthModel

BANDWIDTH_LABELS = ("down_mbps", "up_mbps", "asymmetry")

BANDWIDTH_SCHEMA = TableSchema(
    labels=BANDWIDTH_LABELS,
    csv_fmt="%.4f,%.4f,%.4f",
    csv_header="down_mbps,up_mbps,asymmetry\n",
)


@dataclass(frozen=True)
class BandwidthScenarioParameters:
    """Downlink trend law plus spread/asymmetry knobs (model defaults)."""

    down_mean_2006: float = 2.5
    down_growth: float = 0.25
    down_cv: float = 1.0
    asymmetry_mean: float = 8.0
    asymmetry_cv: float = 0.4

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "BandwidthScenarioParameters":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("bandwidth scenario parameters must be a JSON object")
        return cls(**raw)


class BandwidthScenarioGenerator:
    """Generates access-link rows under the block contract."""

    wire_name = "BandwidthScenarioGenerator"
    name = "bandwidth"
    schema = BANDWIDTH_SCHEMA

    def __init__(self, parameters: "BandwidthScenarioParameters | None" = None):
        self._parameters = (
            parameters if parameters is not None else BandwidthScenarioParameters()
        )
        self._model = BandwidthModel(
            down_mean=ExponentialLaw(
                self._parameters.down_mean_2006, self._parameters.down_growth
            ),
            down_cv=self._parameters.down_cv,
            asymmetry_mean=self._parameters.asymmetry_mean,
            asymmetry_cv=self._parameters.asymmetry_cv,
        )

    @property
    def parameters(self) -> BandwidthScenarioParameters:
        return self._parameters

    @property
    def model(self) -> BandwidthModel:
        """The wrapped bandwidth model (the batch-equivalence anchor)."""
        return self._model

    def generate(
        self, when, size: int, rng: np.random.Generator
    ) -> ColumnBlock:
        down, up = self._model.sample(when, size, rng)
        return ColumnBlock(
            {"down_mbps": down, "up_mbps": up, "asymmetry": down / up},
            BANDWIDTH_SCHEMA,
        )


BANDWIDTH_SPEC = register_scenario_spec(
    ScenarioSpec(
        key="bandwidth",
        title="Asymmetric residential access-link rates",
        schema=BANDWIDTH_SCHEMA,
        make_generator=BandwidthScenarioGenerator,
        description="log-normal downlink/uplink Mbit/s with coupled "
        "asymmetry along the era's growth trend",
    )
)
