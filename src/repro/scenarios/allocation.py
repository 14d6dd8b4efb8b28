"""Allocation scenario: Table IX application utilities over streamed fleets.

Wraps the correlated host generator plus the paper's Cobb–Douglas
application profiles (:data:`~repro.allocation.utility.APPLICATIONS`) into
the scenario contract: each block internally draws a correlated host block
at ``when`` and emits the per-host utility of every Table IX application —
the quantity the allocation scheduler experiments rank hosts by, now
computable over fleets that never fit in memory.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from repro.allocation.utility import APPLICATIONS
from repro.core.generator import CorrelatedHostGenerator
from repro.registry import ScenarioSpec, register_scenario_spec
from repro.table import ColumnBlock, TableSchema
from repro.hosts.population import HostPopulation

#: Column label → Table IX application name.
APPLICATION_COLUMNS: "tuple[tuple[str, str], ...]" = (
    ("utility_seti", "SETI@home"),
    ("utility_folding", "Folding@home"),
    ("utility_climate", "Climate Prediction"),
    ("utility_p2p", "P2P"),
)

ALLOCATION_LABELS = tuple(label for label, _ in APPLICATION_COLUMNS)

ALLOCATION_SCHEMA = TableSchema(
    labels=ALLOCATION_LABELS,
    csv_fmt="%.6f,%.6f,%.6f,%.6f",
    csv_header="utility_seti,utility_folding,utility_climate,utility_p2p\n",
)


@dataclass(frozen=True)
class AllocationScenarioParameters:
    """Host-fleet perturbation knobs for the utility columns.

    ``dhrystone_multiplier`` scales the generated integer speeds before
    the utilities are evaluated — the validation control doubles it, which
    must shift every application's utility by its ``2^γ`` factor.
    """

    dhrystone_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if self.dhrystone_multiplier <= 0:
            raise ValueError("dhrystone_multiplier must be positive")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AllocationScenarioParameters":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("allocation scenario parameters must be a JSON object")
        return cls(**raw)


class AllocationScenarioGenerator:
    """Generates Table IX utility rows under the block contract.

    The internal host draw consumes exactly the per-block RNG stream the
    correlated generator uses, so the utility columns inherit host-fleet
    determinism: block ``i`` of the utilities is a pure function of block
    ``i`` of the paper-reference host fleet at the same seed.
    """

    wire_name = "AllocationScenarioGenerator"
    name = "allocation"
    schema = ALLOCATION_SCHEMA

    def __init__(self, parameters: "AllocationScenarioParameters | None" = None):
        self._parameters = (
            parameters if parameters is not None else AllocationScenarioParameters()
        )
        self._hosts = CorrelatedHostGenerator()

    @property
    def parameters(self) -> AllocationScenarioParameters:
        return self._parameters

    @property
    def host_generator(self) -> CorrelatedHostGenerator:
        """The wrapped host generator (the batch-equivalence anchor)."""
        return self._hosts

    def generate(
        self, when, size: int, rng: np.random.Generator
    ) -> ColumnBlock:
        population = self._hosts.generate(when, size, rng)
        multiplier = self._parameters.dhrystone_multiplier
        if multiplier != 1.0:
            population = HostPopulation(
                cores=population.cores,
                memory_mb=population.memory_mb,
                dhrystone=population.dhrystone * multiplier,
                whetstone=population.whetstone,
                disk_gb=population.disk_gb,
            )
        return ColumnBlock(
            {
                label: APPLICATIONS[app].of_population(population)
                for label, app in APPLICATION_COLUMNS
            },
            ALLOCATION_SCHEMA,
        )


ALLOCATION_SPEC = register_scenario_spec(
    ScenarioSpec(
        key="allocation",
        title="Table IX Cobb-Douglas application utilities per host",
        schema=ALLOCATION_SCHEMA,
        make_generator=AllocationScenarioGenerator,
        description="per-host utilities of the four Table IX applications "
        "over the correlated reference fleet",
    )
)
