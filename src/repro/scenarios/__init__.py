"""The declarative scenario registry (``fleet scenario``).

Layers
------
:mod:`~repro.scenarios.registry`
    :class:`~repro.scenarios.registry.ScenarioSpec` records and the
    registration surface; the shared memoised reducer profile.
:mod:`~repro.scenarios.availability` / :mod:`~repro.scenarios.lifetimes` /
:mod:`~repro.scenarios.allocation` / :mod:`~repro.scenarios.bandwidth`
    The four seed-era model layers refactored into scenario generators:
    each emits :class:`~repro.table.ColumnBlock` rows under the
    per-RNG-block determinism contract and registers a wire builder so
    ``--backend distributed`` works unchanged.
:mod:`~repro.scenarios.runner`
    Memoised streamed passes per ``(scenario, shards)`` for the CLI.
:mod:`~repro.scenarios.probes`
    Day-one validation probes and known-false controls, registered into
    the ``fleet validate`` suite.

Importing this package is what registers everything — the validation
runner does so lazily on first use.
"""

from repro.scenarios.registry import (
    SCENARIO_SPECS,
    ScenarioSpec,
    get_scenario_spec,
    iter_scenario_specs,
    register_scenario_spec,
    scenario_profile,
)
from repro.scenarios.availability import (
    AVAILABILITY_SCHEMA,
    AvailabilityScenarioGenerator,
    AvailabilityScenarioParameters,
)
from repro.scenarios.lifetimes import (
    LIFETIME_SCHEMA,
    LifetimeScenarioGenerator,
    LifetimeScenarioParameters,
)
from repro.scenarios.allocation import (
    ALLOCATION_SCHEMA,
    AllocationScenarioGenerator,
    AllocationScenarioParameters,
)
from repro.scenarios.bandwidth import (
    BANDWIDTH_SCHEMA,
    BandwidthScenarioGenerator,
    BandwidthScenarioParameters,
)
from repro.scenarios.runner import ScenarioRun
from repro.scenarios import probes as _probes  # noqa: F401  (registration)

__all__ = [
    "ALLOCATION_SCHEMA",
    "AVAILABILITY_SCHEMA",
    "AllocationScenarioGenerator",
    "AllocationScenarioParameters",
    "AvailabilityScenarioGenerator",
    "AvailabilityScenarioParameters",
    "BANDWIDTH_SCHEMA",
    "BandwidthScenarioGenerator",
    "BandwidthScenarioParameters",
    "LIFETIME_SCHEMA",
    "LifetimeScenarioGenerator",
    "LifetimeScenarioParameters",
    "SCENARIO_SPECS",
    "ScenarioRun",
    "ScenarioSpec",
    "get_scenario_spec",
    "iter_scenario_specs",
    "register_scenario_spec",
    "scenario_profile",
]
