"""The seed-era scenario families (``fleet scenario``).

The registry (:class:`~repro.registry.ScenarioSpec` and its lookups)
lives in :mod:`repro.registry`, which also registers the host model as
``hosts``; this package re-exports its names.

Layers
------
:mod:`~repro.scenarios.availability` / :mod:`~repro.scenarios.lifetimes` /
:mod:`~repro.scenarios.allocation` / :mod:`~repro.scenarios.bandwidth`
    The four seed-era model layers refactored into scenario generators:
    each emits :class:`~repro.table.ColumnBlock` rows under the
    per-RNG-block determinism contract and registers its spec, whose
    generator a distributed peer rebuilds by its ``wire_name``.
:mod:`~repro.scenarios.runner`
    Memoised streamed passes per ``(scenario, shards)`` for the CLI.
:mod:`~repro.scenarios.probes`
    Day-one validation probes and known-false controls, registered into
    the ``fleet validate`` suite.

Importing this package registers the four families; the registry does
so on the first lookup it cannot answer, the validation runner on first
use.
"""

from repro.registry import (
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
