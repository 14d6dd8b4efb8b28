"""The declarative scenario registry (``fleet scenario``).

A *scenario* is a named, seeded stream of rows: a generator family plus a
column schema plus the reducer profile its statistics run under.  The
registry makes the seed-era model layers (availability churn, lifetime
cohorts, allocation utilities, bandwidth) first-class citizens of the
streaming engine: every registered scenario's blocks flow through
:func:`~repro.engine.sharding.generate_sharded`,
:func:`~repro.engine.writer.export_fleet_blocks`, checkpoint/resume and
the distributed backend exactly like host fleets, under the same
per-RNG-block ``SeedSequence.spawn`` determinism contract.

A scenario generator is any picklable object with

``schema``
    a :class:`~repro.table.TableSchema` naming its columns,
``parameters``
    a frozen record with deterministic ``to_json()`` (and a matching
    ``from_json`` classmethod, so the generator can travel the
    distributed wire by its registered ``wire_name``),
``generate(when, size, rng) -> ColumnBlock``
    the block factory the engine calls once per RNG block.

:class:`ScenarioSpec` bundles the generator factory with the metadata the
CLI and the validation suite need; :func:`register_scenario_spec` is the
single mutation point.  The concrete scenarios live in sibling modules
(:mod:`~repro.scenarios.availability`, :mod:`~repro.scenarios.lifetimes`,
:mod:`~repro.scenarios.allocation`, :mod:`~repro.scenarios.bandwidth`)
and register themselves on import of :mod:`repro.scenarios`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterator

from repro.engine.accumulate import CorrelationAccumulator, MomentAccumulator
from repro.engine.reduce import ReducerFactory, QuantileReducer
from repro.table import TableSchema
from repro.stats.sketch import DEFAULT_COMPRESSION


@lru_cache(maxsize=None)
def scenario_profile(
    labels: "tuple[str, ...]",
    compression: int = DEFAULT_COMPRESSION,
) -> "dict[str, ReducerFactory]":
    """The memoised reducer profile of a scenario column set.

    Moments + correlation + quantile sketch over ``labels`` — the scenario
    counterpart of
    :func:`~repro.engine.reduce.validation_profile_factories`, memoised for
    the same reason: the validation runner's factory-union check compares
    factories by identity, and every member must be a wire-safe
    ``functools.partial`` over a :data:`~repro.engine.distributed.WIRE_REDUCER_FACTORIES`
    base so scenario runs can use the distributed backend.  Cached and
    shared — treat the returned dict as frozen; copy before mutating.
    """
    labels = tuple(labels)
    return {
        "moments": partial(MomentAccumulator, labels),
        "correlation": partial(CorrelationAccumulator, labels),
        "quantiles": partial(QuantileReducer, labels, compression),
    }


@dataclass(frozen=True)
class ScenarioSpec:
    """One registered scenario: generator family, schema, reducer profile.

    ``make_generator`` is a zero-argument factory returning the
    default-parameter generator (usually the generator class itself);
    perturbed variants for validation controls build their own generators
    and never enter this registry.  ``seed_offset`` shifts the run seed so
    two scenarios sharing a generator family can still draw distinct
    fleets from one CLI seed.
    """

    key: str
    title: str
    schema: TableSchema
    make_generator: "Callable[[], object]"
    seed_offset: int = 0
    description: str = ""

    def profile(self) -> "dict[str, ReducerFactory]":
        """The scenario's streamed reducer profile (shared, memoised)."""
        return scenario_profile(self.schema.labels)


#: Every registered scenario, keyed by :attr:`ScenarioSpec.key`.  Mutated
#: only by :func:`register_scenario_spec`.
SCENARIO_SPECS: "dict[str, ScenarioSpec]" = {}


def register_scenario_spec(spec: ScenarioSpec) -> ScenarioSpec:
    """Validate and register one scenario spec (returns it, for chaining).

    Builds one generator from the factory to check the contract up front:
    the generator must advertise the spec's schema, a ``wire_name`` (so
    ``--backend distributed`` can rebuild it worker-side) and parameters
    that serialise via ``to_json``.
    """
    if not spec.key or not spec.key.replace("_", "").isalnum():
        raise ValueError(f"scenario key must be a non-empty slug, got {spec.key!r}")
    if spec.key in SCENARIO_SPECS:
        raise ValueError(f"duplicate scenario key {spec.key!r}")
    if not spec.title:
        raise ValueError(f"scenario {spec.key!r}: title must be non-empty")
    if not isinstance(spec.schema, TableSchema):
        raise ValueError(f"scenario {spec.key!r}: schema must be a TableSchema")
    generator = spec.make_generator()
    if getattr(generator, "schema", None) != spec.schema:
        raise ValueError(
            f"scenario {spec.key!r}: generator schema does not match the spec"
        )
    if not getattr(generator, "wire_name", None):
        raise ValueError(f"scenario {spec.key!r}: generator needs a wire_name")
    to_json = getattr(getattr(generator, "parameters", None), "to_json", None)
    if to_json is None:
        raise ValueError(
            f"scenario {spec.key!r}: generator needs parameters.to_json()"
        )
    SCENARIO_SPECS[spec.key] = spec
    return spec


def get_scenario_spec(key: str) -> ScenarioSpec:
    """Look up one scenario by key (:class:`ValueError` names the known set)."""
    try:
        return SCENARIO_SPECS[key]
    except KeyError:
        raise ValueError(
            f"unknown scenario {key!r}; known: {sorted(SCENARIO_SPECS)}"
        ) from None


def iter_scenario_specs() -> "Iterator[ScenarioSpec]":
    """Registered scenarios in registration order."""
    return iter(SCENARIO_SPECS.values())
