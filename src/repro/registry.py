"""The generator registry: every family the engine streams, by key and wire name.

A *scenario* is a named, seeded stream of rows: a generator family plus a
column schema plus the reducer profile its exports fold.  The host model
registers here as ``hosts``; the seed-era layers (availability,
lifetimes, allocation, bandwidth) register on import of
:mod:`repro.scenarios`.  A generator is any picklable object with a
:class:`~repro.table.TableSchema` ``schema``, a ``wire_name``, a
``parameters`` record with deterministic ``to_json()`` and a matching
``from_json`` classmethod, and ``generate(when, size, rng) ->
ColumnBlock``, which the engine calls once per RNG block.

This module imports no scenario family and nothing from
:mod:`repro.validation`: a key, wire name or header not registered yet
imports :mod:`repro.scenarios` once and looks again, so an export or a
peer serving a host job never loads them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterator

from repro.core.generator import DEFAULT_PERCORE_MAX_MB, CorrelatedHostGenerator
from repro.engine.accumulate import CorrelationAccumulator, MomentAccumulator
from repro.engine.reduce import QuantileReducer, ReducerFactory
from repro.engine.sharding import DEFAULT_REDUCER_FACTORIES
from repro.hosts.population import HOST_SCHEMA
from repro.stats.sketch import DEFAULT_COMPRESSION
from repro.table import TableSchema


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

    ``make_generator`` is the generator class, which builds the
    default-parameter generator; perturbed variants for validation
    controls build their own generators and never enter this registry.
    ``seed_offset`` shifts the run seed so two scenarios sharing a
    generator family can still draw distinct fleets from one CLI seed.
    ``profile()`` returns the reducer factories the scenario's exports
    fold (shared; treat as frozen), by default :func:`scenario_profile`.
    """

    key: str
    title: str
    schema: TableSchema
    make_generator: "Callable[[], object]"
    seed_offset: int = 0
    description: str = ""
    profile: "Callable[[], dict[str, ReducerFactory]] | None" = None

    def __post_init__(self) -> None:
        if self.profile is None:
            labels = getattr(self.schema, "labels", ())
            object.__setattr__(self, "profile", partial(scenario_profile, labels))


#: Every registered scenario, keyed by :attr:`ScenarioSpec.key`.  Mutated
#: only by :func:`register_scenario_spec`.
SCENARIO_SPECS: "dict[str, ScenarioSpec]" = {}

#: ``{wire_name: (generator class, parameter class)}`` of every
#: registered family, filled by :func:`register_scenario_spec`.
_WIRE_FAMILIES: "dict[str, tuple[type, type]]" = {}


def register_scenario_spec(spec: ScenarioSpec) -> ScenarioSpec:
    """Validate and register one scenario spec (returns it, for chaining).

    Builds one generator from the factory to check the contract up front:
    the generator must advertise the spec's schema, a ``wire_name`` and
    parameters that serialise via ``to_json``.  Its class and its
    parameters' class are the family :func:`wire_builder` rebuilds.
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
    wire_name = getattr(generator, "wire_name", None)
    if not wire_name:
        raise ValueError(f"scenario {spec.key!r}: generator needs a wire_name")
    to_json = getattr(getattr(generator, "parameters", None), "to_json", None)
    if to_json is None:
        raise ValueError(
            f"scenario {spec.key!r}: generator needs parameters.to_json()"
        )
    family = (type(generator), type(generator.parameters))
    if _WIRE_FAMILIES.setdefault(wire_name, family) != family:
        raise ValueError(f"wire generator {wire_name!r} is already registered")
    SCENARIO_SPECS[spec.key] = spec
    return spec


def _registered(find):
    """``find()``, or — when it finds nothing — ``find()`` again after
    importing :mod:`repro.scenarios`, whose families register on import."""
    found = find()
    if found is None:
        import repro.scenarios  # noqa: F401  (registration side effects)

        found = find()
    return found


def get_scenario_spec(key: str) -> ScenarioSpec:
    """Look up one scenario by key (:class:`ValueError` names the known set)."""
    spec = _registered(lambda: SCENARIO_SPECS.get(key))
    if spec is None:
        raise ValueError(f"unknown scenario {key!r}; known: {sorted(SCENARIO_SPECS)}")
    return spec


def iter_scenario_specs() -> "Iterator[ScenarioSpec]":
    """Every scenario, the families of :mod:`repro.scenarios` included, in
    registration order."""
    import repro.scenarios  # noqa: F401  (registration side effects)

    return iter(SCENARIO_SPECS.values())


def schema_for_header(header: str) -> "TableSchema | None":
    """The registered schema whose CSV header is ``header``, if any."""
    return _registered(
        lambda: {s.schema.csv_header: s.schema for s in SCENARIO_SPECS.values()}.get(header)
    )


def generator_params(generator) -> str:
    """A generator's identity: the JSON an export plan fingerprints, a job
    frame carries as ``params`` and :func:`wire_builder` rebuilds from.

    ``generator.parameters.to_json()``, naming a host generator's
    per-core-memory cap too when it is not the default, so two fleets
    never share a plan or a job.
    """
    params = generator.parameters.to_json()
    cap = getattr(generator, "percore_max_mb", DEFAULT_PERCORE_MAX_MB)
    if cap == DEFAULT_PERCORE_MAX_MB:
        return params
    return json.dumps({"parameters": params, "percore_max_mb": cap})


def _rebuild(generator_class: type, parameter_class: type, params: str):
    """The one rebuild rule: the generator class applied to its parameter
    class's ``from_json``, with the per-core cap an identity names."""
    keywords = {}
    named = json.loads(params)
    if isinstance(named, dict) and set(named) == {"parameters", "percore_max_mb"}:
        params, keywords = named["parameters"], {"percore_max_mb": named["percore_max_mb"]}
    return generator_class(parameter_class.from_json(params), **keywords)


def wire_builder(wire_name: str) -> "Callable[[str], object] | None":
    """``params -> generator`` for the family registered as ``wire_name``
    (``None`` if none is): a coordinator can only select a registered
    family, never ship code.  Malformed ``params`` raise
    :class:`ValueError`, :class:`TypeError` or :class:`KeyError`.
    """
    family = _registered(lambda: _WIRE_FAMILIES.get(wire_name))
    return None if family is None else partial(_rebuild, *family)


register_scenario_spec(
    ScenarioSpec(
        key="hosts",
        title="Correlated Internet end hosts (the paper's model, Table X)",
        schema=HOST_SCHEMA,
        make_generator=CorrelatedHostGenerator,
        # The host export folds moments + correlation, the engine default,
        # so host plans and journals keep their reducer set.
        profile=lambda: DEFAULT_REDUCER_FACTORIES,
        description="the Fig 11 correlated creation flow; `fleet export` "
        "is this scenario's export",
    )
)
