"""Registry invariants for the declarative scenario specs."""

from __future__ import annotations

import pytest

from repro.engine.reduce import VALIDATION_PROFILE_NAMES
from repro.table import TableSchema
from repro.scenarios import (
    AVAILABILITY_SCHEMA,
    AllocationScenarioParameters,
    AvailabilityScenarioGenerator,
    AvailabilityScenarioParameters,
    BandwidthScenarioParameters,
    LifetimeScenarioParameters,
    ScenarioSpec,
    get_scenario_spec,
    iter_scenario_specs,
    register_scenario_spec,
    scenario_profile,
)

SEED_ERA_KEYS = ("availability", "lifetimes", "allocation", "bandwidth")


class TestRegistry:
    def test_seed_era_layers_are_registered(self):
        keys = [spec.key for spec in iter_scenario_specs()]
        for key in SEED_ERA_KEYS:
            assert key in keys

    def test_unknown_key_names_the_known_set(self):
        with pytest.raises(ValueError, match="'availability'"):
            get_scenario_spec("nope")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate scenario key"):
            register_scenario_spec(get_scenario_spec("availability"))

    def test_blank_and_non_slug_keys_rejected(self):
        for key in ("", "no spaces", "bad/key"):
            with pytest.raises(ValueError, match="non-empty slug"):
                register_scenario_spec(
                    ScenarioSpec(
                        key=key,
                        title="t",
                        schema=AVAILABILITY_SCHEMA,
                        make_generator=AvailabilityScenarioGenerator,
                    )
                )

    def test_generator_schema_must_match_the_spec(self):
        other = TableSchema(
            labels=("x",), csv_fmt="%.4f", csv_header="x\n"
        )
        with pytest.raises(ValueError, match="schema does not match"):
            register_scenario_spec(
                ScenarioSpec(
                    key="mismatched",
                    title="t",
                    schema=other,
                    make_generator=AvailabilityScenarioGenerator,
                )
            )
        assert "mismatched" not in [s.key for s in iter_scenario_specs()]

    def test_generator_needs_wire_name_and_parameters(self):
        class Bare:
            schema = AVAILABILITY_SCHEMA

        with pytest.raises(ValueError, match="wire_name"):
            register_scenario_spec(
                ScenarioSpec(
                    key="bare",
                    title="t",
                    schema=AVAILABILITY_SCHEMA,
                    make_generator=Bare,
                )
            )


class TestProfiles:
    def test_profile_is_memoised_per_label_set(self):
        spec = get_scenario_spec("availability")
        assert spec.profile() is spec.profile()
        assert spec.profile() is scenario_profile(spec.schema.labels)

    def test_profile_names_match_the_validation_profile(self):
        # The hosts export folds the engine default, so host plans and
        # journals keep their reducer set; every other scenario folds the
        # validation profile.
        from repro.engine import DEFAULT_REDUCER_FACTORIES

        for spec in iter_scenario_specs():
            expected = (
                DEFAULT_REDUCER_FACTORIES if spec.key == "hosts"
                else VALIDATION_PROFILE_NAMES
            )
            assert tuple(sorted(spec.profile())) == tuple(sorted(expected))

    def test_distinct_schemas_get_distinct_profiles(self):
        a = get_scenario_spec("availability").profile()
        b = get_scenario_spec("bandwidth").profile()
        assert a is not b


class TestParameters:
    PARAMETER_TYPES = (
        AvailabilityScenarioParameters,
        LifetimeScenarioParameters,
        AllocationScenarioParameters,
        BandwidthScenarioParameters,
    )

    def test_json_round_trip(self):
        for cls in self.PARAMETER_TYPES:
            params = cls()
            assert cls.from_json(params.to_json()) == params

    def test_to_json_is_deterministic(self):
        for cls in self.PARAMETER_TYPES:
            assert cls().to_json() == cls().to_json()

    def test_from_json_rejects_non_objects(self):
        for cls in self.PARAMETER_TYPES:
            with pytest.raises(ValueError, match="JSON object"):
                cls.from_json("[1, 2]")

    def test_registered_generators_carry_their_parameters(self):
        for spec in iter_scenario_specs():
            generator = spec.make_generator()
            blob = generator.parameters.to_json()
            assert isinstance(blob, str) and blob.startswith("{")
