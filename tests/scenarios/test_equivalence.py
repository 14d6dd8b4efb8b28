"""Batch-vs-streamed equivalence for every ported scenario.

Each seed-era model layer now lives behind a scenario generator; these
tests prove the port changed nothing.  Per block, the generator's columns
must be bit-for-bit what the legacy batch entry points produce from the
same RNG (the draw order is part of the block determinism contract), and
the streamed reducer statistics of a full run must match a plain numpy
computation over the concatenated batch columns.
"""

from __future__ import annotations

from math import gamma

import numpy as np
import pytest

from repro.allocation.utility import APPLICATIONS
from repro.engine import (
    RNG_BLOCK_SIZE,
    ReducerSet,
    generate_sharded,
    reduce_stream,
)
from repro.scenarios import get_scenario_spec, iter_scenario_specs

BLOCK = 1024
SEED = 20110611
WHEN = 2010.666


def _fresh_rngs():
    """Two identically seeded streams: one for the scenario, one legacy."""
    return np.random.default_rng(97), np.random.default_rng(97)


class TestBlockBitEquality:
    def test_availability_matches_the_availability_model(self):
        generator = get_scenario_spec("availability").make_generator()
        scenario_rng, legacy_rng = _fresh_rngs()
        block = generator.generate(WHEN, BLOCK, scenario_rng)

        p = generator.parameters
        fraction = generator.model.sample_fractions(BLOCK, legacy_rng)
        on_scale = p.mean_on_hours / gamma(1.0 + 1.0 / p.on_shape)
        on_hours = on_scale * legacy_rng.weibull(p.on_shape, BLOCK)
        off_hours = legacy_rng.exponential(
            p.mean_on_hours * (1.0 - fraction) / fraction
        )
        np.testing.assert_array_equal(block["fraction"], fraction)
        np.testing.assert_array_equal(block["on_hours"], on_hours)
        np.testing.assert_array_equal(block["off_hours"], off_hours)
        np.testing.assert_array_equal(
            block["duty_cycle"], on_hours / (on_hours + off_hours)
        )

    def test_lifetimes_match_the_lifetime_model(self):
        generator = get_scenario_spec("lifetimes").make_generator()
        scenario_rng, legacy_rng = _fresh_rngs()
        block = generator.generate(WHEN, BLOCK, scenario_rng)

        p = generator.parameters
        creation = (
            p.cohort_start_year
            + p.cohort_span_years * legacy_rng.random(BLOCK)
        )
        quality = legacy_rng.random(BLOCK)
        lifetime = generator.model.sample_days(creation, quality, legacy_rng)
        survival = generator.model.survival(1.0, creation)
        np.testing.assert_array_equal(block["creation_year"], creation)
        np.testing.assert_array_equal(block["quality"], quality)
        np.testing.assert_array_equal(block["lifetime_days"], lifetime)
        np.testing.assert_array_equal(block["survival_one_year"], survival)

    def test_allocation_matches_utilities_of_the_host_fleet(self):
        generator = get_scenario_spec("allocation").make_generator()
        scenario_rng, legacy_rng = _fresh_rngs()
        block = generator.generate(WHEN, BLOCK, scenario_rng)

        population = generator.host_generator.generate(WHEN, BLOCK, legacy_rng)
        np.testing.assert_array_equal(
            block["utility_seti"],
            APPLICATIONS["SETI@home"].of_population(population),
        )
        np.testing.assert_array_equal(
            block["utility_p2p"],
            APPLICATIONS["P2P"].of_population(population),
        )

    def test_bandwidth_matches_the_bandwidth_model(self):
        generator = get_scenario_spec("bandwidth").make_generator()
        scenario_rng, legacy_rng = _fresh_rngs()
        block = generator.generate(WHEN, BLOCK, scenario_rng)

        down, up = generator.model.sample(WHEN, BLOCK, legacy_rng)
        np.testing.assert_array_equal(block["down_mbps"], down)
        np.testing.assert_array_equal(block["up_mbps"], up)
        np.testing.assert_array_equal(block["asymmetry"], down / up)

    def test_bandwidth_uses_when(self):
        # the one time-dependent scenario: later dates mean faster links
        generator = get_scenario_spec("bandwidth").make_generator()
        early = generator.generate(2008.0, BLOCK, np.random.default_rng(3))
        late = generator.generate(2012.0, BLOCK, np.random.default_rng(3))
        assert late["down_mbps"].mean() > early["down_mbps"].mean()


def _batch_columns(spec, size):
    """The whole run's columns via the spawn contract, outside the engine."""
    generator = spec.make_generator()
    children = np.random.SeedSequence(SEED).spawn(
        (size + RNG_BLOCK_SIZE - 1) // RNG_BLOCK_SIZE
    )
    blocks = []
    produced = 0
    for child in children:
        n = min(RNG_BLOCK_SIZE, size - produced)
        blocks.append(
            generator.generate(WHEN, n, np.random.default_rng(child))
        )
        produced += n
    return {
        label: np.concatenate([block[label] for block in blocks])
        for label in spec.schema.labels
    }


class TestStreamedReducersMatchBatch:
    SIZE = 9000

    @pytest.mark.parametrize(
        "key", [spec.key for spec in iter_scenario_specs()]
    )
    def test_streamed_moments_match_numpy(self, key):
        spec = get_scenario_spec(key)
        stats = generate_sharded(
            spec.make_generator(),
            WHEN,
            self.SIZE,
            SEED,
            shards=2,
            reducers=spec.profile(),
        )
        columns = _batch_columns(spec, self.SIZE)
        means = stats.moments.means()
        stds = stats.moments.stds()
        for label in spec.schema.labels:
            assert means[label] == pytest.approx(
                float(np.mean(columns[label])), rel=1e-12
            )
            assert stds[label] == pytest.approx(
                float(np.std(columns[label])), rel=1e-9
            )

    def test_streamed_correlation_matches_numpy(self):
        spec = get_scenario_spec("bandwidth")
        stats = generate_sharded(
            spec.make_generator(),
            WHEN,
            self.SIZE,
            SEED,
            shards=2,
            reducers=spec.profile(),
        )
        columns = _batch_columns(spec, self.SIZE)
        batch = float(
            np.corrcoef(columns["down_mbps"], columns["up_mbps"])[0, 1]
        )
        streamed = float(
            stats.correlation.matrix().get("down_mbps", "up_mbps")
        )
        assert streamed == pytest.approx(batch, abs=1e-9)

    def test_streamed_medians_are_close_to_batch(self):
        # the t-digest sketch is approximate; pin a loose relative band
        spec = get_scenario_spec("lifetimes")
        stats = generate_sharded(
            spec.make_generator(),
            WHEN,
            self.SIZE,
            SEED,
            reducers=spec.profile(),
        )
        columns = _batch_columns(spec, self.SIZE)
        medians = stats.quantiles.medians()
        batch = float(np.median(columns["lifetime_days"]))
        assert medians["lifetime_days"] == pytest.approx(batch, rel=0.02)


class TestScenarioBlockIsOneChunk:
    @pytest.mark.parametrize(
        "key", [spec.key for spec in iter_scenario_specs()]
    )
    def test_reduce_stream_folds_a_block_as_one_chunk(self, key):
        """A scenario block handed to ``reduce_stream`` is one chunk, as a
        host population is, not an iterable of its column labels."""
        spec = get_scenario_spec(key)
        block = spec.make_generator().generate(
            WHEN, BLOCK, np.random.default_rng(SEED)
        )
        streamed = reduce_stream(block, ReducerSet.from_factories(spec.profile()))
        direct = ReducerSet.from_factories(spec.profile()).update(block)
        assert streamed.to_state() == direct.to_state()
