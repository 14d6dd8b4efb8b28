"""Tests for the reducer protocol layer shared by every statistics path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    CorrelationAccumulator,
    ECDFReducer,
    ExactQuantileReducer,
    HistogramReducer,
    MomentAccumulator,
    QuantileReducer,
    Reducer,
    ReducerSet,
    as_chunk_stream,
    generate_fleet,
    generate_sharded,
    reduce_stream,
    stream_population,
)
from repro.hosts.population import RESOURCE_LABELS, HostPopulation

SEPT_2010 = 2010.667
SEED = 20110611


@pytest.fixture(scope="module")
def fleet(paper_generator):
    return generate_fleet(paper_generator, SEPT_2010, 30_000, SEED)


class TestProtocol:
    @pytest.mark.parametrize(
        "factory",
        [
            MomentAccumulator,
            CorrelationAccumulator,
            QuantileReducer,
            ExactQuantileReducer,
            lambda: HistogramReducer("cores", np.arange(0.0, 17.0)),
            lambda: ECDFReducer("disk_gb"),
        ],
    )
    def test_reducers_satisfy_protocol(self, factory):
        reducer = factory()
        assert isinstance(reducer, Reducer)

    def test_chunk_stream_accepts_population(self, fleet):
        chunks = list(as_chunk_stream(fleet))
        assert len(chunks) == 1 and chunks[0] is fleet

    def test_chunk_stream_accepts_dict(self):
        columns = {label: np.ones(3) for label in RESOURCE_LABELS}
        assert list(as_chunk_stream(columns)) == [columns]

    def test_chunk_stream_passes_iterables_through(self, fleet):
        parts = [fleet, fleet]
        assert list(as_chunk_stream(parts)) == parts


class TestNonFinitePolicy:
    """NaN/±inf inputs are rejected, never silently folded (the policy).

    A single NaN through a Welford mean or co-moment poisons every
    downstream statistic with no error surfacing anywhere; the engine's
    policy is to reject at the fold with a ValueError naming the column,
    and to refuse restoring state payloads that already carry the poison.
    """

    @pytest.mark.parametrize(
        "factory",
        [MomentAccumulator, CorrelationAccumulator, QuantileReducer,
         ExactQuantileReducer],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_update_rejects_non_finite_and_names_the_column(self, factory, bad):
        reducer = factory()
        chunk = {label: np.ones(4) for label in reducer.labels}
        poisoned = next(iter(reducer.labels))
        chunk[poisoned] = np.array([1.0, bad, 3.0, 4.0])
        with pytest.raises(ValueError, match=poisoned):
            reducer.update(chunk)
        # the rejected chunk must not have half-folded anything
        assert reducer.count == 0

    def test_clean_columns_still_fold(self):
        accumulator = MomentAccumulator()
        accumulator.update({label: np.ones(3) for label in accumulator.labels})
        assert accumulator.count == 3

    @pytest.mark.parametrize("field", ["mean", "m2"])
    def test_moment_from_state_rejects_non_finite(self, field):
        from repro.stats.state import StateError

        state = MomentAccumulator().update(
            {label: np.ones(2) for label in MomentAccumulator().labels}
        ).to_state()
        state[field][0] = float("inf")
        with pytest.raises(StateError, match="non-finite"):
            MomentAccumulator.from_state(state)

    @pytest.mark.parametrize("field", ["mean", "comoment"])
    def test_correlation_from_state_rejects_non_finite(self, field):
        from repro.stats.state import StateError

        accumulator = CorrelationAccumulator()
        accumulator.update(
            {label: np.arange(3, dtype=float) for label in accumulator.labels}
        )
        state = accumulator.to_state()
        if field == "mean":
            state[field][0] = float("nan")
        else:
            state[field][0][0] = float("nan")
        with pytest.raises(StateError, match="non-finite"):
            CorrelationAccumulator.from_state(state)

    def test_exact_quantile_from_state_rejects_non_finite(self):
        from repro.stats.state import StateError

        reducer = ExactQuantileReducer()
        reducer.update({label: np.ones(2) for label in reducer.labels})
        state = reducer.to_state()
        state["data"][0][0] = float("nan")
        with pytest.raises(StateError, match="non-finite"):
            ExactQuantileReducer.from_state(state)

    def test_histogram_from_state_rejects_non_finite_edges(self):
        from repro.stats.state import StateError

        state = HistogramReducer("cores", [0.0, 1.0, 2.0]).to_state()
        state["edges"][-1] = float("inf")
        with pytest.raises(StateError, match="non-finite"):
            HistogramReducer.from_state(state)


class TestQuantileReducers:
    def test_streamed_medians_match_batch(self, paper_generator, fleet):
        reducer = QuantileReducer()
        for chunk in stream_population(
            paper_generator, SEPT_2010, len(fleet), SEED, chunk_size=7_000
        ):
            reducer.update(chunk)
        assert reducer.count == len(fleet)
        exact = fleet.medians()
        sketched = reducer.medians()
        for label in RESOURCE_LABELS:
            assert sketched[label] == pytest.approx(exact[label], rel=0.01), label

    def test_exact_reducer_matches_numpy(self, fleet):
        reducer = ExactQuantileReducer().update(fleet)
        for label in RESOURCE_LABELS:
            assert reducer.medians()[label] == float(np.median(fleet.column(label)))
        deciles = reducer.result()["disk_gb"]
        assert deciles[0.5] == float(np.quantile(fleet.disk_gb, 0.5))

    def test_exact_reducer_merge(self, fleet):
        half = len(fleet) // 2
        cols = {label: fleet.column(label) for label in RESOURCE_LABELS}
        left = {label: col[:half] for label, col in cols.items()}
        right = {label: col[half:] for label, col in cols.items()}
        merged = (
            ExactQuantileReducer()
            .update(left)
            .merge(ExactQuantileReducer().update(right))
        )
        assert merged.medians() == fleet.medians()

    def test_exact_reducer_empty_medians_are_nan(self):
        # Matches np.median on an empty sample (and the sketch reducer),
        # keeping batch HostPopulation.medians() nan-on-empty.
        assert all(np.isnan(v) for v in ExactQuantileReducer().medians().values())

    def test_exact_reducer_empty_column_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ExactQuantileReducer().column("cores")

    def test_label_mismatch_rejected(self):
        with pytest.raises(ValueError, match="label mismatch"):
            QuantileReducer(("cores",)).merge(QuantileReducer(("disk_gb",)))
        with pytest.raises(ValueError, match="label mismatch"):
            ExactQuantileReducer(("cores",)).merge(ExactQuantileReducer(("disk_gb",)))

    def test_population_medians_delegate_to_reducer(self, fleet):
        # The batch path and the exact reducer are the same code path now.
        expected = ExactQuantileReducer().update(fleet).medians()
        assert fleet.medians() == expected

    def test_small_dict_chunk_not_aliased(self):
        # The sketches read the chunk's own columns; values still pending
        # after the update must not change when the caller reuses them.
        column = np.arange(1.0, 11.0)
        reducer = QuantileReducer(("cores",)).update({"cores": column})
        column[:] = 9.0
        assert reducer.medians() == {"cores": 5.5}


class TestHistogramReducer:
    def test_matches_numpy_histogram(self, fleet):
        edges = np.linspace(0.0, 16000.0, 33)
        reducer = HistogramReducer("dhrystone", edges).update(fleet)
        expected_counts, _ = np.histogram(fleet.dhrystone, bins=edges)
        np.testing.assert_array_equal(reducer.counts, expected_counts)

    def test_chunked_equals_whole(self, paper_generator, fleet):
        edges = np.linspace(0.0, 16000.0, 33)
        whole = HistogramReducer("dhrystone", edges).update(fleet)
        chunked = HistogramReducer("dhrystone", edges)
        for chunk in stream_population(
            paper_generator, SEPT_2010, len(fleet), SEED, chunk_size=999
        ):
            chunked.update(chunk)
        np.testing.assert_array_equal(chunked.counts, whole.counts)

    def test_merge_adds_counts(self, fleet):
        edges = np.linspace(0.0, 16000.0, 9)
        a = HistogramReducer("dhrystone", edges).update(fleet)
        b = HistogramReducer("dhrystone", edges).update(fleet)
        a.merge(b)
        expected, _ = np.histogram(fleet.dhrystone, bins=edges)
        np.testing.assert_array_equal(a.counts, 2 * expected)

    def test_density_normalised(self, fleet):
        edges = np.linspace(0.0, 20000.0, 41)
        reducer = HistogramReducer("dhrystone", edges).update(fleet)
        centres, density = reducer.result()
        assert centres.shape == density.shape
        widths = np.diff(edges)
        assert float((density * widths).sum()) == pytest.approx(1.0, abs=0.02)

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError, match="edges"):
            HistogramReducer("cores", [1.0])
        with pytest.raises(ValueError, match="increasing"):
            HistogramReducer("cores", [1.0, 1.0, 2.0])

    def test_mismatched_merge_rejected(self):
        a = HistogramReducer("cores", [0.0, 1.0])
        b = HistogramReducer("cores", [0.0, 2.0])
        with pytest.raises(ValueError, match="share label and edges"):
            a.merge(b)

    def test_mismatched_transform_merge_rejected(self):
        a = HistogramReducer("disk_gb", [0.0, 1.0], transform=np.log10)
        b = HistogramReducer("disk_gb", [0.0, 1.0])
        with pytest.raises(ValueError, match="transform"):
            a.merge(b)


class TestECDFReducer:
    def test_matches_exact_ecdf(self, fleet):
        from repro.stats.ecdf import ECDF

        reducer = ECDFReducer("whetstone").update(fleet)
        approx = reducer.result()
        exact = ECDF.from_sample(fleet.whetstone)
        probes = np.quantile(fleet.whetstone, [0.1, 0.25, 0.5, 0.75, 0.9])
        np.testing.assert_allclose(approx(probes), exact(probes), atol=0.02)

    def test_merge(self, fleet):
        half = len(fleet) // 2
        cols = {label: fleet.column(label) for label in RESOURCE_LABELS}
        left = {label: col[:half] for label, col in cols.items()}
        right = {label: col[half:] for label, col in cols.items()}
        merged = ECDFReducer("whetstone").update(left)
        merged.merge(ECDFReducer("whetstone").update(right))
        assert merged.count == len(fleet)

    def test_mismatched_transform_merge_rejected(self):
        a = ECDFReducer("disk_gb", transform=np.log10)
        b = ECDFReducer("disk_gb")
        with pytest.raises(ValueError, match="transform"):
            a.merge(b)


class TestReducerSet:
    def test_update_merge_result(self, fleet):
        half = len(fleet) // 2
        cols = {label: fleet.column(label) for label in RESOURCE_LABELS}
        left = {label: col[:half] for label, col in cols.items()}
        right = {label: col[half:] for label, col in cols.items()}
        factories = {"moments": MomentAccumulator, "quantiles": QuantileReducer}
        a = ReducerSet.from_factories(factories).update(left)
        b = ReducerSet.from_factories(factories).update(right)
        a.merge(b)
        whole = ReducerSet.from_factories(factories).update(fleet)
        assert a["moments"].means() == pytest.approx(whole["moments"].means())
        result = a.result()
        assert set(result) == {"moments", "quantiles"}

    def test_mismatched_sets_rejected(self):
        a = ReducerSet({"moments": MomentAccumulator()})
        b = ReducerSet({"correlation": CorrelationAccumulator()})
        with pytest.raises(ValueError, match="reducer-set mismatch"):
            a.merge(b)

    def test_reduce_stream_helper(self, paper_generator, fleet):
        reducers = reduce_stream(
            stream_population(paper_generator, SEPT_2010, len(fleet), SEED),
            {"moments": MomentAccumulator()},
        )
        assert reducers["moments"].count == len(fleet)
        assert reducers["moments"].means() == pytest.approx(fleet.means(), rel=1e-9)

    def test_membership_helpers(self):
        reducers = ReducerSet({"moments": MomentAccumulator()})
        assert "moments" in reducers
        assert "quantiles" not in reducers
        assert reducers.get("quantiles") is None
        assert reducers.names() == ("moments",)
        assert len(reducers) == 1


class TestColumnCache:
    """ReducerSet.update shares one chunk normalisation across members."""

    def test_cache_matches_population_columns(self, fleet):
        from repro.engine.accumulate import ColumnCache

        cache = ColumnCache(fleet)
        assert len(cache) == len(fleet)
        np.testing.assert_array_equal(cache["cores"], fleet.cores)
        np.testing.assert_array_equal(cache.column("mem_per_core"), fleet.mem_per_core)
        # memoised: same object on repeat access
        assert cache["disk_gb"] is cache["disk_gb"]
        assert cache.matrix(RESOURCE_LABELS) is cache.matrix(RESOURCE_LABELS)

    def test_as_matrix_through_cache_is_identical(self, fleet):
        from repro.engine.accumulate import ColumnCache, as_matrix

        direct = as_matrix(fleet, RESOURCE_LABELS)
        cached = as_matrix(ColumnCache(fleet), RESOURCE_LABELS)
        np.testing.assert_array_equal(direct, cached)

    def test_nan_policy_message_preserved_through_cache(self):
        from repro.engine.accumulate import ColumnCache, as_matrix

        chunk = {"cores": np.array([1.0, 2.0]), "memory_mb": np.array([np.nan, 1.0])}
        with pytest.raises(ValueError, match="memory_mb"):
            as_matrix(ColumnCache(chunk), ("cores", "memory_mb"))

    def test_set_update_results_unchanged_by_caching(self, fleet):
        factories = {
            "moments": MomentAccumulator,
            "correlation": CorrelationAccumulator,
            "quantiles": QuantileReducer,
        }
        through_set = ReducerSet.from_factories(factories).update(fleet)
        solo_moments = MomentAccumulator().update(fleet)
        solo_correlation = CorrelationAccumulator().update(fleet)
        assert through_set["moments"].means() == solo_moments.means()
        np.testing.assert_array_equal(
            through_set["correlation"].matrix().values,
            solo_correlation.matrix().values,
        )

    def test_dict_chunks_still_accepted(self, fleet):
        cols = {label: fleet.column(label) for label in RESOURCE_LABELS}
        reducers = ReducerSet(
            {"moments": MomentAccumulator(), "quantiles": QuantileReducer()}
        ).update(cols)
        assert reducers["moments"].count == len(fleet)

    def test_cache_keeps_dict_duck_typing(self, fleet):
        # Custom reducers may probe membership or iterate labels on the
        # {label: column} chunk shape; the wrapper must not break that.
        from repro.engine.accumulate import ColumnCache

        cols = {label: fleet.column(label) for label in RESOURCE_LABELS}
        cache = ColumnCache(cols)
        assert "cores" in cache and "nope" not in cache
        assert tuple(cache) == RESOURCE_LABELS
        assert cache.keys() == list(RESOURCE_LABELS)
        wrapped = ColumnCache(fleet)
        assert "mem_per_core" in wrapped and "nope" not in wrapped
        assert "cores" in list(wrapped)


class TestStreamProfileFactories:
    def test_memoised_shared_construction(self):
        from repro.engine.reduce import stream_profile_factories

        a = stream_profile_factories()
        b = stream_profile_factories()
        assert a is b  # hoisted: one construction site, cached
        assert set(a) == {"moments", "correlation", "quantiles"}
        assert set(stream_profile_factories(correlation=False)) == {
            "moments",
            "quantiles",
        }

    def test_factories_produce_fresh_reducers(self, fleet):
        from repro.engine.reduce import stream_profile_factories

        factories = stream_profile_factories(("cores",), 50, correlation=False)
        one = ReducerSet.from_factories(factories).update(fleet)
        two = ReducerSet.from_factories(factories)
        assert one["moments"].count == len(fleet)
        assert two["moments"].count == 0  # no shared state between sets
        assert one["quantiles"].sketch("cores").compression == 50


class TestShardedPluggableReducers:
    def test_quantiles_flag_adds_sketches(self, paper_generator, fleet):
        stats = generate_sharded(
            paper_generator, SEPT_2010, len(fleet), SEED, shards=1, quantiles=True
        )
        exact = fleet.medians()
        for label, median in stats.medians().items():
            assert median == pytest.approx(exact[label], rel=0.01), label
        assert "median" in stats.summary_table()

    def test_sharded_quantiles_match_across_shard_counts(self, paper_generator):
        one = generate_sharded(
            paper_generator, SEPT_2010, 30_000, SEED, shards=1, quantiles=True
        )
        three = generate_sharded(
            paper_generator, SEPT_2010, 30_000, SEED, shards=3, quantiles=True
        )
        for label in RESOURCE_LABELS:
            assert three.medians()[label] == pytest.approx(
                one.medians()[label], rel=0.02
            ), label

    def test_custom_reducer_set(self, paper_generator, fleet):
        stats = generate_sharded(
            paper_generator,
            SEPT_2010,
            len(fleet),
            SEED,
            shards=2,
            reducers={"moments": MomentAccumulator, "quantiles": QuantileReducer},
        )
        assert stats.correlation is None
        assert stats.moments.count == len(fleet)
        assert stats.moments.means() == pytest.approx(fleet.means(), rel=1e-9)

    def test_medians_without_quantiles_rejected(self, paper_generator):
        stats = generate_sharded(paper_generator, SEPT_2010, 5_000, SEED, shards=1)
        with pytest.raises(ValueError, match="quantile reducer"):
            stats.medians()

    def test_summary_table_without_moments_rejected(self, paper_generator):
        stats = generate_sharded(
            paper_generator,
            SEPT_2010,
            1_000,
            SEED,
            shards=1,
            reducers={"quantiles": QuantileReducer},
        )
        with pytest.raises(ValueError, match="moment reducer"):
            stats.summary_table()

    def test_empty_quantile_reducer_reports_nan(self):
        reducer = QuantileReducer()
        assert all(np.isnan(v) for v in reducer.medians().values())
        assert all(
            np.isnan(v) for row in reducer.result().values() for v in row.values()
        )

    def test_bad_chunk_size_rejected(self, paper_generator):
        with pytest.raises(ValueError, match="chunk_size"):
            generate_sharded(paper_generator, SEPT_2010, 100, SEED, chunk_size=0)
