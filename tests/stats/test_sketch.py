"""Unit tests for the mergeable quantile sketch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.stats.sketch import QuantileSketch

DECILES = np.arange(0.1, 0.91, 0.1)


class TestSmallStreams:
    def test_small_stream_is_near_exact(self):
        values = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        sketch = QuantileSketch().update(values)
        assert sketch.count == 8
        assert sketch.min == 1.0
        assert sketch.max == 9.0
        assert sketch.median() == pytest.approx(np.median(values), rel=0.15)

    def test_single_value(self):
        sketch = QuantileSketch().update(42.0)
        assert sketch.count == 1
        assert sketch.quantile(0.0) == 42.0
        assert sketch.quantile(0.5) == 42.0
        assert sketch.quantile(1.0) == 42.0

    def test_empty_sketch_rejects_queries(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError, match="empty sketch"):
            sketch.quantile(0.5)
        with pytest.raises(ValueError, match="empty sketch"):
            sketch.cdf(1.0)

    def test_empty_update_is_noop(self):
        sketch = QuantileSketch().update(np.empty(0))
        assert sketch.count == 0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            QuantileSketch().update([1.0, np.inf])
        with pytest.raises(ValueError, match="finite"):
            QuantileSketch().update([np.nan])

    def test_probability_bounds_checked(self):
        sketch = QuantileSketch().update([1.0, 2.0])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            sketch.quantile(1.5)

    def test_compression_floor(self):
        with pytest.raises(ValueError, match="compression"):
            QuantileSketch(compression=5)


class TestLargeStreams:
    @pytest.fixture(scope="class")
    def lognormal(self):
        rng = np.random.default_rng(20110611)
        return rng.lognormal(mean=3.0, sigma=1.4, size=100_000)

    @pytest.fixture(scope="class")
    def sketch(self, lognormal):
        sketch = QuantileSketch()
        for chunk in np.array_split(lognormal, 23):
            sketch.update(chunk)
        return sketch

    def test_deciles_near_exact(self, sketch, lognormal):
        exact = np.quantile(lognormal, DECILES)
        estimated = np.asarray(sketch.quantile(DECILES))
        np.testing.assert_allclose(estimated, exact, rtol=0.01)

    def test_median_within_tolerance(self, sketch, lognormal):
        assert sketch.median() == pytest.approx(float(np.median(lognormal)), rel=0.005)

    def test_extremes_exact(self, sketch, lognormal):
        assert sketch.min == lognormal.min()
        assert sketch.max == lognormal.max()
        assert sketch.quantile(0.0) == lognormal.min()
        assert sketch.quantile(1.0) == lognormal.max()

    def test_bounded_state(self, sketch):
        # The whole point of sketching: state stays ~2x compression, not n.
        assert sketch.centroid_count() < 3 * sketch.compression

    def test_quantiles_monotone(self, sketch):
        probs = np.linspace(0.0, 1.0, 101)
        values = np.asarray(sketch.quantile(probs))
        assert np.all(np.diff(values) >= 0)

    def test_cdf_quantile_consistency(self, sketch, lognormal):
        median = float(np.median(lognormal))
        assert sketch.cdf(median) == pytest.approx(0.5, abs=0.01)
        assert sketch.cdf(sketch.min - 1.0) == 0.0
        assert sketch.cdf(sketch.max + 1.0) == 1.0

    def test_chunking_invariant(self, lognormal):
        one = QuantileSketch().update(lognormal)
        many = QuantileSketch()
        for chunk in np.array_split(lognormal, 101):
            many.update(chunk)
        exact = np.quantile(lognormal, DECILES)
        np.testing.assert_allclose(np.asarray(one.quantile(DECILES)), exact, rtol=0.01)
        np.testing.assert_allclose(np.asarray(many.quantile(DECILES)), exact, rtol=0.01)


class TestMerge:
    def test_merge_matches_single_stream(self):
        rng = np.random.default_rng(7)
        data = rng.lognormal(mean=2.0, sigma=1.0, size=60_000)
        whole = QuantileSketch().update(data)
        left = QuantileSketch().update(data[:20_000])
        right = QuantileSketch().update(data[20_000:])
        merged = left.merge(right)
        assert merged.count == whole.count == data.size
        np.testing.assert_allclose(
            np.asarray(merged.quantile(DECILES)),
            np.asarray(whole.quantile(DECILES)),
            rtol=0.02,
        )

    def test_merge_empty_is_noop(self):
        sketch = QuantileSketch().update([1.0, 2.0, 3.0])
        before = sketch.median()
        sketch.merge(QuantileSketch())
        assert sketch.count == 3
        assert sketch.median() == before

    def test_merge_into_empty(self):
        other = QuantileSketch().update([1.0, 2.0, 3.0])
        sketch = QuantileSketch().merge(other)
        assert sketch.count == 3
        assert sketch.min == 1.0
        assert sketch.max == 3.0

    def test_merge_disjoint_ranges(self):
        low = QuantileSketch().update(np.linspace(0.0, 1.0, 5_000))
        high = QuantileSketch().update(np.linspace(100.0, 101.0, 5_000))
        low.merge(high)
        # The median of a perfectly bimodal sample falls anywhere in the
        # empty gap; the quartiles sit in the dense halves and are sharp.
        assert 1.0 <= low.median() <= 100.0
        assert low.quantile(0.25) == pytest.approx(0.5, abs=0.05)
        assert low.quantile(0.75) == pytest.approx(100.5, abs=0.05)


class TestECDFView:
    def test_to_ecdf_matches_sample(self):
        rng = np.random.default_rng(3)
        data = rng.normal(loc=10.0, scale=2.0, size=50_000)
        ecdf = QuantileSketch().update(data).to_ecdf()
        assert np.all(np.diff(ecdf.x) > 0)
        assert np.all(np.diff(ecdf.y) >= 0)
        # Agree with the exact empirical CDF on a probe grid.
        from repro.stats.ecdf import ECDF

        exact = ECDF.from_sample(data)
        probes = np.quantile(data, [0.1, 0.3, 0.5, 0.7, 0.9])
        np.testing.assert_allclose(ecdf(probes), exact(probes), atol=0.01)

    def test_to_ecdf_needs_points(self):
        sketch = QuantileSketch().update([1.0, 2.0])
        with pytest.raises(ValueError, match="two ECDF points"):
            sketch.to_ecdf(n_points=1)


class TestScalarFastPath:
    """`update` on a bare float must skip array construction but agree
    exactly with the equivalent one-element array update."""

    def test_scalar_equals_array_update(self):
        a = QuantileSketch()
        b = QuantileSketch()
        values = [3.0, 1.5, -2.25, 1e6, 0.0]
        for v in values:
            a.update(v)
            b.update(np.asarray([v]))
        a._compress()
        b._compress()
        assert a.count == b.count == len(values)
        assert a.min == b.min and a.max == b.max
        np.testing.assert_array_equal(a._means, b._means)
        np.testing.assert_array_equal(a._weights, b._weights)

    def test_scalar_updates_buffer_without_arrays(self):
        sketch = QuantileSketch()
        sketch.update(1.0).update(2)
        assert sketch._buffer == []  # scalars never materialise arrays
        assert sketch._scalars == [1.0, 2.0]
        assert sketch.count == 2

    def test_non_finite_scalar_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            QuantileSketch().update(float("nan"))
        with pytest.raises(ValueError, match="finite"):
            QuantileSketch().update(float("inf"))

    def test_many_tiny_updates_flush_by_total_size(self):
        # The buffer flushes on total buffered values, so a host-by-host
        # stream cannot grow memory past ~10x compression pending values.
        sketch = QuantileSketch(compression=20)
        rng = np.random.default_rng(5)
        data = rng.normal(10.0, 3.0, size=2_000)
        for value in data:
            sketch.update(float(value))
            assert sketch._buffered < 10 * sketch.compression
        assert sketch.count == data.size
        assert sketch.median() == pytest.approx(float(np.median(data)), rel=0.05)
        assert sketch.min == data.min() and sketch.max == data.max()

    def test_mixed_scalar_and_chunk_updates(self):
        rng = np.random.default_rng(11)
        data = rng.lognormal(2.0, 1.0, size=5_000)
        mixed = QuantileSketch()
        mixed.update(float(data[0]))
        mixed.update(data[1:4_000])
        for value in data[4_000:4_010]:
            mixed.update(float(value))
        mixed.update(data[4_010:])
        assert mixed.count == data.size
        assert mixed.median() == pytest.approx(float(np.median(data)), rel=0.02)

    def test_bool_input_still_folds_as_number(self):
        sketch = QuantileSketch().update(True)
        assert sketch.count == 1
        assert sketch.quantile(0.5) == 1.0


class TestCallerArraysNotAliased:
    """Values an update leaves pending must not be a view of the caller's
    array: changing the array afterwards must not change the sketch."""

    def test_pending_values_survive_a_later_write(self):
        values = np.arange(1.0, 11.0)
        sketch = QuantileSketch().update(values)
        values[:] = 9.0
        assert sketch.median() == 5.5
        assert (sketch.min, sketch.max, sketch.count) == (1.0, 10.0, 10)

    def test_compressing_update_matches_a_copied_one(self):
        # A chunk large enough to compress inside the call leaves nothing
        # pending, so it needs no copy; writing to it afterwards is safe.
        rng = np.random.default_rng(3)
        values = rng.lognormal(2.0, 1.0, size=10 * 200)
        copied = QuantileSketch().update(values.copy())
        sketch = QuantileSketch().update(values)
        values[:] = 0.0
        assert sketch.to_state() == copied.to_state()


class TestStateFiniteness:
    """from_state must refuse payloads carrying non-finite centroids or
    non-integral weights."""

    def _state(self):
        return QuantileSketch().update([1.0, 2.0, 3.0]).to_state()

    def test_infinite_centroid_mean_rejected(self):
        from repro.stats.state import StateError

        state = self._state()
        state["means"][0] = float("-inf")
        with pytest.raises(StateError, match="finite"):
            QuantileSketch.from_state(state)

    def test_infinite_centroid_weight_rejected(self):
        from repro.stats.state import StateError

        state = self._state()
        state["weights"][0] = float("inf")
        with pytest.raises(StateError, match="finite"):
            QuantileSketch.from_state(state)

    def test_nan_weight_rejected(self):
        from repro.stats.state import StateError

        state = self._state()
        state["weights"][0] = float("nan")
        with pytest.raises(StateError, match="finite|weights"):
            QuantileSketch.from_state(state)

    def test_fractional_weights_rejected(self):
        """Weights summing to the count but not whole would restore and
        interpolate a median of 1.25 from two points 1 and 2."""
        from repro.stats.state import StateError

        state = QuantileSketch().update([1.0, 2.0]).to_state()
        state["weights"] = [1.5, 0.5]
        with pytest.raises(StateError, match="whole numbers"):
            QuantileSketch.from_state(state)
