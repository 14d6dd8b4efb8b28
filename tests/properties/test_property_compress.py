"""Property tests pinning the vectorised t-digest merge pass to a
scalar reference loop.

``QuantileSketch._compress`` replaced a per-element Python loop with a
``cumsum``/``searchsorted`` boundary search plus ``np.add.reduceat``
span reduction.  The oracle here re-derives every span boundary with the
scalar greedy recurrence (walk the cumulative weights one comparison at
a time against the same ``k``-scale limits) and requires the resulting
centroids and weights to be **bit-identical** — weights are sums of 1.0s
(exact in float64), so the cumulative weights and the boundary
predicates are exact and any disagreement is a real bug, not float
noise.  A second, independent check recomputes each span's weighted mean
directly and bounds the distance to the reduceat result.

The oracle orders the weighted pass with ``argsort(kind="stable")`` over
the sources concatenated in their order (centroids, merged sets, unit
chunks, the scalar run), while ``_compress`` builds that order by a
sorted merge.  Equality is checked on bit patterns: ``-0.0 == 0.0``
compares true, so a value comparison would miss a swapped signed zero.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.sketch import QuantileSketch

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def oracle_merge_pass(x, w, compression, unit_only):
    """Scalar-recurrence reference for one ``_compress`` merge pass.

    Mirrors the implementation's arithmetic exactly (same ``k`` scale,
    same sort, same span reduction) but finds every span boundary by
    walking the cumulative weights one scalar comparison at a time
    instead of ``searchsorted``.
    """
    sketch = QuantileSketch(compression)  # borrow _k/_k_inverse arithmetic
    if unit_only:
        x = np.sort(x)
        total = float(x.size)
        cumulative = np.arange(1.0, total + 1.0)
    else:
        order = np.argsort(x, kind="stable")
        x, w = x[order], w[order]
        total = w.sum()
        cumulative = np.cumsum(w)

    n = x.size
    bounds = []
    start = 0
    k_lo = sketch._k(0.0)
    k_max = sketch._k(1.0)
    while start < n:
        if k_lo + 1.0 >= k_max:
            bounds.append(n)
            break
        limit = sketch._k_inverse(k_lo + 1.0) * total
        if start:  # the scan below starts at `start`; justify it
            assert cumulative[start - 1] <= limit
        j = start
        while j < n and cumulative[j] <= limit:
            j += 1
        j = max(j, start + 1)
        bounds.append(j)
        if j >= n:
            break
        k_lo = sketch._k(cumulative[j - 1] / total)
        start = j

    edges = np.asarray(bounds, dtype=np.intp)
    starts = np.concatenate(([0], edges[:-1]))
    if unit_only:
        sizes = np.diff(np.concatenate(([0], edges))).astype(float)
        means = np.add.reduceat(x, starts) / sizes
    else:
        sizes = np.add.reduceat(w, starts)
        means = np.add.reduceat(x * w, starts) / sizes
    low, high = x[starts], x[edges - 1]
    bad = ~np.isfinite(means)
    if bad.any():
        means[bad] = 0.5 * low[bad] + 0.5 * high[bad]
    np.clip(means, low, high, out=means)
    if unit_only:
        w = np.ones(n)
    return means, sizes, (x, w, starts, edges)


def direct_span_means(x, w, starts, edges):
    """Independent per-span weighted means (float-tolerance yardstick)."""
    return np.asarray(
        [
            float(np.dot(x[lo:hi], w[lo:hi]) / w[lo:hi].sum())
            for lo, hi in zip(starts, edges)
        ]
    )


def assert_same_bits(actual, expected):
    """Exact float64 equality that tells ``-0.0`` from ``+0.0``."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def pending_pass(sketch):
    """The oracle's input for the sketch's next ``_compress``: every
    source concatenated in source order, unit chunks then the scalar
    run."""
    units = list(sketch._buffer)
    if sketch._scalars:
        units.append(np.asarray(sketch._scalars, dtype=float))
    unit_total = sum(u.size for u in units)
    x = np.concatenate([sketch._means] + [m for m, _ in sketch._weighted] + units)
    w = np.concatenate(
        [sketch._weights] + [w for _, w in sketch._weighted] + [np.ones(unit_total)]
    )
    unit_only = sketch._means.size == 0 and not sketch._weighted
    return x, w, unit_only


class OracleCheckedSketch(QuantileSketch):
    """A sketch whose every compress pass is checked against the oracle."""

    def __init__(self, compression):
        super().__init__(compression)
        self.checked_passes = 0

    def _compress(self):
        if not self._pending():
            return
        x, w, unit_only = pending_pass(self)
        super()._compress()
        means, sizes, _ = oracle_merge_pass(x, w, self.compression, unit_only)
        assert_same_bits(self._means, means)
        assert_same_bits(self._weights, sizes)
        self.checked_passes += 1


def cores_column(rng, size):
    """Tie-heavy integer column, like the cores resource."""
    return rng.choice([1.0, 2.0, 4.0, 8.0, 16.0], size=size)


def signed_zero_column(rng, size):
    """Rounded normals: a long run of zeros of both signs at the median."""
    return np.round(rng.normal(0.0, 3.0, size=size))


class TestUnitWeightCompress:
    @given(
        seed=seeds,
        size=st.integers(min_value=1, max_value=5_000),
        sigma=st.floats(min_value=0.2, max_value=2.0),
        compression=st.sampled_from([20, 50, 200]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_bit_for_bit(self, seed, size, sigma, compression):
        rng = np.random.default_rng(seed)
        data = rng.lognormal(mean=3.0, sigma=sigma, size=size)

        sketch = QuantileSketch(compression)
        sketch._buffer = [data.copy()]
        sketch._buffered = data.size
        sketch.count = data.size
        sketch._min, sketch._max = float(data.min()), float(data.max())
        sketch._compress()

        means, sizes, (xs, ws, starts, edges) = oracle_merge_pass(
            data.copy(), np.ones(data.size), compression, unit_only=True
        )
        assert_same_bits(sketch._means, means)
        assert_same_bits(sketch._weights, sizes)
        assert float(sizes.sum()) == float(data.size)
        # independent mean computation agrees to float tolerance
        direct = direct_span_means(xs, ws, starts, edges)
        np.testing.assert_allclose(means, direct, rtol=1e-12, atol=0.0)

    @given(seed=seeds, size=st.integers(min_value=1, max_value=400))
    @settings(max_examples=25, deadline=None)
    def test_centroid_invariants(self, seed, size):
        rng = np.random.default_rng(seed)
        data = rng.normal(0.0, 100.0, size=size)
        sketch = QuantileSketch(20).update(data)
        sketch._compress()
        assert np.all(np.diff(sketch._means) >= 0)
        assert sketch._means.size == 0 or sketch._means[0] >= data.min()
        assert sketch._means.size == 0 or sketch._means[-1] <= data.max()
        assert float(sketch._weights.sum()) == float(size)


class TestWeightedCompress:
    @given(
        seed=seeds,
        left=st.integers(min_value=1, max_value=3_000),
        right=st.integers(min_value=1, max_value=3_000),
        fresh=st.integers(min_value=0, max_value=2_000),
        compression=st.sampled_from([20, 100]),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_pass_matches_oracle_bit_for_bit(
        self, seed, left, right, fresh, compression
    ):
        rng = np.random.default_rng(seed)
        base = QuantileSketch(compression).update(
            rng.lognormal(mean=2.0, sigma=1.0, size=left)
        )
        base._compress()
        other = QuantileSketch(compression).update(
            rng.lognormal(mean=4.0, sigma=0.5, size=right)
        )
        other._compress()
        pending = rng.normal(50.0, 10.0, size=fresh)

        # Mirror _compress's concatenation order: existing centroids,
        # merged centroid sets, then unit-weight chunks.
        x = np.concatenate([base._means, other._means, pending])
        w = np.concatenate(
            [base._weights, other._weights, np.ones(pending.size)]
        )

        base._weighted = [(other._means.copy(), other._weights.copy())]
        if pending.size:
            base._buffer = [pending.copy()]
            base._buffered = pending.size
        base.count += other.count + pending.size
        base._compress()

        means, sizes, (xs, ws, starts, edges) = oracle_merge_pass(
            x, w, compression, unit_only=False
        )
        assert_same_bits(base._means, means)
        assert_same_bits(base._weights, sizes)
        assert float(sizes.sum()) == float(left + right + fresh)
        direct = direct_span_means(xs, ws, starts, edges)
        np.testing.assert_allclose(means, direct, rtol=1e-9, atol=0.0)

    @given(seed=seeds, shards=st.integers(min_value=2, max_value=8))
    @settings(max_examples=15, deadline=None)
    def test_sharded_merge_preserves_weight_sum(self, seed, shards):
        rng = np.random.default_rng(seed)
        data = rng.lognormal(mean=3.0, sigma=1.2, size=6_000)
        merged = QuantileSketch(50)
        for shard in np.array_split(data, shards):
            merged.merge(QuantileSketch(50).update(shard))
        merged._compress()
        assert float(merged._weights.sum()) == float(data.size)
        assert np.all(np.diff(merged._means) >= 0)


COLUMNS = {
    "lognormal": lambda rng, size: rng.lognormal(mean=2.0, sigma=1.0, size=size),
    "cores": cores_column,
    "signed zeros": signed_zero_column,
}
columns = st.sampled_from(sorted(COLUMNS))


class TestMergeOrder:
    """Inputs the lognormal/normal draws above never produce: ties between
    sources and zeros of both signs, where only the merge order decides
    the bits."""

    @given(
        seed=seeds,
        chunks=st.integers(min_value=2, max_value=5),
        extra=st.integers(min_value=0, max_value=1_000),
        compression=st.sampled_from([20, 50, 200]),
    )
    @settings(max_examples=25, deadline=None)
    def test_tie_heavy_integer_column(self, seed, chunks, extra, compression):
        rng = np.random.default_rng(seed)
        sketch = OracleCheckedSketch(compression)
        for _ in range(chunks):
            sketch.update(cores_column(rng, 10 * compression + extra))
        assert sketch.checked_passes == chunks

    @given(
        seed=seeds,
        size=st.integers(min_value=1_000, max_value=4_000),
        compression=st.sampled_from([20, 50, 200]),
    )
    @settings(max_examples=25, deadline=None)
    def test_centroids_equal_to_pending_units(self, seed, size, compression):
        rng = np.random.default_rng(seed)
        sketch = OracleCheckedSketch(compression)
        sketch.update(rng.lognormal(mean=2.0, sigma=1.0, size=size))
        sketch._compress()
        ties = rng.choice(sketch._means, size=size)
        sketch.update(np.concatenate([ties, rng.lognormal(2.0, 1.0, size // 4)]))
        sketch._compress()
        assert sketch.checked_passes == 2

    @given(
        seed=seeds,
        size=st.integers(min_value=500, max_value=5_000),
        chunks=st.integers(min_value=2, max_value=4),
        compression=st.sampled_from([50, 200]),
    )
    @settings(max_examples=25, deadline=None)
    def test_chunks_mixing_signed_zeros(self, seed, size, chunks, compression):
        rng = np.random.default_rng(seed)
        sketch = OracleCheckedSketch(compression)
        for _ in range(chunks):
            sketch.update(signed_zero_column(rng, size))
            for value in signed_zero_column(rng, 5):
                sketch.update(float(value))
            sketch._compress()
        assert sketch.checked_passes >= chunks

    @given(
        seed=seeds,
        column=columns,
        sets=st.integers(min_value=2, max_value=4),
        fresh=st.integers(min_value=0, max_value=2_000),
        scalars=st.integers(min_value=0, max_value=30),
        compression=st.sampled_from([20, 100]),
    )
    @settings(max_examples=25, deadline=None)
    def test_pending_sets_units_and_scalars(
        self, seed, column, sets, fresh, scalars, compression
    ):
        draw = COLUMNS[column]
        rng = np.random.default_rng(seed)
        sketch = OracleCheckedSketch(compression).update(draw(rng, 1_500))
        sketch._compress()
        for _ in range(sets):
            other = QuantileSketch(compression).update(draw(rng, 1_500))
            other._compress()
            sketch._weighted.append((other._means.copy(), other._weights.copy()))
        if fresh:
            sketch._buffer = [draw(rng, fresh)]
        sketch._scalars = [float(v) for v in draw(rng, scalars)]
        sketch._compress()
        assert sketch.checked_passes == 2

    @given(
        seed=seeds,
        steps=st.lists(
            st.tuples(columns, st.sampled_from(["update", "merge", "restore"])),
            min_size=3,
            max_size=8,
        ),
        compression=st.sampled_from([20, 50]),
    )
    @settings(max_examples=25, deadline=None)
    def test_streamed_compressing_updates(self, seed, steps, compression):
        rng = np.random.default_rng(seed)
        sketch = OracleCheckedSketch(compression)
        for column, step in steps:
            data = COLUMNS[column](rng, 10 * compression + int(rng.integers(0, 500)))
            if step == "merge":
                sketch.merge(OracleCheckedSketch(compression).update(data))
                continue
            if step == "restore":
                sketch = OracleCheckedSketch.from_state(sketch.to_state())
            sketch.update(data)
        assert sketch.checked_passes >= 1
