"""Property tests pinning the column-wise reducer folds to stacked oracles.

``MomentAccumulator``, ``CorrelationAccumulator`` and ``QuantileReducer``
fold each chunk from its own contiguous columns.  Before that they stacked
the chunk into one ``(n, k)`` matrix and reduced along its rows.  The
oracles below are those stacked ``update`` bodies, kept verbatim, and
every fold must reproduce their ``to_state()`` bit for bit: floats are
compared through ``float.hex``, so ``-0.0`` and ``+0.0`` differ.

The drawn columns cover the cases where a summation order or a starting
value would show: chunk lengths on either side of numpy's 8192-element
blocks, zeros of both signs (an all ``-0.0`` column included), constant
columns and magnitudes from 1e-300 to 1e300.  Chunks arrive as
populations, dicts and :class:`ColumnCache` wrappers, and a chunk with
non-finite values must raise the same ``ValueError`` on both sides.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.engine.accumulate import (
    ColumnCache,
    CorrelationAccumulator,
    MomentAccumulator,
    _sequential_sums,
)
from repro.engine.reduce import QuantileReducer, ReducerSet
from repro.hosts.population import CORRELATION_LABELS, RESOURCE_LABELS, HostPopulation

LENGTHS = (0, 1, 2, 8191, 8192, 8193, 65_536, 65_537)
KINDS = ("lognormal", "normal", "signed zeros", "negative zeros", "constant")


def stacked(source, labels):
    """The stacked chunk every reducer folded before: ``as_matrix`` as it was."""
    if isinstance(source, ColumnCache):
        columns = [source[label] for label in labels]
    elif isinstance(source, HostPopulation):
        columns = [source.column(label) for label in labels]
    else:
        columns = [np.asarray(source[label], dtype=float) for label in labels]
    length = columns[0].size
    for label, column in zip(labels, columns):
        if column.ndim != 1 or column.size != length:
            raise ValueError(
                f"column {label!r} has shape {column.shape}; expected ({length},)"
            )
    data = np.column_stack(columns) if length else np.empty((0, len(labels)))
    if data.size and not np.isfinite(data).all():
        bad = [
            label
            for label, finite in zip(labels, np.isfinite(data).all(axis=0))
            if not finite
        ]
        raise ValueError(
            f"non-finite values in column(s) {', '.join(bad)}; one-pass "
            "accumulators would be silently poisoned — filter or impute "
            "before folding"
        )
    return data


class StackedMoments(MomentAccumulator):
    def update(self, source):
        data = stacked(source, self.labels)
        n_b = data.shape[0]
        if n_b == 0:
            return self
        mean_b = data.mean(axis=0)
        m2_b = np.square(data - mean_b).sum(axis=0)
        self._combine(n_b, mean_b, m2_b)
        return self


class StackedCorrelation(CorrelationAccumulator):
    def update(self, source):
        data = stacked(source, self.labels)
        n_b = data.shape[0]
        if n_b == 0:
            return self
        mean_b = data.mean(axis=0)
        deviations = data - mean_b
        self._combine(n_b, mean_b, deviations.T @ deviations)
        return self


class StackedQuantiles(QuantileReducer):
    def update(self, chunk):
        data = stacked(chunk, self.labels)
        for i, label in enumerate(self.labels):
            self._sketches[label].update(data[:, i])
        return self


#: (column fold, stacked oracle) pairs.
PAIRS = {
    "moments": (MomentAccumulator, StackedMoments),
    "correlation": (CorrelationAccumulator, StackedCorrelation),
    "quantiles": (QuantileReducer, StackedQuantiles),
}


def bits(state):
    """``to_state()`` with every float spelled exactly (``-0.0 != 0.0``)."""
    if isinstance(state, float):
        return state.hex()
    if isinstance(state, dict):
        return {key: bits(value) for key, value in state.items()}
    if isinstance(state, list):
        return [bits(value) for value in state]
    return state


def draw_column(rng, kind, length, exponent, constant):
    if kind == "lognormal":
        return rng.lognormal(0.0, 2.0, length) * 10.0**exponent
    if kind == "normal":
        return rng.standard_normal(length) * 10.0**exponent
    if kind == "signed zeros":
        return np.round(rng.normal(0.0, 0.4, length))
    if kind == "negative zeros":
        return np.full(length, -0.0)
    return np.full(length, constant)


@st.composite
def chunks(draw, length):
    """One chunk: a column per Table III label, each of a drawn kind."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for label in CORRELATION_LABELS:
        kind = draw(st.sampled_from(KINDS))
        exponent = draw(st.integers(-300, 300))
        constant = draw(
            st.floats(allow_nan=False, allow_infinity=False, width=64)
        )
        columns[label] = draw_column(rng, kind, length, exponent, constant)
    return columns


def as_chunk(columns, shape):
    """The drawn columns as a population, a dict or a ColumnCache."""
    if shape in ("population", "cached population"):
        chunk = HostPopulation(**{label: columns[label] for label in RESOURCE_LABELS})
    else:
        chunk = dict(columns)
    return ColumnCache(chunk) if shape.startswith("cached") else chunk


SHAPES = ("population", "dict", "cached population", "cached dict")


def fold(reducer, chunk):
    """Fold one chunk; the ValueError message if it is refused.

    Magnitudes near 1e300 overflow both sides alike; the warnings are
    silenced, the resulting inf/nan states still compared.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            reducer.update(chunk)
    except ValueError as error:
        return str(error)
    return None


def assert_same_fold(name, chunk_list, shape):
    column_fold, oracle = (factory() for factory in PAIRS[name])
    for columns in chunk_list:
        refused = fold(column_fold, as_chunk(columns, shape))
        assert refused == fold(oracle, as_chunk(columns, shape))
    assert bits(column_fold.to_state()) == bits(oracle.to_state())


class TestSequentialSums:
    @pytest.mark.parametrize("length", LENGTHS[1:])
    @seed(20110611)
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_bits_of_the_stacked_axis0_sum(self, length, data):
        # Exact at the helper, not only after _combine: an all -0.0
        # column sums to +0.0 in the stack, whose sum starts from +0.0.
        columns = list(data.draw(chunks(length)).values())
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.column_stack(columns).sum(axis=0)
            actual = _sequential_sums(columns)
        assert [v.hex() for v in actual.tolist()] == [
            v.hex() for v in expected.tolist()
        ]


class TestColumnFoldsMatchStackedOracles:
    @pytest.mark.parametrize("name", sorted(PAIRS))
    @pytest.mark.parametrize("length", LENGTHS)
    @seed(20110611)
    @given(data=st.data(), shape=st.sampled_from(SHAPES))
    @settings(max_examples=4, deadline=None)
    def test_one_chunk_per_length(self, name, length, data, shape):
        assert_same_fold(name, [data.draw(chunks(length))], shape)

    @pytest.mark.parametrize("name", sorted(PAIRS))
    @seed(20110611)
    @given(
        data=st.data(),
        lengths=st.lists(st.sampled_from(LENGTHS), min_size=2, max_size=4),
        shape=st.sampled_from(SHAPES),
    )
    @settings(max_examples=12, deadline=None)
    def test_chunk_sequences(self, name, data, lengths, shape):
        chunk_list = [data.draw(chunks(length)) for length in lengths]
        assert_same_fold(name, chunk_list, shape)

    @pytest.mark.parametrize("length", LENGTHS)
    def test_generated_populations_through_a_set(self, paper_generator, length):
        # The summary reducer set as ReducerSet drives it: one ColumnCache
        # shared by all three members.
        rng = np.random.default_rng(length)
        chunk_list = [
            paper_generator.generate(2010.667, length, rng) for _ in range(3)
        ]
        column_set = ReducerSet({name: pair[0]() for name, pair in PAIRS.items()})
        oracle_set = ReducerSet({name: pair[1]() for name, pair in PAIRS.items()})
        for chunk in chunk_list:
            column_set.update(chunk)
            oracle_set.update(chunk)
        assert bits(column_set.to_state()) == bits(oracle_set.to_state())


class TestNonFiniteRefusalUnchanged:
    @pytest.mark.parametrize("name", sorted(PAIRS))
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_same_message_in_label_order(self, name, shape, bad):
        columns = {label: np.arange(1.0, 6.0) for label in CORRELATION_LABELS}
        # Two poisoned columns, so the message must list them in label order.
        for label in ("disk_gb", "memory_mb"):
            columns[label][2] = bad
        column_fold, oracle = (factory() for factory in PAIRS[name])
        refused = fold(column_fold, as_chunk(columns, shape))
        assert refused is not None and "memory_mb" in refused
        assert refused == fold(oracle, as_chunk(columns, shape))
        assert bits(column_fold.to_state()) == bits(oracle.to_state())
