"""One-pass, mergeable statistics for streamed host fleets.

The batch :class:`~repro.hosts.population.HostPopulation` computes means,
standard deviations and the Table III/VIII correlation matrix from full
column arrays.  These accumulators compute the same quantities from a
stream of chunks using the pairwise (Chan et al.) update of Welford's
algorithm, so a fleet of any size can be summarised in bounded memory, and
shard results can be combined with :meth:`merge` — the machinery behind
streaming-moment estimation in large measurement studies (cf. Park et al.'s
dependence analysis of internet flows).

Both accumulators reproduce the batch statistics to float precision:
``MomentAccumulator`` matches :meth:`HostPopulation.means` /
:meth:`HostPopulation.stds` (population standard deviation, ``ddof=0``), and
``CorrelationAccumulator`` matches :meth:`HostPopulation.correlation_matrix`
— including the derived ``mem_per_core`` column — to well within ``1e-6``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.hosts.population import CORRELATION_LABELS, RESOURCE_LABELS
from repro.stats.correlation import CorrelationMatrix
from repro.stats.state import (
    decode_count,
    decode_floats,
    decode_labels,
    require_state,
)
from repro.table import ColumnBlock


def _sequential_sums(columns: "Iterable[np.ndarray]") -> np.ndarray:
    """The bits of ``np.column_stack(columns).sum(axis=0)``, without the stack.

    That sum starts from ``+0.0`` and adds one row after another (pairwise
    summation only runs along the fast axis), so it is each column's last
    running sum, plus ``+0.0`` for an all ``-0.0`` column.
    """
    return np.array([np.add.accumulate(column)[-1] for column in columns]) + 0.0


class ColumnCache:
    """A chunk wrapper memoising column extraction and checking.

    :meth:`~repro.engine.reduce.ReducerSet.update` fans one chunk out to
    several reducers.  Wrapping the chunk once shares the per-label and
    per-label-tuple work between them: columns (including the derived
    ``mem_per_core`` division) are extracted once, the shape and
    finiteness checks of :func:`as_columns` run once per label tuple, and
    :func:`as_matrix` stacks are cached per label tuple.

    The wrapper quacks like the ``{label: column}`` dict chunks every
    reducer already accepts (``chunk[label]``), so it needs no special
    handling outside :func:`as_columns` / :func:`as_matrix`.  It must only
    wrap chunks that are not mutated afterwards — populations are frozen
    and the engine's block streams are single-use, which is why
    :class:`ReducerSet` applies it internally rather than asking callers
    to.
    """

    __slots__ = ("source", "_columns", "_checked", "_matrices")

    def __init__(self, source: "ColumnBlock | dict"):
        if isinstance(source, ColumnCache):  # pragma: no cover - defensive
            source = source.source
        self.source = source
        self._columns: "dict[str, np.ndarray]" = {}
        self._checked: "dict[tuple[str, ...], list[np.ndarray]]" = {}
        self._matrices: "dict[tuple[str, ...], np.ndarray]" = {}

    def __getitem__(self, label: str) -> np.ndarray:
        column = self._columns.get(label)
        if column is None:
            column = np.asarray(self.source[label], dtype=float)
            self._columns[label] = column
        return column

    #: Population-style access, so reducers written against either chunk
    #: shape (``chunk[label]`` or ``chunk.column(label)``) see through it.
    column = __getitem__

    def __len__(self) -> int:
        for label in self.source:
            return int(self[label].size)
        return 0

    # Dict duck-typing: custom reducers written against the ``{label:
    # column}`` chunk shape may probe membership or iterate labels, and
    # without these Python's legacy fallback would forward integer
    # indices into __getitem__ and raise a bogus KeyError.
    def __contains__(self, label: object) -> bool:
        return label in self.source

    def __iter__(self):
        return iter(self.source)

    def keys(self):
        """The chunk's labels."""
        return list(self)

    def checked_columns(self, labels: "tuple[str, ...]") -> "list[np.ndarray]":
        """The (cached) :func:`as_columns` list for one label tuple."""
        columns = self._checked.get(labels)
        if columns is not None:
            return columns
        columns = [self[label] for label in labels]
        length = columns[0].size
        for label, column in zip(labels, columns):
            if column.ndim != 1 or column.size != length:
                raise ValueError(
                    f"column {label!r} has shape {column.shape}; expected ({length},)"
                )
        bad = [label for label, c in zip(labels, columns) if not np.isfinite(c).all()]
        if bad:
            raise ValueError(
                f"non-finite values in column(s) {', '.join(bad)}; one-pass "
                "accumulators would be silently poisoned — filter or impute "
                "before folding"
            )
        self._checked[labels] = columns
        return columns

    def matrix(self, labels: "tuple[str, ...]") -> np.ndarray:
        """The (cached) :func:`as_matrix` stack for one label tuple."""
        data = self._matrices.get(labels)
        if data is None:
            columns = self.checked_columns(labels)
            if columns[0].size:
                data = np.column_stack(columns)
            else:
                data = np.empty((0, len(labels)))
            self._matrices[labels] = data
        return data


def as_columns(source, labels: "tuple[str, ...]") -> "list[np.ndarray]":
    """The chunk's own columns for ``labels``, checked, in label order.

    The shared chunk-normalisation step of the built-in reducers.  It
    accepts a :class:`~repro.table.ColumnBlock` (a host population or a
    scenario block), a ``{label: column}`` mapping or the
    :class:`ColumnCache` :class:`~repro.engine.reduce.ReducerSet` wraps a
    chunk in, and stacks nothing: the folds read each column where it
    lives.

    Columns must be 1-D and of equal length, and non-finite entries are
    **rejected** with a :class:`ValueError` naming the offending
    column(s) in label order.  This is the engine's NaN/±inf policy: a
    single NaN folded into a Welford mean or co-moment poisons every
    statistic downstream without any error surfacing, and a skip-silently
    policy would make shard counts disagree.  Consumers with data that
    legitimately contains holes must filter or impute *before* the fold
    (as :class:`~repro.engine.reduce.HistogramReducer` and
    :class:`~repro.engine.reduce.ECDFReducer` do for their own columns).
    """
    cache = source if isinstance(source, ColumnCache) else ColumnCache(source)
    return cache.checked_columns(tuple(labels))


def as_matrix(source, labels: "tuple[str, ...]") -> np.ndarray:
    """Stack a population or ``{label: column}`` dict into an ``(n, k)`` array.

    The :func:`as_columns` columns, with the same checks and ``ValueError``,
    copied into one C-order matrix; a :class:`ColumnCache` stacks each
    label tuple once.
    """
    cache = source if isinstance(source, ColumnCache) else ColumnCache(source)
    return cache.matrix(tuple(labels))


class MomentAccumulator:
    """Streaming mean/std of the labelled resource columns.

    Feed chunks with :meth:`update`, combine shards with :meth:`merge`; the
    running state is ``(count, mean vector, M2 vector)`` where ``M2`` is the
    sum of squared deviations from the running mean (Welford).
    """

    #: Serialization schema version for :meth:`to_state` payloads.
    STATE_VERSION = 1

    def __init__(self, labels: "tuple[str, ...]" = RESOURCE_LABELS):
        self.labels = tuple(labels)
        self.count = 0
        self._mean = np.zeros(len(self.labels))
        self._m2 = np.zeros(len(self.labels))

    def update(self, source: "ColumnBlock | dict") -> "MomentAccumulator":
        """Fold one chunk (population or column dict) into the running state."""
        columns = as_columns(source, self.labels)
        n_b = columns[0].size
        if n_b == 0:
            return self
        mean_b = _sequential_sums(columns) / n_b
        m2_b = _sequential_sums(
            np.square(column - mean) for column, mean in zip(columns, mean_b)
        )
        self._combine(n_b, mean_b, m2_b)
        return self

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        """Fold another accumulator (e.g. a shard's) into this one."""
        if other.labels != self.labels:
            raise ValueError(f"label mismatch: {self.labels} vs {other.labels}")
        if other.count:
            self._combine(other.count, other._mean, other._m2)
        return self

    def _combine(self, n_b: int, mean_b: np.ndarray, m2_b: np.ndarray) -> None:
        n_a = self.count
        n = n_a + n_b
        delta = mean_b - self._mean
        self._mean = self._mean + delta * (n_b / n)
        self._m2 = self._m2 + m2_b + np.square(delta) * (n_a * n_b / n)
        self.count = n

    def to_state(self) -> dict:
        """Versioned JSON-safe snapshot of ``(labels, count, mean, M2)``."""
        return {
            "kind": "MomentAccumulator",
            "state_version": self.STATE_VERSION,
            "labels": list(self.labels),
            "count": int(self.count),
            "mean": self._mean.tolist(),
            "m2": self._m2.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "MomentAccumulator":
        """Restore an accumulator from a :meth:`to_state` payload.

        Raises :class:`~repro.stats.state.StateError` on a corrupted,
        mismatched or wrong-version payload; a restored accumulator
        continues the fold bit-identically to the original.
        """
        kind = "MomentAccumulator"
        require_state(state, kind, cls.STATE_VERSION)
        labels = decode_labels(state, kind)
        accumulator = cls(labels)
        accumulator.count = decode_count(state, kind)
        accumulator._mean = decode_floats(
            state, kind, "mean", (len(labels),), finite=True
        )
        accumulator._m2 = decode_floats(
            state, kind, "m2", (len(labels),), finite=True
        )
        return accumulator

    def means(self) -> "dict[str, float]":
        """Mean per column, matching :meth:`HostPopulation.means`."""
        if self.count == 0:
            return {label: float("nan") for label in self.labels}
        return {label: float(m) for label, m in zip(self.labels, self._mean)}

    def variances(self) -> "dict[str, float]":
        """Population variance (``ddof=0``) per column."""
        if self.count == 0:
            return {label: float("nan") for label in self.labels}
        return {label: float(v) for label, v in zip(self.labels, self._m2 / self.count)}

    def stds(self) -> "dict[str, float]":
        """Population std per column, matching :meth:`HostPopulation.stds`."""
        return {label: float(np.sqrt(v)) for label, v in self.variances().items()}

    def result(self) -> "dict[str, dict[str, float]]":
        """Protocol result: ``{"means": ..., "stds": ...}`` plus the count."""
        return {"count": self.count, "means": self.means(), "stds": self.stds()}

    def summary_table(self, medians: "dict[str, float] | None" = None) -> str:
        """Aligned mean[/median]/std text table (streamed analogue of the batch one).

        Medians are not derivable from moments; pass the ``medians`` of a
        :class:`~repro.engine.reduce.QuantileReducer` run over the same
        stream to include them.
        """
        means, stds = self.means(), self.stds()
        if medians is None:
            lines = [f"{'resource':>12} {'mean':>14} {'std':>14}"]
            for label in self.labels:
                lines.append(f"{label:>12} {means[label]:>14.2f} {stds[label]:>14.2f}")
        else:
            lines = [f"{'resource':>12} {'mean':>14} {'median':>14} {'std':>14}"]
            for label in self.labels:
                lines.append(
                    f"{label:>12} {means[label]:>14.2f} "
                    f"{medians[label]:>14.2f} {stds[label]:>14.2f}"
                )
        return "\n".join(lines)


class CorrelationAccumulator:
    """Streaming Pearson matrix of the six Table III quantities.

    Maintains ``(count, mean vector, co-moment matrix)`` where the co-moment
    matrix is ``sum_i (x_i - mean)(x_i - mean)^T``, merged across chunks and
    shards with the pairwise update.  :meth:`matrix` reproduces
    :meth:`HostPopulation.correlation_matrix` semantics: non-finite entries
    (constant or degenerate columns) become 0 with the diagonal restored
    to 1.
    """

    #: Serialization schema version for :meth:`to_state` payloads.
    STATE_VERSION = 1

    def __init__(self, labels: "tuple[str, ...]" = CORRELATION_LABELS):
        self.labels = tuple(labels)
        k = len(self.labels)
        self.count = 0
        self._mean = np.zeros(k)
        self._comoment = np.zeros((k, k))

    def update(self, source: "ColumnBlock | dict") -> "CorrelationAccumulator":
        """Fold one chunk (population or column dict) into the running state."""
        columns = as_columns(source, self.labels)
        n_b = columns[0].size
        if n_b == 0:
            return self
        mean_b = _sequential_sums(columns) / n_b
        # One C-order (n, k) deviation matrix, filled column by column:
        # the product's BLAS call, and so its bits, follow the layout.
        deviations = np.empty((n_b, len(columns)))
        for j, column in enumerate(columns):
            np.subtract(column, mean_b[j], out=deviations[:, j])
        self._combine(n_b, mean_b, deviations.T @ deviations)
        return self

    def merge(self, other: "CorrelationAccumulator") -> "CorrelationAccumulator":
        """Fold another accumulator (e.g. a shard's) into this one."""
        if other.labels != self.labels:
            raise ValueError(f"label mismatch: {self.labels} vs {other.labels}")
        if other.count:
            self._combine(other.count, other._mean, other._comoment)
        return self

    def _combine(self, n_b: int, mean_b: np.ndarray, comoment_b: np.ndarray) -> None:
        n_a = self.count
        n = n_a + n_b
        delta = mean_b - self._mean
        self._mean = self._mean + delta * (n_b / n)
        self._comoment = self._comoment + comoment_b + np.outer(delta, delta) * (
            n_a * n_b / n
        )
        self.count = n

    def to_state(self) -> dict:
        """Versioned JSON-safe snapshot of ``(labels, count, mean, co-moment)``."""
        return {
            "kind": "CorrelationAccumulator",
            "state_version": self.STATE_VERSION,
            "labels": list(self.labels),
            "count": int(self.count),
            "mean": self._mean.tolist(),
            "comoment": self._comoment.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "CorrelationAccumulator":
        """Restore an accumulator from a :meth:`to_state` payload.

        Raises :class:`~repro.stats.state.StateError` on a corrupted,
        mismatched or wrong-version payload; a restored accumulator
        continues the fold bit-identically to the original.
        """
        kind = "CorrelationAccumulator"
        require_state(state, kind, cls.STATE_VERSION)
        labels = decode_labels(state, kind)
        k = len(labels)
        accumulator = cls(labels)
        accumulator.count = decode_count(state, kind)
        accumulator._mean = decode_floats(state, kind, "mean", (k,), finite=True)
        accumulator._comoment = decode_floats(
            state, kind, "comoment", (k, k), finite=True
        )
        return accumulator

    def result(self) -> CorrelationMatrix:
        """Protocol result: the streamed labelled Pearson matrix."""
        return self.matrix()

    def covariance(self) -> np.ndarray:
        """Population covariance matrix (``ddof=0``) of the columns."""
        if self.count < 1:
            raise ValueError("no observations accumulated")
        return self._comoment / self.count

    def matrix(self) -> CorrelationMatrix:
        """The streamed Table III/VIII-style labelled Pearson matrix."""
        if self.count < 2:
            raise ValueError("need at least two hosts for a correlation matrix")
        covariance = self.covariance()
        scale = np.sqrt(np.diag(covariance))
        with np.errstate(invalid="ignore", divide="ignore"):
            values = covariance / np.outer(scale, scale)
        bad = ~np.isfinite(values)
        if bad.any():
            values = values.copy()
            values[bad] = 0.0
        np.fill_diagonal(values, 1.0)
        # np.corrcoef clips rounding excursions outside [-1, 1]; match it.
        np.clip(values, -1.0, 1.0, out=values)
        return CorrelationMatrix(labels=self.labels, values=values)
