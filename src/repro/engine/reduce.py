"""The reducer architecture every statistics consumer shares.

A :class:`Reducer` is the engine's unit of aggregation: it folds population
chunks in with ``update``, combines with a peer via ``merge`` (shard
reduction), and reports through ``result``.  The batch
:class:`~repro.hosts.population.HostPopulation` statistics, the streaming
engine, the sharded generator and the analysis layer all reduce through the
same implementations, so "in-memory population" versus "chunk stream"
versus "shard fan-out" differ only in who drives the fold:

* :class:`~repro.engine.accumulate.MomentAccumulator` /
  :class:`~repro.engine.accumulate.CorrelationAccumulator` — Welford /
  pairwise moments (PR 1), already mergeable.
* :class:`QuantileReducer` — per-column mergeable
  :class:`~repro.stats.sketch.QuantileSketch` (streamed medians/deciles).
* :class:`ExactQuantileReducer` — materialising counterpart used by the
  batch path, same protocol, exact ``np.quantile`` answers.
* :class:`HistogramReducer` — fixed-edge mergeable counts (streamed Fig 8/9
  histograms).
* :class:`ECDFReducer` — sketch-backed distribution-function view
  (streamed CDF panels and KS comparisons).

:class:`ReducerSet` bundles named reducers so callers (CLI, sharding,
analysis) can plug in any combination; ``generate_sharded`` accepts the
factory form and merges the per-shard sets.

**Factory hoisting.**  Factories are zero-argument callables, so the
*construction of the factory dict itself* (binding labels, compression,
partials) should happen once — at module scope or behind
:func:`stream_profile_factories` — not inside per-call/per-date loops.
Entry points that fold many streams (``compare_streams``,
``streamed_resource_overview``, the CLI fleet paths) share one hoisted
factory dict and instantiate fresh reducers from it per stream via
:meth:`ReducerSet.from_factories`; that keeps "which reducers run" a
single construction site instead of N copies drifting apart, and makes
the per-call cost one dict lookup.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Any, Callable, Iterable, Iterator, Protocol, runtime_checkable

import numpy as np

from repro.engine.accumulate import (
    ColumnCache,
    CorrelationAccumulator,
    MomentAccumulator,
    as_columns,
    as_matrix,
)
from repro.hosts.population import RESOURCE_LABELS
from repro.stats.sketch import DEFAULT_COMPRESSION, QuantileSketch
from repro.stats.state import (
    StateError,
    decode_compression,
    decode_count,
    decode_floats,
    decode_labels,
    require_state,
    state_field,
)
from repro.table import ColumnBlock

#: The nine decile probabilities reported by quantile reducers.
DECILES: tuple[float, ...] = tuple(np.round(np.arange(0.1, 0.91, 0.1), 2))


@runtime_checkable
class Reducer(Protocol):
    """One-pass, mergeable aggregation over population chunks.

    ``update`` folds a chunk (a :class:`~repro.table.ColumnBlock` or a
    ``{label: column}`` dict) into the running state and returns
    ``self``; ``merge`` folds a same-shaped reducer in (shard reduction)
    and returns ``self``; ``result`` reports the aggregate.
    Implementations must satisfy ``merge(a, b).result() == update(a with
    b's data).result()`` to float-merge precision — that algebra is what
    makes chunking and shard placement invisible to every consumer.
    """

    def update(self, chunk: "ColumnBlock | dict") -> "Reducer": ...

    def merge(self, other: "Reducer") -> "Reducer": ...

    def result(self) -> Any: ...


#: A zero-argument callable producing a fresh reducer (must be picklable
#: for the sharded fan-out: classes and ``functools.partial`` qualify).
ReducerFactory = Callable[[], Reducer]


def as_chunk_stream(
    source: "ColumnBlock | dict | Iterable[ColumnBlock | dict]",
) -> "Iterator[ColumnBlock | dict]":
    """Normalise block-or-chunks input into a chunk iterator.

    Lets every consumer accept either an in-memory block — a host
    population or a scenario block — (one chunk) or a stream such as
    :func:`~repro.engine.streaming.stream_population`.
    """
    if isinstance(source, (ColumnBlock, dict)):
        yield source
    else:
        yield from source


class QuantileReducer:
    """Mergeable per-column quantile sketches over the labelled resources.

    The streamed counterpart of :meth:`HostPopulation.medians` — medians
    and deciles of a fleet of any size in bounded memory, with shard
    sketches combined by :meth:`merge`.
    """

    #: Serialization schema version for :meth:`to_state` payloads.
    STATE_VERSION = 1

    def __init__(
        self,
        labels: "tuple[str, ...]" = RESOURCE_LABELS,
        compression: int = DEFAULT_COMPRESSION,
    ):
        self.labels = tuple(labels)
        self.compression = compression
        self._sketches = {label: QuantileSketch(compression) for label in self.labels}

    @property
    def count(self) -> int:
        """Number of hosts folded in."""
        return self._sketches[self.labels[0]].count if self.labels else 0

    def update(self, chunk: "ColumnBlock | dict") -> "QuantileReducer":
        for label, column in zip(self.labels, as_columns(chunk, self.labels)):
            self._sketches[label].update(column)
        return self

    def merge(self, other: "QuantileReducer") -> "QuantileReducer":
        if other.labels != self.labels:
            raise ValueError(f"label mismatch: {self.labels} vs {other.labels}")
        for label in self.labels:
            self._sketches[label].merge(other._sketches[label])
        return self

    def sketch(self, label: str) -> QuantileSketch:
        """The underlying sketch for one column."""
        return self._sketches[label]

    def to_state(self) -> dict:
        """Versioned JSON-safe snapshot (one sketch payload per column)."""
        return {
            "kind": "QuantileReducer",
            "state_version": self.STATE_VERSION,
            "labels": list(self.labels),
            "compression": self.compression,
            "sketches": {
                label: self._sketches[label].to_state() for label in self.labels
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> "QuantileReducer":
        """Restore a reducer from a :meth:`to_state` payload (StateError if bad)."""
        kind = "QuantileReducer"
        require_state(state, kind, cls.STATE_VERSION)
        labels = decode_labels(state, kind)
        sketches = state_field(state, kind, "sketches")
        if not isinstance(sketches, dict) or set(sketches) != set(labels):
            raise StateError(f"{kind} state sketches do not cover its labels")
        restored = {
            label: QuantileSketch.from_state(sketches[label]) for label in labels
        }
        reducer = cls(labels, compression=decode_compression(state, kind))
        reducer._sketches = restored
        return reducer

    def quantiles(self, q: "np.ndarray | list[float] | float") -> "dict[str, np.ndarray]":
        """Per-column quantile estimates at probabilities ``q``."""
        return {
            label: np.asarray(self._sketches[label].quantile(np.asarray(q, dtype=float)))
            for label in self.labels
        }

    def medians(self) -> "dict[str, float]":
        """Estimated median per column (streamed Table IV-style medians).

        ``nan`` per column before any data arrives, mirroring the empty
        :meth:`MomentAccumulator.means` (the raw sketches raise instead).
        """
        if self.count == 0:
            return {label: float("nan") for label in self.labels}
        return {label: self._sketches[label].median() for label in self.labels}

    def result(self) -> "dict[str, dict[float, float]]":
        """Deciles per column: ``{label: {0.1: q10, ..., 0.9: q90}}``."""
        out: "dict[str, dict[float, float]]" = {}
        for label in self.labels:
            if self.count == 0:
                out[label] = {p: float("nan") for p in DECILES}
                continue
            values = np.asarray(self._sketches[label].quantile(np.asarray(DECILES)))
            out[label] = {p: float(v) for p, v in zip(DECILES, values)}
        return out


class ExactQuantileReducer:
    """Materialising quantile reducer — the batch path of the protocol.

    Stores the columns it sees (memory grows with the data, unlike the
    sketch) and answers with exact ``np.quantile`` values.  The batch
    :meth:`HostPopulation.medians` delegates here, so swapping it for a
    :class:`QuantileReducer` is the *only* difference between the exact
    and the streamed pipeline.
    """

    #: Serialization schema version for :meth:`to_state` payloads.
    STATE_VERSION = 1

    def __init__(self, labels: "tuple[str, ...]" = RESOURCE_LABELS):
        self.labels = tuple(labels)
        self._parts: "list[np.ndarray]" = []

    @property
    def count(self) -> int:
        """Number of hosts folded in."""
        return sum(part.shape[0] for part in self._parts)

    def update(self, chunk: "ColumnBlock | dict") -> "ExactQuantileReducer":
        data = as_matrix(chunk, self.labels)
        if data.shape[0]:
            self._parts.append(data)
        return self

    def merge(self, other: "ExactQuantileReducer") -> "ExactQuantileReducer":
        if other.labels != self.labels:
            raise ValueError(f"label mismatch: {self.labels} vs {other.labels}")
        self._parts.extend(other._parts)
        return self

    def _stacked(self) -> np.ndarray:
        """The materialised sample, concatenated once and cached.

        Collapsing ``_parts`` into a single array *is* the cache —
        repeated ``result()``/``quantiles()``/``medians()`` calls between
        updates reuse it without re-concatenating; ``update``/``merge``
        appending a new part is what invalidates it.
        """
        if not self._parts:
            raise ValueError("cannot query an empty reducer")
        if len(self._parts) > 1:
            self._parts = [np.concatenate(self._parts, axis=0)]
        return self._parts[0]

    def column(self, label: str) -> np.ndarray:
        """The accumulated sample for one column."""
        return self._stacked()[:, self.labels.index(label)]

    def to_state(self) -> dict:
        """Versioned JSON-safe snapshot (materialises the full sample).

        This reducer *is* its data, so the payload scales with the hosts
        folded in — it exists for contract completeness and small batches;
        checkpointed fleet runs should carry the sketch-backed
        :class:`QuantileReducer` instead.
        """
        data = self._stacked() if self._parts else np.empty((0, len(self.labels)))
        return {
            "kind": "ExactQuantileReducer",
            "state_version": self.STATE_VERSION,
            "labels": list(self.labels),
            "data": data.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "ExactQuantileReducer":
        """Restore a reducer from a :meth:`to_state` payload (StateError if bad)."""
        kind = "ExactQuantileReducer"
        require_state(state, kind, cls.STATE_VERSION)
        labels = decode_labels(state, kind)
        data = decode_floats(state, kind, "data", finite=True)
        if data.size == 0:
            data = data.reshape(0, len(labels))
        if data.ndim != 2 or data.shape[1] != len(labels):
            raise StateError(
                f"{kind} state data has shape {data.shape}; expected "
                f"(n, {len(labels)})"
            )
        reducer = cls(labels)
        if data.shape[0]:
            reducer._parts.append(data)
        return reducer

    def quantiles(self, q: "np.ndarray | list[float] | float") -> "dict[str, np.ndarray]":
        """Exact per-column quantiles at probabilities ``q``.

        ``nan`` before any data arrives — matching ``np.quantile`` on an
        empty sample (and :meth:`QuantileReducer.medians`), so the batch
        delegation keeps the pre-reducer nan-on-empty behaviour.
        """
        probs = np.asarray(q, dtype=float)
        if not self._parts:
            return {label: np.full(probs.shape, np.nan) for label in self.labels}
        # One batched np.quantile over every column at once (same selection
        # algorithm column-wise as per-column calls, ~k fewer passes).
        values = np.quantile(self._stacked(), probs, axis=0)
        return {
            label: np.asarray(values[..., i]) for i, label in enumerate(self.labels)
        }

    def medians(self) -> "dict[str, float]":
        """Exact median per column, matching :func:`np.median` (nan if empty)."""
        if not self._parts:
            return {label: float("nan") for label in self.labels}
        values = np.median(self._stacked(), axis=0)
        return {label: float(values[i]) for i, label in enumerate(self.labels)}

    def result(self) -> "dict[str, dict[float, float]]":
        """Deciles per column, same shape as :meth:`QuantileReducer.result`."""
        if not self._parts:
            return {
                label: {p: float("nan") for p in DECILES} for label in self.labels
            }
        values = np.quantile(self._stacked(), np.asarray(DECILES), axis=0)
        return {
            label: {p: float(v) for p, v in zip(DECILES, values[:, i])}
            for i, label in enumerate(self.labels)
        }


def _transform_fingerprint(transform) -> "tuple | None":
    """A pickling-stable identity for a transform callable.

    Shard reducers are built from *unpickled copies* of their factories, so
    the parent's merge cannot compare transforms with ``is`` — a
    ``functools.partial`` (or any non-module-level callable) comes back as
    a distinct object.  Compare module/qualname when available and fall
    back to ``repr`` (which spells out a partial's function and arguments).
    """
    if transform is None:
        return None
    module = getattr(transform, "__module__", None)
    qualname = getattr(transform, "__qualname__", None)
    if qualname is not None:
        return (module, qualname)
    return (module, repr(transform))


def _fingerprint_state(transform) -> "list | None":
    """JSON form of a transform fingerprint (tuples do not survive JSON)."""
    fingerprint = _transform_fingerprint(transform)
    return None if fingerprint is None else list(fingerprint)


def _check_fingerprint(state: dict, kind: str, transform) -> None:
    """Require ``from_state``'s transform to match the serialised fingerprint."""
    recorded = state_field(state, kind, "transform")
    if recorded is not None and not isinstance(recorded, list):
        raise StateError(f"{kind} state transform fingerprint is malformed")
    if _fingerprint_state(transform) != recorded:
        raise StateError(
            f"{kind} state was serialised with transform fingerprint "
            f"{recorded!r}; pass the same transform to from_state "
            f"(got {_fingerprint_state(transform)!r})"
        )


class HistogramReducer:
    """Mergeable fixed-edge histogram of one column.

    Streamed analogue of :func:`~repro.stats.ecdf.histogram_density`: the
    bin edges are fixed up front (a streaming histogram cannot discover its
    range after the fact), counts merge exactly across chunks and shards,
    and :meth:`result` reports ``(bin_centres, density)``.
    """

    #: Serialization schema version for :meth:`to_state` payloads.
    STATE_VERSION = 1

    def __init__(
        self,
        label: str,
        edges: "np.ndarray | list[float]",
        transform: "Callable[[np.ndarray], np.ndarray] | None" = None,
    ):
        self.label = label
        self.edges = np.asarray(edges, dtype=float)
        if self.edges.ndim != 1 or self.edges.size < 2:
            raise ValueError("edges must be a 1-D array of at least two edges")
        if np.any(np.diff(self.edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        self.transform = transform
        self.counts = np.zeros(self.edges.size - 1, dtype=np.int64)
        self.count = 0

    def update(self, chunk: "ColumnBlock | dict") -> "HistogramReducer":
        values = np.asarray(chunk[self.label], dtype=float)
        if self.transform is not None:
            values = self.transform(values)
        values = values[np.isfinite(values)]
        counts, _ = np.histogram(values, bins=self.edges)
        self.counts += counts
        self.count += int(values.size)
        return self

    def merge(self, other: "HistogramReducer") -> "HistogramReducer":
        if other.label != self.label or not np.array_equal(other.edges, self.edges):
            raise ValueError("histogram reducers must share label and edges")
        if _transform_fingerprint(other.transform) != _transform_fingerprint(
            self.transform
        ):
            raise ValueError(
                "histogram reducers must share a transform; merging counts "
                "taken in different coordinate spaces would be silent nonsense"
            )
        self.counts += other.counts
        self.count += other.count
        return self

    def to_state(self) -> dict:
        """Versioned JSON-safe snapshot of the counts.

        The transform *callable* cannot travel in a JSON payload; its
        fingerprint does, and :meth:`from_state` demands the same transform
        back — exactly the guard :meth:`merge` applies.
        """
        return {
            "kind": "HistogramReducer",
            "state_version": self.STATE_VERSION,
            "label": self.label,
            "edges": self.edges.tolist(),
            "counts": [int(c) for c in self.counts],
            "count": int(self.count),
            "transform": _fingerprint_state(self.transform),
        }

    @classmethod
    def from_state(
        cls,
        state: dict,
        transform: "Callable[[np.ndarray], np.ndarray] | None" = None,
    ) -> "HistogramReducer":
        """Restore a reducer from a :meth:`to_state` payload.

        A payload serialised with a transform can only be restored by
        passing the *same* transform back in (compared by fingerprint, as
        :meth:`merge` does); a mismatch raises
        :class:`~repro.stats.state.StateError`.
        """
        kind = "HistogramReducer"
        require_state(state, kind, cls.STATE_VERSION)
        label = state_field(state, kind, "label")
        if not isinstance(label, str):
            raise StateError(f"{kind} state label must be a string, got {label!r}")
        _check_fingerprint(state, kind, transform)
        edges = decode_floats(state, kind, "edges", finite=True)
        try:
            reducer = cls(label, edges, transform=transform)
        except ValueError as error:
            raise StateError(f"{kind} state edges are invalid: {error}")
        counts = decode_floats(state, kind, "counts", (edges.size - 1,), finite=True)
        if np.any(counts < 0) or np.any(counts != np.floor(counts)):
            raise StateError(f"{kind} state counts must be non-negative integers")
        reducer.counts = counts.astype(np.int64)
        reducer.count = decode_count(state, kind)
        return reducer

    def centres(self) -> np.ndarray:
        """Bin centres (matching :func:`histogram_density`)."""
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def density(self) -> np.ndarray:
        """Density-normalised counts (integrates to the in-range fraction)."""
        if self.count == 0:
            return np.zeros_like(self.counts, dtype=float)
        widths = np.diff(self.edges)
        in_range = self.counts.sum()
        if in_range == 0:
            return np.zeros_like(self.counts, dtype=float)
        return self.counts / (in_range * widths)

    def result(self) -> "tuple[np.ndarray, np.ndarray]":
        """``(bin_centres, density)`` — what the figure benches print."""
        return self.centres(), self.density()


class ECDFReducer:
    """Sketch-backed empirical-distribution reducer for one column.

    Streams a column through a :class:`QuantileSketch` and reports an
    :class:`~repro.stats.ecdf.ECDF` — the streamed stand-in for
    ``ECDF.from_sample`` used by CDF panels and KS comparisons.
    """

    #: Serialization schema version for :meth:`to_state` payloads.
    STATE_VERSION = 1

    def __init__(
        self,
        label: str,
        compression: int = DEFAULT_COMPRESSION,
        transform: "Callable[[np.ndarray], np.ndarray] | None" = None,
        n_points: int = 256,
    ):
        self.label = label
        self.transform = transform
        self.n_points = n_points
        self.sketch = QuantileSketch(compression)

    @property
    def count(self) -> int:
        """Number of values folded in."""
        return self.sketch.count

    def update(self, chunk: "ColumnBlock | dict") -> "ECDFReducer":
        values = np.asarray(chunk[self.label], dtype=float)
        if self.transform is not None:
            values = self.transform(values)
        self.sketch.update(values[np.isfinite(values)])
        return self

    def merge(self, other: "ECDFReducer") -> "ECDFReducer":
        if other.label != self.label:
            raise ValueError("ECDF reducers must share a label")
        if _transform_fingerprint(other.transform) != _transform_fingerprint(
            self.transform
        ):
            raise ValueError("ECDF reducers must share a transform")
        self.sketch.merge(other.sketch)
        return self

    def to_state(self) -> dict:
        """Versioned JSON-safe snapshot (sketch payload + transform fingerprint)."""
        return {
            "kind": "ECDFReducer",
            "state_version": self.STATE_VERSION,
            "label": self.label,
            "n_points": self.n_points,
            "transform": _fingerprint_state(self.transform),
            "sketch": self.sketch.to_state(),
        }

    @classmethod
    def from_state(
        cls,
        state: dict,
        transform: "Callable[[np.ndarray], np.ndarray] | None" = None,
    ) -> "ECDFReducer":
        """Restore a reducer from a :meth:`to_state` payload.

        Like :meth:`HistogramReducer.from_state`, a payload serialised with
        a transform requires the same transform passed back in.
        """
        kind = "ECDFReducer"
        require_state(state, kind, cls.STATE_VERSION)
        label = state_field(state, kind, "label")
        if not isinstance(label, str):
            raise StateError(f"{kind} state label must be a string, got {label!r}")
        _check_fingerprint(state, kind, transform)
        n_points = state_field(state, kind, "n_points")
        if not isinstance(n_points, int) or n_points < 2:
            raise StateError(
                f"{kind} state n_points must be an integer >= 2, got {n_points!r}"
            )
        sketch = QuantileSketch.from_state(state_field(state, kind, "sketch"))
        reducer = cls(
            label,
            compression=sketch.compression,
            transform=transform,
            n_points=n_points,
        )
        reducer.sketch = sketch
        return reducer

    def result(self):
        """The approximate :class:`~repro.stats.ecdf.ECDF` of the stream."""
        return self.sketch.to_ecdf(self.n_points)


class ReducerSet:
    """A named bundle of reducers driven as one.

    The pluggable unit the engine passes around: ``update``/``merge`` fan
    out to every member, ``result`` collects ``{name: member.result()}``.
    Build from instances, or from picklable zero-argument factories with
    :meth:`from_factories` (the form ``generate_sharded`` ships to worker
    processes).
    """

    #: Serialization schema version for :meth:`to_state` payloads.
    STATE_VERSION = 1

    def __init__(self, reducers: "dict[str, Reducer]"):
        self._reducers = dict(reducers)

    @classmethod
    def from_factories(cls, factories: "dict[str, ReducerFactory]") -> "ReducerSet":
        """Instantiate a fresh set from ``{name: factory}``."""
        return cls({name: factory() for name, factory in factories.items()})

    def update(self, chunk: "ColumnBlock | dict") -> "ReducerSet":
        # One ColumnCache per chunk: members share column extraction and
        # the shape and finiteness checks instead of each re-normalising
        # the same block (see accumulate.ColumnCache).
        if len(self._reducers) > 1 and not isinstance(chunk, ColumnCache):
            chunk = ColumnCache(chunk)
        for reducer in self._reducers.values():
            reducer.update(chunk)
        return self

    def merge(self, other: "ReducerSet") -> "ReducerSet":
        if set(other._reducers) != set(self._reducers):
            raise ValueError(
                f"reducer-set mismatch: {sorted(self._reducers)} vs "
                f"{sorted(other._reducers)}"
            )
        for name, reducer in self._reducers.items():
            reducer.merge(other._reducers[name])
        return self

    def result(self) -> "dict[str, Any]":
        return {name: reducer.result() for name, reducer in self._reducers.items()}

    def to_state(self) -> dict:
        """Versioned JSON-safe snapshot: one member payload per name.

        Every member must implement the serialization contract (all the
        built-in reducers do); a member without ``to_state`` raises
        :class:`~repro.stats.state.StateError` naming it.
        """
        states: "dict[str, dict]" = {}
        for name, reducer in self._reducers.items():
            to_state = getattr(reducer, "to_state", None)
            if to_state is None:
                raise StateError(
                    f"reducer {name!r} ({type(reducer).__name__}) does not "
                    "implement to_state, so this set cannot be checkpointed"
                )
            states[name] = to_state()
        return {
            "kind": "ReducerSet",
            "state_version": self.STATE_VERSION,
            "reducers": states,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ReducerSet":
        """Restore a set from a :meth:`to_state` payload.

        Members are dispatched on their payload ``kind`` through
        :func:`reducer_from_state`; a corrupted, unknown-kind or
        wrong-version member raises :class:`~repro.stats.state.StateError`.
        """
        require_state(state, "ReducerSet", cls.STATE_VERSION)
        members = state_field(state, "ReducerSet", "reducers")
        if not isinstance(members, dict):
            raise StateError("ReducerSet state field 'reducers' must be a dict")
        return cls(
            {name: reducer_from_state(member) for name, member in members.items()}
        )

    def get(self, name: str, default: Any = None) -> Any:
        return self._reducers.get(name, default)

    def names(self) -> "tuple[str, ...]":
        return tuple(self._reducers)

    def __getitem__(self, name: str) -> Reducer:
        return self._reducers[name]

    def __contains__(self, name: str) -> bool:
        return name in self._reducers

    def __iter__(self) -> "Iterator[str]":
        return iter(self._reducers)

    def __len__(self) -> int:
        return len(self._reducers)


@lru_cache(maxsize=None)
def stream_profile_factories(
    labels: "tuple[str, ...]" = RESOURCE_LABELS,
    compression: int = DEFAULT_COMPRESSION,
    correlation: bool = True,
) -> "dict[str, ReducerFactory]":
    """The hoisted factory dict the streamed analysis entry points share.

    One construction site for the moments + quantiles (+ correlation)
    profile every streamed comparison/overview folds through:
    ``compare_streams``, ``streamed_distribution`` and friends used to
    rebuild these factory bindings on every call (and per loop iteration)
    — now they fetch the memoised dict and only pay
    :meth:`ReducerSet.from_factories` per stream.  See the module
    docstring's *factory hoisting* note before adding another
    per-call construction.

    The returned dict is cached and shared — treat it as frozen; copy
    before mutating (as :func:`~repro.engine.sharding._resolve_factories`
    does with the default set).
    """
    factories: "dict[str, ReducerFactory]" = {
        "moments": partial(MomentAccumulator, tuple(labels)),
        "quantiles": partial(QuantileReducer, tuple(labels), compression),
    }
    if correlation:
        factories["correlation"] = CorrelationAccumulator
    return factories


#: Reducer names whose states enter the validation statistics digest, in
#: digest order.  Fixed independently of what extra reducers a probe adds,
#: so the pinned digest is stable under registry growth.
VALIDATION_PROFILE_NAMES: tuple[str, ...] = ("correlation", "moments", "quantiles")


@lru_cache(maxsize=None)
def validation_profile_factories(
    labels: "tuple[str, ...]" = RESOURCE_LABELS,
    compression: int = DEFAULT_COMPRESSION,
) -> "dict[str, ReducerFactory]":
    """The hoisted factory dict the ``fleet validate`` probes stream with.

    The canonical probe profile: moments + correlation + quantile sketch,
    exactly the :func:`stream_profile_factories` membership today, hoisted
    under its own name so probe-needed reducer additions have a single
    construction site (and so the probe registry's declarative
    ``factories`` fields all alias one shared dict).  Every member must
    implement ``to_state`` — the validation runner digests the
    :data:`VALIDATION_PROFILE_NAMES` subset of the merged states to pin
    streamed-statistics determinism.

    Cached and shared like :func:`stream_profile_factories`: treat the
    returned dict as frozen; copy before mutating.
    """
    return stream_profile_factories(tuple(labels), compression, correlation=True)


#: State-payload ``kind`` → restoring class, for :func:`reducer_from_state`.
STATE_KINDS: "dict[str, Any]" = {
    "MomentAccumulator": MomentAccumulator,
    "CorrelationAccumulator": CorrelationAccumulator,
    "QuantileReducer": QuantileReducer,
    "ExactQuantileReducer": ExactQuantileReducer,
    "HistogramReducer": HistogramReducer,
    "ECDFReducer": ECDFReducer,
}


def reducer_from_state(state: Any) -> Reducer:
    """Restore any built-in reducer from its ``to_state`` payload.

    Dispatches on the payload's ``kind`` field; unknown kinds and
    non-dict payloads raise :class:`~repro.stats.state.StateError`.
    Histogram/ECDF payloads carrying a transform fingerprint cannot be
    restored generically — their ``from_state`` needs the transform
    callable back — so those surface the member class's own StateError.
    """
    if not isinstance(state, dict):
        raise StateError(
            f"reducer state must be a dict, got {type(state).__name__}"
        )
    kind = state.get("kind")
    cls = STATE_KINDS.get(kind)
    if cls is None:
        raise StateError(
            f"unknown reducer state kind {kind!r}; known kinds: "
            f"{sorted(STATE_KINDS)}"
        )
    return cls.from_state(state)


class ChunkedFold:
    """Fold population blocks into a reducer set in ~``chunk_size`` batches.

    The shared accumulation step of the shard statistics fan-out and the
    block-layout writer: blocks buffer until ``chunk_size`` hosts are
    pending, then one concatenated ``update`` folds them (fewer, more
    vectorised reducer calls).  Flush points are deterministic given the
    block sequence, which is what keeps resumed and uninterrupted runs
    bit-identical — both drivers must flush through this one code path.
    """

    def __init__(self, reducers: ReducerSet, chunk_size: int):
        self.reducers = reducers
        self.chunk_size = chunk_size
        self._batch: "list[ColumnBlock]" = []
        self._rows = 0

    def add(self, block: ColumnBlock) -> None:
        """Buffer one block, flushing when the batch reaches chunk_size."""
        self._batch.append(block)
        self._rows += len(block)
        if self._rows >= self.chunk_size:
            self.flush()

    def flush(self) -> None:
        """Fold any buffered blocks into the reducers now."""
        if not self._batch:
            return
        merged = (
            self._batch[0]
            if len(self._batch) == 1
            else type(self._batch[0]).concatenate(self._batch)
        )
        self.reducers.update(merged)
        self._batch = []
        self._rows = 0


def reduce_stream(
    source: "ColumnBlock | dict | Iterable[ColumnBlock | dict]",
    reducers: "ReducerSet | dict[str, Reducer]",
) -> ReducerSet:
    """Fold a block or chunk stream through a reducer set and return it."""
    reducer_set = reducers if isinstance(reducers, ReducerSet) else ReducerSet(reducers)
    for chunk in as_chunk_stream(source):
        reducer_set.update(chunk)
    return reducer_set
