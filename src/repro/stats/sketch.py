"""Mergeable quantile sketches for streamed distributions.

The paper characterises host resources by medians, deciles and full CDFs
(Figs 5–9, Tables III/IV) on heavy-tailed columns — exactly the quantities
the one-pass moment accumulators cannot produce.  :class:`QuantileSketch`
is a t-digest-style *merging* sketch (Dunning & Ertl): it keeps a bounded
set of weighted centroids whose resolution is finest near the tails, so
medians and deciles of a stream of any length are recovered to a small
fraction of a percent while shard sketches combine with :meth:`merge`.

The sketch is the streamed counterpart of ``np.quantile``: feeding the
whole sample through one sketch, or splitting it across several sketches
and merging them, yields quantiles within the compression-controlled error
bound of the exact batch values (property-tested against heavy-tailed
columns in ``tests/properties/test_property_sketch.py``).
"""

from __future__ import annotations

import numpy as np

from repro.stats.state import (
    StateError,
    decode_compression,
    decode_count,
    decode_floats,
    require_state,
    state_field,
)

#: Default compression (number of centroids scales with it).  200 keeps
#: median/decile error well under 0.1 % on the resource columns while the
#: sketch state stays a few kilobytes.
DEFAULT_COMPRESSION = 200


def _insert_sorted(at, inserted, inserted_weights, values, weights=None):
    """``np.insert`` of ``inserted`` and its weights at non-decreasing ``at``.

    Item ``i`` lands at ``at[i] + i``, as with ``np.insert``; ``values`` and
    ``weights`` (unit weights when ``None``) fill the other slots in order
    through one shared mask.
    """
    destinations = at + np.arange(at.size)
    size = values.size + at.size
    rest = np.ones(size, dtype=bool)
    rest[destinations] = False
    merged = np.empty(size)
    merged[destinations] = inserted
    merged[rest] = values
    merged_weights = np.ones(size) if weights is None else np.empty(size)
    merged_weights[destinations] = inserted_weights
    if weights is not None:
        merged_weights[rest] = weights
    return merged, merged_weights


class QuantileSketch:
    """Bounded-memory, mergeable quantile summary of a scalar stream.

    ``update`` folds value chunks in, ``merge`` folds another sketch in,
    ``quantile``/``cdf`` interrogate the summary.  Centroid resolution
    follows the t-digest ``k1`` scale function, so extreme quantiles stay
    near-exact (the global min/max are tracked exactly) and mid-quantiles
    carry the error bound.
    """

    #: Serialization schema version for :meth:`to_state` payloads.
    STATE_VERSION = 1

    def __init__(self, compression: int = DEFAULT_COMPRESSION):
        if compression < 20:
            raise ValueError("compression must be at least 20")
        self.compression = int(compression)
        #: ``(k(0), k(1))``: the clip range of the scale, computed once.
        self._k_range = (self._k(0.0), self._k(1.0))
        self.count = 0
        self._means = np.empty(0)
        self._weights = np.empty(0)
        #: Pending unit-weight chunks; the matching weight vector is a
        #: single ``np.ones`` materialised once per compression, not one
        #: allocation per ``update`` call.
        self._buffer: "list[np.ndarray]" = []
        #: Pending single values (the scalar fast path skips array
        #: construction entirely — a hot loop of per-host updates costs a
        #: float append, not four numpy allocations).
        self._scalars: "list[float]" = []
        #: Pending weighted centroid sets folded in by :meth:`merge`.
        self._weighted: "list[tuple[np.ndarray, np.ndarray]]" = []
        self._buffered = 0
        self._min = np.inf
        self._max = -np.inf

    # -- ingestion ---------------------------------------------------------

    def update(self, values: "np.ndarray | list[float] | float") -> "QuantileSketch":
        """Fold a chunk of values (or one scalar) into the sketch.

        The buffer flushes on *total buffered size* (values, not calls),
        so a million one-value updates hold the same bounded memory as one
        million-value update.
        """
        if isinstance(values, (float, int)) and not isinstance(values, bool):
            value = float(values)
            if not np.isfinite(value):
                raise ValueError("QuantileSketch requires finite values")
            self._scalars.append(value)
            self._buffered += 1
            self.count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
        else:
            data = np.atleast_1d(np.asarray(values, dtype=float)).ravel()
            if data.size == 0:
                return self
            if not np.all(np.isfinite(data)):
                raise ValueError("QuantileSketch requires finite values")
            if self._buffered + data.size < 10 * self.compression:
                # Still pending when the call returns: hold a copy, never
                # a view the caller may go on to change.
                data = data.copy()
            self._buffer.append(data)
            self._buffered += data.size
            self.count += data.size
            self._min = min(self._min, float(data.min()))
            self._max = max(self._max, float(data.max()))
        if self._buffered >= 10 * self.compression:
            self._compress()
        return self

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold another sketch (e.g. a shard's) into this one."""
        if other.count == 0:
            return self
        other._compress()
        self._weighted.append((other._means.copy(), other._weights.copy()))
        self._buffered += other._means.size
        self.count += other.count
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        self._compress()
        return self

    def _pending(self) -> bool:
        return bool(self._buffer or self._scalars or self._weighted)

    def _compress(self) -> None:
        """Merge buffered points and centroids into a fresh centroid set.

        **Order.**  The pass walks the pending points in the order a
        stable sort of ``[centroids, merged centroid sets in merge order,
        unit values in arrival order]`` gives: among equal values the
        earlier source comes first.  Every input but the units is already
        sorted, so the order is built by merging, never by sorting the
        whole concatenation.  Each merged set goes into the centroids at
        ``searchsorted(side="right")`` (after equal centroids), the units
        are sorted on their own, and the centroids go into them at
        ``searchsorted(side="left")`` (before equal units); the insertion
        keeps values inserted at one position in their own order.  Equal
        finite floats are bit-identical, with one exception: ``-0.0`` and
        ``+0.0``, which ``np.sort`` may swap.  A zero's sign reaches the
        output through span sums and the ``clip`` bounds, so when
        centroids are present the zero run of the sorted units is
        rewritten in arrival order.  With no centroids the sorted units
        are the whole pass, and that path has always been the plain sort.

        **Spans.**  One vectorised t-digest merge pass with the k1 scale
        function ``k(q) = (c / 2π) asin(2q − 1)``: a centroid may span
        cumulative quantiles ``[q0, q1]`` only while
        ``k(q1) − k(q0) <= 1``.  The pass precomputes the cumulative
        weights and finds each centroid's span with one ``searchsorted``
        against the inverse-scale boundary — O(centroids · log n) instead
        of O(n) interpreter work — then reduces every span's weighted mean
        with ``np.add.reduceat``.

        **Whole weights.**  Every weight is a sum of 1.0s, a whole number
        that float64 holds exactly (``from_state`` refuses any other), so
        the cumulative weights, span totals and ``k`` positions are exact
        and the segmentation does not depend on how the pass is driven.
        The property suite pins the result centroid for centroid, bit for
        bit, against a stable-sort, scalar-loop reference.
        """
        if not self._pending():
            return
        unit_values = self._buffer
        if self._scalars:
            unit_values = unit_values + [np.asarray(self._scalars, dtype=float)]
        if len(unit_values) == 1:
            raw = unit_values[0]
        else:
            raw = np.concatenate(unit_values) if unit_values else np.empty(0)
        means, weights = self._means, self._weights
        for other_means, other_weights in self._weighted:
            at = np.searchsorted(means, other_means, side="right")
            means, weights = _insert_sorted(
                at, other_means, other_weights, means, weights
            )
        self._buffer = []
        self._scalars = []
        self._weighted = []
        self._buffered = 0
        x = np.sort(raw)
        if means.size:
            # Zeros back in arrival order (np.sort may swap -0.0/+0.0).
            lo = np.searchsorted(x, 0.0, side="left")
            hi = np.searchsorted(x, 0.0, side="right")
            if hi - lo > 1:
                x[lo:hi] = raw[raw == 0.0]
            at = np.searchsorted(x, means, side="left")
            x, w = _insert_sorted(at, means, weights, x)
            total = w.sum()
            cumulative = np.cumsum(w)
        elif x.size:
            # Unit weights only: the cumulative weight is the position.
            w = None
            total = float(x.size)
            cumulative = np.arange(1.0, total + 1.0)
        else:
            return

        # The walk evaluates _k_inverse(k_lo + 1.0) and _k(q) inline, with
        # their clips as comparisons and their constants hoisted (the same
        # subexpressions, so the same bits).
        n = x.size
        bounds: "list[int]" = []
        start = 0
        k_min, k_max = self._k_range
        k_lo = k_min
        two_pi = 2.0 * np.pi
        compression = self.compression
        scale = compression / two_pi
        searchsorted, sin, arcsin = cumulative.searchsorted, np.sin, np.arcsin
        while start < n:
            k = k_lo + 1.0
            if k >= k_max:
                bounds.append(n)
                break
            if not k > k_min:
                k = k_min
            limit = 0.5 * (sin(two_pi * k / compression) + 1.0) * total
            j = int(searchsorted(limit, side="right"))
            if j <= start:
                j = start + 1  # a span always takes its first point
            bounds.append(j)
            if j >= n:
                break
            q = cumulative[j - 1] / total
            q = (q if q < 1.0 else 1.0) if q > 0.0 else 0.0
            k_lo = scale * arcsin(2.0 * q - 1.0)
            start = j

        edges = np.asarray(bounds, dtype=np.intp)
        starts = np.concatenate(([0], edges[:-1]))
        if w is None:
            sizes = np.diff(np.concatenate(([0], edges))).astype(float)
            means = np.add.reduceat(x, starts) / sizes
        else:
            sizes = np.add.reduceat(w, starts)
            means = np.add.reduceat(x * w, starts) / sizes
        # A span's mean must lie within its value range; enforce it so
        # float rounding (or an overflowing product sum on extreme
        # magnitudes) can never produce out-of-order or non-finite
        # centroids — from_state rejects both.
        low, high = x[starts], x[edges - 1]
        bad = ~np.isfinite(means)
        if bad.any():
            means[bad] = 0.5 * low[bad] + 0.5 * high[bad]
        np.clip(means, low, high, out=means)
        self._means = means
        self._weights = sizes

    def _k(self, q: float) -> float:
        """The t-digest k1 potential at quantile ``q``."""
        q = min(1.0, max(0.0, q))
        return self.compression / (2.0 * np.pi) * np.arcsin(2.0 * q - 1.0)

    def _k_inverse(self, k: float) -> float:
        """The quantile whose k1 potential is ``k`` (clipped into [0, 1])."""
        k_min, k_max = self._k_range
        k = min(k_max, max(k_min, k))
        return 0.5 * (np.sin(2.0 * np.pi * k / self.compression) + 1.0)

    # -- serialization -----------------------------------------------------

    def to_state(self) -> dict:
        """Versioned JSON-safe snapshot of the sketch.

        The buffer is compressed first so the payload is the canonical
        centroid set; restoring with :meth:`from_state` and continuing the
        stream is bit-identical to never having serialised (floats survive
        the JSON round trip exactly).
        """
        self._compress()
        return {
            "kind": "QuantileSketch",
            "state_version": self.STATE_VERSION,
            "compression": self.compression,
            "count": int(self.count),
            "means": self._means.tolist(),
            "weights": self._weights.tolist(),
            "min": float(self._min),
            "max": float(self._max),
        }

    @classmethod
    def from_state(cls, state: dict) -> "QuantileSketch":
        """Restore a sketch from a :meth:`to_state` payload.

        Raises :class:`~repro.stats.state.StateError` on a corrupted,
        mismatched or wrong-version payload.
        """
        kind = "QuantileSketch"
        require_state(state, kind, cls.STATE_VERSION)
        compression = decode_compression(state, kind)
        count = decode_count(state, kind)
        means = decode_floats(state, kind, "means")
        weights = decode_floats(state, kind, "weights")
        if means.ndim != 1 or means.shape != weights.shape:
            raise StateError(
                f"{kind} state means/weights must be 1-D arrays of equal "
                f"length, got {means.shape} and {weights.shape}"
            )
        if (count == 0) != (means.size == 0):
            raise StateError(f"{kind} state count disagrees with its centroids")
        if means.size and (
            not np.all(np.isfinite(means))
            or not np.all(np.isfinite(weights))
            or np.any(weights <= 0)
        ):
            raise StateError(
                f"{kind} state centroids must be finite with finite positive "
                "weights"
            )
        if np.any(weights != np.floor(weights)):
            raise StateError(
                f"{kind} state weights must be whole numbers (sums of unit "
                "weights)"
            )
        low = float(state_field(state, kind, "min"))
        high = float(state_field(state, kind, "max"))
        if count and not (np.isfinite(low) and np.isfinite(high) and low <= high):
            raise StateError(
                f"{kind} state min/max ({low!r}, {high!r}) are not a finite range"
            )
        # Structural invariants of a valid sketch: centroids sorted within
        # [min, max], unit weights summing exactly to the count (weights
        # are sums of 1.0s, exact in float64).  A payload violating these
        # would interpolate silently wrong quantiles.
        if means.size and (
            np.any(np.diff(means) < 0)
            or means[0] < low
            or means[-1] > high
            or float(weights.sum()) != float(count)
        ):
            raise StateError(
                f"{kind} state centroids are inconsistent (unsorted, outside "
                "min/max, or weights not summing to count)"
            )
        sketch = cls(compression)
        sketch.count = count
        sketch._means = means
        sketch._weights = weights
        sketch._min = low
        sketch._max = high
        return sketch

    # -- queries -----------------------------------------------------------

    @property
    def min(self) -> float:
        """Exact minimum of the stream (``inf`` when empty)."""
        return self._min

    @property
    def max(self) -> float:
        """Exact maximum of the stream (``-inf`` when empty)."""
        return self._max

    def centroid_count(self) -> int:
        """Number of stored centroids (bounded by ~2 × compression)."""
        self._compress()
        return int(self._means.size)

    def quantile(self, q: "np.ndarray | float") -> "np.ndarray | float":
        """Estimate the quantile(s) at probabilities ``q`` in [0, 1]."""
        if self.count == 0:
            raise ValueError("cannot query an empty sketch")
        probs = np.asarray(q, dtype=float)
        if np.any((probs < 0.0) | (probs > 1.0)):
            raise ValueError("quantile probabilities must lie in [0, 1]")
        self._compress()
        # Piecewise-linear through centroid weight midpoints, anchored at
        # the exact stream min/max.
        mids = np.cumsum(self._weights) - 0.5 * self._weights
        xp = np.concatenate(([0.0], mids, [float(self.count)]))
        fp = np.concatenate(([self._min], self._means, [self._max]))
        out = np.interp(probs * self.count, xp, fp)
        return float(out) if np.isscalar(q) or probs.ndim == 0 else out

    def median(self) -> float:
        """Estimated median of the stream."""
        return float(self.quantile(0.5))

    def cdf(self, x: "np.ndarray | float") -> "np.ndarray | float":
        """Estimate P(X <= x) under the sketched distribution."""
        if self.count == 0:
            raise ValueError("cannot query an empty sketch")
        self._compress()
        pts = np.asarray(x, dtype=float)
        mids = np.cumsum(self._weights) - 0.5 * self._weights
        xp = np.concatenate(([self._min], self._means, [self._max]))
        fp = np.concatenate(([0.0], mids / self.count, [1.0]))
        out = np.interp(pts, xp, fp, left=0.0, right=1.0)
        return float(out) if np.isscalar(x) or pts.ndim == 0 else out

    def to_ecdf(self, n_points: int = 256):
        """Approximate :class:`~repro.stats.ecdf.ECDF` of the stream.

        Evaluates the sketch quantile function on an even probability grid,
        which gives the distribution-function view the Fig 5–9 CDF panels
        and the streamed KS comparisons consume.
        """
        from repro.stats.ecdf import ECDF

        if n_points < 2:
            raise ValueError("need at least two ECDF points")
        probs = np.linspace(0.0, 1.0, n_points)
        xs = np.asarray(self.quantile(probs))
        values, first = np.unique(xs, return_index=True)
        # Keep the *largest* probability attached to each support point so
        # the step function stays right-continuous.
        last = np.concatenate((first[1:] - 1, [xs.size - 1]))
        return ECDF(x=values, y=probs[last])

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileSketch(count={self.count}, compression={self.compression}, "
            f"centroids={self._means.size}, buffered={self._buffered})"
        )
