"""Ratio chains: pairwise exponential ratio laws → discrete distributions.

The paper models discrete resources (core counts, per-core memory classes)
through the *ratios* of adjacent class populations, each ratio following its
own exponential law (Tables IV and V).  A :class:`RatioChain` assembles those
pairwise laws into a proper probability distribution at any point in time:
the top class gets unit weight, each lower class's weight is the one above it
multiplied by the connecting ratio, and the weights are normalised.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass

import numpy as np

from repro.core.laws import ExponentialLaw
from repro.timeutil import model_time


@dataclass(frozen=True)
class RatioChain:
    """A discrete distribution over ordered classes driven by ratio laws.

    Parameters
    ----------
    class_values:
        The ordered numeric class values, ascending (e.g. ``(1, 2, 4, 8, 16)``
        cores, or per-core memory in MB).
    ratio_laws:
        ``len(class_values) - 1`` laws; law ``i`` gives the population ratio
        ``count(class_values[i]) / count(class_values[i + 1])`` as a function
        of epoch-relative time (the paper's "1:2 Core Ratio" etc.).
    """

    class_values: tuple[float, ...]
    ratio_laws: tuple[ExponentialLaw, ...]

    def __post_init__(self) -> None:
        if len(self.class_values) < 2:
            raise ValueError("a ratio chain needs at least two classes")
        if len(self.ratio_laws) != len(self.class_values) - 1:
            raise ValueError(
                f"{len(self.class_values)} classes require "
                f"{len(self.class_values) - 1} ratio laws, got {len(self.ratio_laws)}"
            )
        diffs = np.diff(np.asarray(self.class_values, dtype=float))
        if np.any(diffs <= 0):
            raise ValueError("class values must be strictly ascending")

    @property
    def n_classes(self) -> int:
        """Number of discrete classes."""
        return len(self.class_values)

    def ratios(self, t: float) -> np.ndarray:
        """All adjacent ratios ``count(lower)/count(upper)`` at time ``t``."""
        return np.array([law.at(t) for law in self.ratio_laws], dtype=float)

    def weights(self, t: float) -> np.ndarray:
        """Unnormalised class weights at time ``t`` (top class = 1)."""
        weights = np.empty(self.n_classes, dtype=float)
        weights[-1] = 1.0
        for i in range(self.n_classes - 2, -1, -1):
            weights[i] = weights[i + 1] * self.ratio_laws[i].at(t)
        return weights

    def probabilities(self, when: "_dt.date | float") -> np.ndarray:
        """Class probability vector at a date or calendar-year float."""
        weights = self.weights(model_time(when))
        return weights / weights.sum()

    def mean(self, when: "_dt.date | float") -> float:
        """Expected class value at the given time."""
        probs = self.probabilities(when)
        return float(np.dot(probs, np.asarray(self.class_values, dtype=float)))

    def variance(self, when: "_dt.date | float") -> float:
        """Variance of the class value at the given time."""
        probs = self.probabilities(when)
        values = np.asarray(self.class_values, dtype=float)
        mean = float(np.dot(probs, values))
        return float(np.dot(probs, (values - mean) ** 2))

    def fraction_at_least(self, when: "_dt.date | float", value: float) -> float:
        """Probability mass on classes ``>= value`` (Fig 13/14 band curves)."""
        probs = self.probabilities(when)
        values = np.asarray(self.class_values, dtype=float)
        return float(probs[values >= value].sum())

    def cumulative(self, when: "_dt.date | float") -> np.ndarray:
        """Cumulative class probabilities at a date; the last entry is 1.0.

        This is the table :meth:`select_classes` reads.  It depends on the
        date only, so a caller drawing many blocks at one date can resolve
        it once.
        """
        cumulative = np.cumsum(self.probabilities(when))
        # Guard against floating-point sums slightly below 1.
        cumulative[-1] = 1.0
        return cumulative

    def select_classes(
        self, cumulative: np.ndarray, u: "float | np.ndarray"
    ) -> np.ndarray:
        """Class values that uniforms ``u`` in [0, 1] select from a table.

        ``cumulative`` comes from :meth:`cumulative`.  A uniform selects the
        class whose index is the number of thresholds strictly below it:
        ``searchsorted(cumulative, u, side="left")``, counted instead of
        binary-searched.  Both give the same index for every ``u`` in
        [0, 1]: the running sum never decreases and the table ends at
        1.0, so the thresholds below ``u`` form a prefix, the last one never
        counts and no clip is needed.  NaN is rejected with the
        out-of-range values.
        """
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        if not np.all((u_arr >= 0) & (u_arr <= 1)):
            raise ValueError("uniform variates must lie in [0, 1]")
        idx = np.zeros(u_arr.shape, dtype=np.intp)
        for threshold in cumulative[:-1]:
            idx += u_arr > threshold
        return np.asarray(self.class_values, dtype=float)[idx]

    def quantile_class(self, when: "_dt.date | float", u: "float | np.ndarray") -> np.ndarray:
        """Map uniform variates ``u`` in [0, 1] to class values (inverse CDF).

        This is the hook the correlated generator uses: a correlated normal
        is pushed through Φ to a uniform, which then indexes the class
        distribution so that larger normals select larger classes.
        """
        return self.select_classes(self.cumulative(when), u)

    def sample(
        self, when: "_dt.date | float", size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``size`` independent class values at the given time."""
        return self.quantile_class(when, rng.random(size))

    def truncated(self, max_value: float) -> "RatioChain":
        """Chain restricted to classes ``<= max_value`` (laws dropped with them).

        Section V-E's "simplified value set" keeps per-core memory classes up
        to 2048 MB even though Table V carries a 2G:4G ratio law describing
        the data; this method implements that simplification.
        """
        values = tuple(v for v in self.class_values if v <= max_value)
        if len(values) < 2:
            raise ValueError(
                f"truncation at {max_value} leaves fewer than two classes"
            )
        return RatioChain(
            class_values=values, ratio_laws=self.ratio_laws[: len(values) - 1]
        )

    def class_growth_exponents(self) -> np.ndarray:
        """Per-class weight growth exponents ``g_k`` (top class has 0).

        Class ``k``'s unnormalised weight evolves as a pure exponential with
        exponent equal to the sum of the ``b`` values of the ratio laws above
        it.  The synthetic-trace calibration uses these to compensate each
        class for population age-mixing individually.
        """
        exponents = np.zeros(self.n_classes)
        for i in range(self.n_classes - 2, -1, -1):
            exponents[i] = exponents[i + 1] + self.ratio_laws[i].b
        return exponents

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "class_values": list(self.class_values),
            "ratio_laws": [law.to_dict() for law in self.ratio_laws],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RatioChain":
        """Inverse of :meth:`to_dict`."""
        return cls(
            class_values=tuple(float(v) for v in payload["class_values"]),
            ratio_laws=tuple(
                ExponentialLaw.from_dict(item) for item in payload["ratio_laws"]
            ),
        )
