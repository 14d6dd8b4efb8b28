"""Numpy-backed host populations.

Analyses in the paper operate on hundreds of thousands of hosts at a time,
so the library keeps populations as column arrays rather than lists of
objects.  :class:`HostPopulation` provides the aggregate operations the
paper's figures need — means, standard deviations, correlation matrices of
the six resource quantities (including the derived memory-per-core column of
Table III) — plus conversion to/from :class:`~repro.hosts.host.Host` records.
It is the :class:`~repro.table.ColumnBlock` of :data:`HOST_SCHEMA`, so the
engine streams, folds and exports host blocks exactly like scenario blocks.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.hosts.host import Host
from repro.stats.correlation import CorrelationMatrix, pearson_matrix
from repro.table import ColumnBlock, TableSchema

#: Canonical resource column order used across the library.
RESOURCE_LABELS: tuple[str, ...] = (
    "cores",
    "memory_mb",
    "dhrystone",
    "whetstone",
    "disk_gb",
)

#: Table III's six quantities: the five resources plus memory-per-core.
CORRELATION_LABELS: tuple[str, ...] = (
    "cores",
    "memory_mb",
    "mem_per_core",
    "whetstone",
    "dhrystone",
    "disk_gb",
)

#: CSV header line for host exports.
HOST_CSV_HEADER = "cores,memory_mb,dhrystone_mips,whetstone_mips,disk_gb\n"

#: Row format matching :data:`HOST_CSV_HEADER` (one ``%`` spec per column).
HOST_CSV_FMT = "%d,%.1f,%.1f,%.1f,%.2f"

#: The host-resource schema: the columns of every :class:`HostPopulation`.
HOST_SCHEMA = TableSchema(RESOURCE_LABELS, HOST_CSV_FMT, HOST_CSV_HEADER)


def _resource(label: str) -> property:
    return property(lambda self: self._columns[label], doc=f"The {label!r} column.")


class HostPopulation(ColumnBlock):
    """A set of hosts stored as parallel resource columns.

    The :class:`~repro.table.ColumnBlock` of :data:`HOST_SCHEMA`, built
    from one keyword per resource.  Besides the five stored columns it
    answers the derived ``mem_per_core`` column through :meth:`column`,
    ``[...]`` and ``in``.
    """

    def __init__(self, cores, memory_mb, dhrystone, whetstone, disk_gb):
        super().__init__(
            {
                "cores": cores,
                "memory_mb": memory_mb,
                "dhrystone": dhrystone,
                "whetstone": whetstone,
                "disk_gb": disk_gb,
            },
            HOST_SCHEMA,
        )

    cores = _resource("cores")
    memory_mb = _resource("memory_mb")
    dhrystone = _resource("dhrystone")
    whetstone = _resource("whetstone")
    disk_gb = _resource("disk_gb")

    @classmethod
    def from_hosts(cls, hosts: "list[Host]") -> "HostPopulation":
        """Build a population from a list of host records."""
        return cls(
            cores=np.array([h.cores for h in hosts], dtype=float),
            memory_mb=np.array([h.memory_mb for h in hosts], dtype=float),
            dhrystone=np.array([h.dhrystone_mips for h in hosts], dtype=float),
            whetstone=np.array([h.whetstone_mips for h in hosts], dtype=float),
            disk_gb=np.array([h.disk_gb for h in hosts], dtype=float),
        )

    def to_hosts(self) -> "list[Host]":
        """Materialise the population as host records (use sparingly)."""
        return [
            Host(
                cores=int(round(c)),
                memory_mb=float(m),
                dhrystone_mips=float(d),
                whetstone_mips=float(w),
                disk_gb=float(g),
            )
            for c, m, d, w, g in zip(
                self.cores, self.memory_mb, self.dhrystone, self.whetstone, self.disk_gb
            )
        ]

    @property
    def mem_per_core(self) -> np.ndarray:
        """Derived memory-per-core column (MB).

        Hosts with zero cores (possible in naive baseline pools) yield
        ``inf``; correlation code treats the resulting non-finite entries
        as "no measurable association".
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.memory_mb / self.cores

    def column(self, label: str) -> np.ndarray:
        """Fetch a column by its canonical label (including derived ones)."""
        if label == "mem_per_core":
            return self.mem_per_core
        if label not in self._columns:
            raise KeyError(f"unknown resource {label!r}; have {RESOURCE_LABELS}")
        return self._columns[label]

    def __contains__(self, label: str) -> bool:
        return label == "mem_per_core" or label in self._columns

    def columns(self) -> dict[str, np.ndarray]:
        """All six Table III columns keyed by label."""
        return {label: self.column(label) for label in CORRELATION_LABELS}

    @cached_property
    def _moments(self):
        """The population folded through the shared moment reducer.

        Imported lazily: :mod:`repro.engine` depends on this module at
        import time, so the batch population reaches the reducer layer at
        call time instead.  The reducer is cached on the instance —
        columns are immutable by convention, and the common
        ``means()`` + ``stds()`` call pair must not pay two full passes.
        """
        from repro.engine.accumulate import MomentAccumulator

        return MomentAccumulator(RESOURCE_LABELS).update(self)

    def means(self) -> dict[str, float]:
        """Mean of each of the five primary resources (via the moment reducer)."""
        return self._moments.means()

    def stds(self) -> dict[str, float]:
        """Standard deviation of each primary resource (via the moment reducer)."""
        return self._moments.stds()

    def medians(self) -> dict[str, float]:
        """Median of each primary resource (via the exact quantile reducer)."""
        from repro.engine.reduce import ExactQuantileReducer

        return ExactQuantileReducer(RESOURCE_LABELS).update(self).medians()

    def correlation_matrix(self) -> CorrelationMatrix:
        """Table III-style 6×6 Pearson matrix (resources + mem/core)."""
        if len(self) < 2:
            raise ValueError("need at least two hosts for a correlation matrix")
        return pearson_matrix(self.columns())

    def subset(self, mask: np.ndarray) -> "HostPopulation":
        """Population restricted to the rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(self),):
            raise ValueError(f"mask shape {mask.shape} does not match {len(self)} hosts")
        return self._take(mask)

    def sample(
        self,
        size: int,
        rng: np.random.Generator,
        replace: "bool | None" = None,
    ) -> "HostPopulation":
        """Random subsample of ``size`` hosts.

        ``replace=None`` (default) samples without replacement when
        ``size <= len(self)`` and falls back to sampling with replacement
        otherwise.  Pass ``replace=True`` or ``replace=False`` to force a
        mode; ``replace=False`` with ``size > len(self)`` is impossible and
        raises :class:`ValueError`.
        """
        if replace is None:
            replace = size > len(self)
        elif not replace and size > len(self):
            raise ValueError(
                f"cannot sample {size} hosts from {len(self)} without replacement"
            )
        return self._take(rng.choice(len(self), size=size, replace=replace))

    def summary_table(self) -> str:
        """Aligned text table of mean/median/std per resource."""
        moments = self._moments  # one reducer pass for means and stds
        means, medians, stds = moments.means(), self.medians(), moments.stds()
        lines = [f"{'resource':>12} {'mean':>12} {'median':>12} {'std':>12}"]
        for label in RESOURCE_LABELS:
            lines.append(
                f"{label:>12} {means[label]:>12.2f} "
                f"{medians[label]:>12.2f} {stds[label]:>12.2f}"
            )
        return "\n".join(lines)
