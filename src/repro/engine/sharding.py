"""Multiprocess sharded fleet generation with reducer-set reduction.

``generate_sharded`` fans the RNG blocks of a fleet out to N worker
processes; each worker generates its blocks, folds them into a
:class:`~repro.engine.reduce.ReducerSet` built from pluggable factories,
and the parent merges the shard sets.  Because blocks — not shards — own
the random streams (see :mod:`~repro.engine.streaming`), the fleet (and
its digest) is identical for every shard count, and peak memory per worker
is bounded by ``chunk_size`` hosts rather than the fleet size.
"""

from __future__ import annotations

import datetime as _dt
import time
from dataclasses import dataclass

import numpy as np

from repro.engine.accumulate import CorrelationAccumulator, MomentAccumulator
from repro.engine.pool import fan_out
from repro.engine.reduce import (
    ChunkedFold,
    QuantileReducer,
    ReducerFactory,
    ReducerSet,
)
from repro.engine.streaming import (
    DEFAULT_CHUNK_SIZE,
    BlockTask,
    as_seed_sequence,
    block_count,
    combine_block_digests,
    population_digest,
)

#: The reducers every fleet run carries unless a custom set is plugged in.
DEFAULT_REDUCER_FACTORIES: "dict[str, ReducerFactory]" = {
    "moments": MomentAccumulator,
    "correlation": CorrelationAccumulator,
}


@dataclass
class FleetStatistics:
    """Reduced one-pass statistics of a generated fleet."""

    size: int
    when: float
    shards: int
    reducers: ReducerSet
    elapsed_seconds: float
    digest: "str | None" = None

    @property
    def moments(self) -> "MomentAccumulator | None":
        """The moment reducer, when the run carried one."""
        return self.reducers.get("moments")

    @property
    def correlation(self) -> "CorrelationAccumulator | None":
        """The correlation reducer, when the run carried one."""
        return self.reducers.get("correlation")

    @property
    def quantiles(self) -> "QuantileReducer | None":
        """The quantile-sketch reducer, when the run carried one."""
        return self.reducers.get("quantiles")

    @property
    def hosts_per_second(self) -> float:
        """Generation + reduction throughput."""
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.size / self.elapsed_seconds

    def medians(self) -> "dict[str, float]":
        """Sketch medians (requires the ``quantiles`` reducer)."""
        quantiles = self.quantiles
        if quantiles is None:
            raise ValueError(
                "this run carried no quantile reducer; pass quantiles=True "
                "to generate_sharded"
            )
        return quantiles.medians()

    def summary_table(self) -> str:
        """Aligned mean[/median]/std table of the five primary resources."""
        if self.moments is None:
            raise ValueError(
                "this run carried no moment reducer; include 'moments' in the "
                "reducer set passed to generate_sharded to render a summary"
            )
        medians = self.quantiles.medians() if self.quantiles is not None else None
        return self.moments.summary_table(medians=medians)


def _resolve_factories(
    reducers: "dict[str, ReducerFactory] | None", quantiles: bool
) -> "dict[str, ReducerFactory]":
    factories = dict(DEFAULT_REDUCER_FACTORIES if reducers is None else reducers)
    if quantiles and "quantiles" not in factories:
        factories["quantiles"] = QuantileReducer
    return factories


def _run_shard(task: BlockTask):
    """Worker: generate the task's blocks and reduce them.

    Module-level so it pickles under both fork and spawn start methods
    (which is also why reducer *factories*, not instances, travel in the
    task).  Blocks are buffered up to ``chunk_size`` hosts between
    reducer updates — larger chunks mean fewer, more vectorised updates at
    the cost of a proportionally larger working set.
    """
    reducers = ReducerSet.from_factories(task.factories)
    digests: "list[tuple[int, bytes]]" = []
    fold = ChunkedFold(reducers, task.chunk_size)
    for index, block in task.generate():
        if task.digest:
            digests.append((index, bytes.fromhex(population_digest(block))))
        fold.add(block)
    fold.flush()
    return reducers, digests


def generate_sharded(
    generator,
    when: "_dt.date | float",
    size: int,
    rng: "int | np.random.SeedSequence | np.random.Generator | None",
    shards: int = 4,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    digest: bool = False,
    reducers: "dict[str, ReducerFactory] | None" = None,
    quantiles: bool = False,
    start_method: "str | None" = None,
) -> FleetStatistics:
    """Generate a fleet across ``shards`` worker processes and reduce.

    The fleet content follows the streaming determinism contract, so the
    optional ``digest`` is identical for every ``shards`` value; the
    moment/correlation reducers agree across shard counts and with the
    batch :class:`~repro.hosts.population.HostPopulation` statistics to
    float merge precision (well under ``1e-6`` on correlation entries).

    ``reducers`` plugs in a custom ``{name: factory}`` set (factories must
    be picklable zero-argument callables — classes or ``functools.partial``);
    the default set carries moments + correlation.  ``quantiles=True`` adds
    a :class:`~repro.engine.reduce.QuantileReducer` under the name
    ``"quantiles"`` for streamed medians/deciles.

    ``shards=1`` runs in-process (no pool), which is also the single-process
    baseline the scale benchmark compares against.  ``start_method``
    overrides the worker-pool start method (see
    :func:`~repro.engine.pool.resolve_start_method`; threaded callers
    should pass ``"spawn"`` or set ``REPRO_START_METHOD``).
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    if size < 0:
        raise ValueError("size must be non-negative")
    root = as_seed_sequence(rng)
    n_blocks = block_count(size)
    shards = min(shards, max(1, n_blocks))
    factories = _resolve_factories(reducers, quantiles)
    # Round-robin block placement: the merge order of the shard reducers
    # (and so the reduced bits) depends on it.
    tasks = [
        BlockTask(
            generator, when, size, root, range(shard, n_blocks, shards),
            chunk_size=chunk_size, factories=factories, digest=digest,
        )
        for shard in range(shards)
    ]

    start = time.perf_counter()
    results = fan_out(_run_shard, tasks, start_method)
    elapsed = time.perf_counter() - start

    merged = ReducerSet.from_factories(factories)
    all_digests: "list[tuple[int, bytes]]" = []
    for shard_reducers, shard_digests in results:
        merged.merge(shard_reducers)
        all_digests.extend(shard_digests)

    return FleetStatistics(
        size=size,
        when=_when_as_float(when),
        shards=shards,
        reducers=merged,
        elapsed_seconds=elapsed,
        digest=combine_block_digests(all_digests) if digest else None,
    )


def _when_as_float(when: "_dt.date | float") -> float:
    """Calendar-year float of ``when`` for the result record."""
    if isinstance(when, _dt.date):
        from repro.timeutil import year_fraction

        return float(year_fraction(when))
    return float(when)
