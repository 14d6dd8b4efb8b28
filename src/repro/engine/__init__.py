"""Streaming, sharded fleet-generation engine.

Layers
------
:mod:`~repro.engine.streaming`
    Chunked generation under a block-based determinism contract
    (``SeedSequence.spawn`` per fixed RNG block), plus fleet hashing, and
    the internal ``BlockTask`` — a fleet plus a range of RNG blocks —
    that every fan-out hands its workers: one block loop for all of them.
:mod:`~repro.engine.accumulate`
    One-pass Welford/pairwise moment reducers reproducing the batch
    :class:`~repro.hosts.population.HostPopulation` statistics.
:mod:`~repro.engine.reduce`
    The :class:`~repro.engine.reduce.Reducer` protocol
    (update/merge/result) every statistics consumer shares, plus the
    quantile-sketch, histogram and ECDF reducers and the
    :class:`~repro.engine.reduce.ReducerSet` bundle.
:mod:`~repro.engine.pool`
    The one fan-out dispatcher: one task runs in-process, more run on
    persistent workers that report a worker dying mid-task as
    :class:`WorkerDiedError`.
:mod:`~repro.engine.sharding`
    Fan-out over RNG blocks with reducer-set reduction.
:mod:`~repro.engine.writer`
    Sharded fleet export: per-shard CSV segments (or columnar arrays)
    plus a sha256 manifest (``fleet export`` / ``fleet verify``), the
    resumable per-block layout with reducer-state checkpoints
    (``export_fleet_blocks`` / ``compact_export``), and the one
    resumable-run format both resumable exporters keep (``resume_export``
    finishes either).
:mod:`~repro.engine.distributed`
    Coordinator/worker reduction beyond one machine: a length-prefixed
    JSON TCP protocol with heartbeats, lease reassignment and work
    stealing (``fleet export --backend distributed`` /
    ``fleet serve-worker``), byte-identical to the single-machine export.

Every reducer serializes through the versioned ``to_state``/``from_state``
contract of :mod:`repro.stats.state` — the substrate of export
checkpoints and of the distributed-backend wire payloads.
"""

from repro.engine.accumulate import (
    CorrelationAccumulator,
    MomentAccumulator,
    as_matrix,
)
from repro.engine.reduce import (
    DECILES,
    STATE_KINDS,
    ECDFReducer,
    ExactQuantileReducer,
    HistogramReducer,
    QuantileReducer,
    Reducer,
    ReducerSet,
    as_chunk_stream,
    reduce_stream,
    reducer_from_state,
)
from repro.engine.distributed import (
    PROTOCOL_VERSION,
    WIRE_GENERATOR_BUILDERS,
    WIRE_REDUCER_FACTORIES,
    AuthenticationError,
    register_wire_generator,
    DistributedExportResult,
    ProtocolError,
    export_fleet_distributed,
    parse_endpoint,
    resolve_fleet_token,
    serve_worker,
)
from repro.engine.pool import (
    WorkerDiedError,
    WorkerPool,
    pool_stats,
    resolve_start_method,
    shutdown_pools,
)
from repro.engine.retry import (
    DIAL_RETRY,
    WRITE_RETRY,
    RetryError,
    RetryPolicy,
)
from repro.engine.sharding import (
    DEFAULT_REDUCER_FACTORIES,
    FleetStatistics,
    generate_sharded,
)
from repro.engine.table import (
    HOST_CSV_FMT,
    HOST_CSV_HEADER,
    HOST_SCHEMA,
    ColumnBlock,
    TableSchema,
    block_schema,
    generator_schema,
)
from repro.engine.streaming import (
    DEFAULT_CHUNK_SIZE,
    RNG_BLOCK_SIZE,
    as_seed_sequence,
    block_count,
    block_seeds,
    combine_block_digests,
    fleet_digest,
    generate_fleet,
    iter_blocks,
    population_digest,
    stream_population,
)
from repro.engine.writer import (
    COLUMNAR_FORMAT,
    BlockExportResult,
    FleetManifest,
    SegmentRecord,
    VerificationReport,
    compact_export,
    describe_export_dir,
    export_fleet,
    export_fleet_blocks,
    read_columnar_export,
    resume_export,
    shard_block_ranges,
    verify_manifest,
)
from repro.stats.state import StateError

__all__ = [
    "COLUMNAR_FORMAT",
    "ColumnBlock",
    "HOST_CSV_FMT",
    "HOST_CSV_HEADER",
    "HOST_SCHEMA",
    "TableSchema",
    "block_schema",
    "generator_schema",
    "CorrelationAccumulator",
    "MomentAccumulator",
    "WorkerDiedError",
    "WorkerPool",
    "as_matrix",
    "pool_stats",
    "read_columnar_export",
    "resolve_start_method",
    "shutdown_pools",
    "DECILES",
    "ECDFReducer",
    "ExactQuantileReducer",
    "HistogramReducer",
    "QuantileReducer",
    "Reducer",
    "ReducerSet",
    "as_chunk_stream",
    "reduce_stream",
    "DEFAULT_REDUCER_FACTORIES",
    "FleetStatistics",
    "generate_sharded",
    "DEFAULT_CHUNK_SIZE",
    "RNG_BLOCK_SIZE",
    "as_seed_sequence",
    "block_count",
    "block_seeds",
    "combine_block_digests",
    "fleet_digest",
    "generate_fleet",
    "iter_blocks",
    "population_digest",
    "stream_population",
    "AuthenticationError",
    "BlockExportResult",
    "DistributedExportResult",
    "FleetManifest",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "STATE_KINDS",
    "WIRE_GENERATOR_BUILDERS",
    "WIRE_REDUCER_FACTORIES",
    "register_wire_generator",
    "export_fleet_distributed",
    "parse_endpoint",
    "resolve_fleet_token",
    "serve_worker",
    "SegmentRecord",
    "StateError",
    "VerificationReport",
    "DIAL_RETRY",
    "WRITE_RETRY",
    "RetryError",
    "RetryPolicy",
    "compact_export",
    "describe_export_dir",
    "export_fleet",
    "export_fleet_blocks",
    "reducer_from_state",
    "resume_export",
    "shard_block_ranges",
    "verify_manifest",
]
