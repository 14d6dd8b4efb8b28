"""Sharded fleet export: verifiable manifests, checkpoints and resume.

``generate_sharded`` reduces a fleet to statistics; this module *exports*
one beyond a single process.  The host index space is split into
contiguous runs of RNG blocks, one per shard; each worker process writes
its run to a CSV segment file and the parent records a JSON manifest with
per-segment sha256 digests, block ranges and row ranges.  (The columnar
binary format, :data:`COLUMNAR_FORMAT`, writes whole columns instead.)

Two segment layouts share the manifest schema:

``layout="shard"`` (:func:`export_fleet`)
    One segment per shard — the compact archival layout.
``layout="block"`` (:func:`export_fleet_blocks`)
    One segment per RNG block, plus an append-only checkpoint journal per
    shard, so a killed export loses at most ``checkpoint_every`` blocks of
    work: :func:`resume_export` reads the plan and joins each shard's
    journal lines, verifies digests, restores reducer state through the
    ``to_state``/``from_state`` contract and regenerates only the missing
    blocks — producing a manifest, payload bytes and statistics identical
    to an uninterrupted run (the per-block ``SeedSequence.spawn`` contract
    makes regenerated blocks byte-identical, and checkpoint cadence is a
    run parameter so sketch compression points line up too).
    :func:`compact_export` merges a completed block layout back into the
    per-shard layout byte-identically.

This module also owns the one resumable-run format that the block writer
and the distributed coordinator (:mod:`~repro.engine.distributed`) share:
one plan envelope (the run fields plus the exporter's block grid), one
journal line per finished grid cell, and :func:`resume_export`, which
finishes an interrupted run of either exporter.

Because segments cover contiguous block ranges and blocks own the random
streams (the :mod:`~repro.engine.streaming` determinism contract), the
byte concatenation of the CSV segments in manifest order is identical to
the *row payload* a single-process export of the same ``(parameters,
date, size, seed)`` fleet writes — for *any* shard count.  Segments carry
no CSV header (it is recorded once in the manifest's ``header`` field);
prepend it to the concatenation to reproduce a ``fleet --out`` file byte
for byte.  The manifest pins the equivalence with two digests:

``payload_sha256``
    sha256 over the segment files' bytes, concatenated in manifest order
    (for CSV this is the digest of the single-process row payload).
``fleet_sha256``
    the format-independent per-block row-digest chain of
    :func:`~repro.engine.streaming.fleet_digest`.

``verify_manifest`` re-hashes the segment files against the manifest and
is surfaced as ``fleet verify`` in the CLI.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import io
import json
import os
import queue
import re
import threading
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro.engine.csvfmt import encode_csv_rows
from repro.engine.pool import fan_out
from repro.engine.reduce import ChunkedFold, ReducerFactory, ReducerSet
from repro.engine.retry import WRITE_RETRY
from repro.faults.injector import fire as _fire
from repro.faults.sites import (
    SITE_BLOCK_DONE,
    SITE_BLOCK_WRITE,
    SITE_CHECKPOINT_FSYNC,
    SITE_CHECKPOINT_WRITE,
    SITE_MANIFEST_WRITE,
    SITE_SEGMENT_WRITE,
)
from repro.engine.sharding import (
    FleetStatistics,
    _resolve_factories,
    _when_as_float,
)
from repro.engine.streaming import (
    DEFAULT_CHUNK_SIZE,
    RNG_BLOCK_SIZE,
    BlockTask,
    as_seed_sequence,
    block_count,
    combine_block_digests,
    population_digest,
)
from repro.hosts.population import (  # HOST_CSV_FMT, HOST_CSV_HEADER: re-exported
    HOST_CSV_FMT,
    HOST_CSV_HEADER,
    HOST_SCHEMA,
)
from repro.stats.state import StateError, make_envelope
from repro.table import TableSchema

#: Manifest schema version.  Bump only on changes a version-1 reader of
#: *this* module cannot tolerate; fields with dataclass defaults
#: (``bytes``, ``layout``, ``checkpoint_every``) are version-1-compatible
#: additions — current readers accept manifests written without them, and
#: bumping would wrongly reject every previously published manifest.
MANIFEST_VERSION = 1

#: File name of every finished export's manifest inside its directory.
MANIFEST_NAME = "manifest.json"

#: The columnar binary format: one contiguous ``.npy`` array per resource
#: column (see :func:`read_columnar_export`).  Plain ``.npy`` bytes are
#: deterministic (no zip timestamps), so columnar payload digests pin like
#: CSV ones.
COLUMNAR_FORMAT = "npz-columnar"

#: Supported segment formats.  Every row segment (shard or block) is CSV.
FORMATS = ("csv", COLUMNAR_FORMAT)


def generator_schema(generator) -> TableSchema:
    """The table schema a generator emits (host schema unless it says)."""
    return getattr(generator, "schema", HOST_SCHEMA)


#: Rows rendered per encoder call in :func:`write_population_csv` —
#: bounds peak string memory and keeps each call's working set cache-sized.
_CSV_WRITE_CHUNK = 65536


def write_population_csv(population, handle) -> None:
    """Append a population's rows to an open text or binary handle.

    Rendering goes through the vectorised
    :func:`~repro.engine.csvfmt.encode_csv_rows` encoder — byte-identical
    to the ``np.savetxt`` form this replaced (the export goldens pin it),
    several times faster.
    """
    matrix = population.to_matrix()
    csv_fmt = population.schema.csv_fmt
    text = isinstance(handle, io.TextIOBase) or (
        not isinstance(handle, (io.RawIOBase, io.BufferedIOBase))
        and getattr(handle, "encoding", None) is not None
    )
    for lo in range(0, matrix.shape[0], _CSV_WRITE_CHUNK):
        data = encode_csv_rows(matrix[lo : lo + _CSV_WRITE_CHUNK], csv_fmt)
        handle.write(data.decode("ascii") if text else data)


def _hash_file_into(path: str, *hashes) -> None:
    """Stream a file through one or more hash objects in 1 MiB pieces.

    The one-pass re-read: the row-segment writers hash bytes *as they
    produce them*, so this only runs where one hash must span bytes other
    processes wrote (:func:`_payload_sha256`) and where
    :func:`_digest_files` hashes a single file.
    """
    with open(path, "rb") as handle:
        for piece in iter(lambda: handle.read(1 << 20), b""):
            for digest in hashes:
                digest.update(piece)


def _digest_files(paths: "list[str]") -> "tuple[list[str], str]":
    """Each file's sha256 hexdigest and the sha256 of their concatenation,
    reading every file once.

    Zero or one file is hashed once: a one-file concatenation *is* the
    file, so that digest is both values.  More files feed each 1 MiB piece
    to the file's sha256 here and to the payload sha256 in one helper
    thread; hashlib releases the GIL on buffers this large, so the two
    digests run on two cores.  The helper is joined on every exit path, so
    no thread outlives the call (or is alive when a pool forks), and an
    error in either thread is raised here.
    """
    if len(paths) <= 1:
        digest = hashlib.sha256()
        for path in paths:
            _hash_file_into(path, digest)
        return [digest.hexdigest()] * len(paths), digest.hexdigest()
    payload = hashlib.sha256()
    # At most four pieces (4 MiB) wait for the payload thread.
    pieces: "queue.Queue[bytes | None]" = queue.Queue(4)
    failed: "list[Exception]" = []

    def hash_payload() -> None:
        try:
            for piece in iter(pieces.get, None):
                payload.update(piece)
        except Exception as error:  # raised in the caller after the join
            failed.append(error)
            for _ in iter(pieces.get, None):  # never leave the reader blocked
                pass

    helper = threading.Thread(target=hash_payload, name="payload-sha256")
    helper.start()
    digests: "list[str]" = []
    try:
        for path in paths:
            digest = hashlib.sha256()
            with open(path, "rb") as handle:
                for piece in iter(lambda: handle.read(1 << 20), b""):
                    pieces.put(piece)
                    digest.update(piece)
            digests.append(digest.hexdigest())
    finally:
        pieces.put(None)
        helper.join()
    if failed:
        raise failed[0]
    return digests, payload.hexdigest()


@dataclass(frozen=True)
class SegmentRecord:
    """One segment file (a shard's run, or a single block) within an export.

    ``bytes`` is the exact file size; ``-1`` marks manifests written
    before the field existed, where the size check is skipped.
    """

    path: str
    shard: int
    block_lo: int
    block_hi: int
    row_lo: int
    row_hi: int
    sha256: str
    bytes: int = -1


@dataclass(frozen=True)
class FleetManifest:
    """The verifiable description of a sharded fleet export."""

    version: int
    format: str
    size: int
    when: float
    entropy: str
    spawn_key: "tuple[int, ...]"
    shards: int
    block_size: int
    header: str
    payload_sha256: str
    fleet_sha256: str
    segments: "tuple[SegmentRecord, ...]" = field(default_factory=tuple)
    #: ``"shard"`` (one segment per worker) or ``"block"`` (one per RNG
    #: block, the resumable layout).
    layout: str = "shard"
    #: Reducer-checkpoint cadence of a block-layout run (0 = none).
    checkpoint_every: int = 0

    def to_json(self) -> str:
        # asdict converts the segment records too; json writes the
        # segment and spawn_key tuples as lists.
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FleetManifest":
        return cls._from_payload(json.loads(text))

    @classmethod
    def _from_payload(cls, payload: dict) -> "FleetManifest":
        """The manifest of a parsed JSON object, which it consumes."""
        segments = tuple(SegmentRecord(**s) for s in payload.pop("segments"))
        payload["spawn_key"] = tuple(payload["spawn_key"])
        return cls(segments=segments, **payload)

    def save(self, path: str) -> None:
        data = (self.to_json() + "\n").encode("utf-8")
        _fire(SITE_MANIFEST_WRITE, path=path, data=data)
        with open(path, "wb") as handle:
            handle.write(data)

    @classmethod
    def load(cls, path: str) -> "FleetManifest":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def shard_block_ranges(n_blocks: int, shards: int) -> "list[tuple[int, int]]":
    """Split ``[0, n_blocks)`` into ``shards`` contiguous, balanced runs.

    Contiguity is what makes segment concatenation equal the sequential
    stream — round-robin placement (as the statistics fan-out uses) would
    interleave rows.  Every run differs in length by at most one block.
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    shards = min(shards, max(1, n_blocks))
    base, extra = divmod(n_blocks, shards)
    ranges: "list[tuple[int, int]]" = []
    lo = 0
    for shard in range(shards):
        hi = lo + base + (1 if shard < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def _block_segment(
    path: str, shard: int, blocks: range, size: int, sha256: str, nbytes: int
) -> SegmentRecord:
    """The record of a segment file holding RNG ``blocks`` of a fleet."""
    return SegmentRecord(
        path=path,
        shard=shard,
        block_lo=blocks.start,
        block_hi=blocks.stop,
        row_lo=min(blocks.start * RNG_BLOCK_SIZE, size),
        row_hi=min(blocks.stop * RNG_BLOCK_SIZE, size),
        sha256=sha256,
        bytes=nbytes,
    )


def _payload_sha256(out_dir: str, segments: "list[SegmentRecord]") -> str:
    """sha256 over the segment files' bytes in manifest order.

    A single-worker export hashes its bytes as it writes them; a
    multi-worker one needs this verify-style re-read, because one sha256
    cannot be stitched together from per-worker digests.
    """
    payload_hash = hashlib.sha256()
    for record in segments:
        _hash_file_into(os.path.join(out_dir, record.path), payload_hash)
    return payload_hash.hexdigest()


def _save_manifest(
    path, generator, fmt, size, when, root, shards, segments, payload_sha256,
    digests, layout="shard", checkpoint_every=0,
) -> FleetManifest:
    """Build a finished export's manifest, save it to ``path``, return it.

    Every layout and backend records its fleet fields here.  The header is
    the CSV header of the generator's rows; the columnar layout reads its
    column order from it.
    """
    manifest = FleetManifest(
        version=MANIFEST_VERSION,
        format=fmt,
        size=size,
        when=_when_as_float(when),
        entropy=str(root.entropy),
        spawn_key=tuple(int(k) for k in root.spawn_key),
        shards=shards,
        block_size=RNG_BLOCK_SIZE,
        header=generator_schema(generator).csv_header,
        payload_sha256=payload_sha256,
        fleet_sha256=combine_block_digests(digests),
        segments=tuple(segments),
        layout=layout,
        checkpoint_every=checkpoint_every,
    )
    manifest.save(path)
    return manifest


def _segment_name(shard: int) -> str:
    return f"segment-{shard:04d}.csv"


def _encode_block(block) -> bytes:
    """One RNG block's CSV bytes: every CSV exporter renders its blocks
    here.  The vectorised encoder reproduces the historical ``np.savetxt``
    bytes exactly (the export goldens pin it)."""
    return encode_csv_rows(block.to_matrix(), block.schema.csv_fmt)


def _render_block(index: int, block) -> "tuple[bytes, dict]":
    """One RNG block's CSV bytes and its entry ``{index, sha256, bytes,
    digest}``: the shape journal lines and ``result`` frames carry.

    The per-block layouts render here; the digests come from the in-memory
    bytes and rows, so no writer re-reads what it wrote.
    """
    data = _encode_block(block)
    return data, {
        "index": index,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "digest": population_digest(block),
    }


def _write_segment(task: BlockTask):
    """Worker: generate the task's blocks into one CSV segment.

    Returns ``(segment_record, block_digests)``; module-level so it
    pickles under fork and spawn alike.
    """
    name = _segment_name(task.shard)
    path = os.path.join(task.out_dir, name)
    digests: "list[tuple[int, bytes]]" = []
    file_hash = hashlib.sha256()
    try:
        with open(path, "wb") as handle:
            for index, block in task.generate():
                # The file's hash is the segment's; no per-block sha256.
                data = _encode_block(block)
                digests.append((index, bytes.fromhex(population_digest(block))))
                _fire(SITE_SEGMENT_WRITE, path=path)
                handle.write(data)
                file_hash.update(data)
    except BaseException:
        # A worker dying mid-segment must not leave a half-written file
        # for the next export (or a verify) to trip over.  SIGKILL still
        # leaves one behind — describe_export_dir names it then.
        _remove_quiet(path)
        raise
    record = _block_segment(
        name, task.shard, task.blocks, task.size, file_hash.hexdigest(),
        os.path.getsize(path),
    )
    return record, digests


def export_fleet(
    generator,
    when: "_dt.date | float",
    size: int,
    rng: "int | np.random.SeedSequence | np.random.Generator | None",
    out_dir: str,
    shards: int = 1,
    fmt: str = "csv",
    start_method: "str | None" = None,
) -> FleetManifest:
    """Export a fleet as per-shard segments plus a manifest.

    ``shards`` workers each write one contiguous-block CSV segment; the
    manifest (written to ``out_dir/manifest.json``) records per-segment
    sha256 digests, block and row ranges, and the two fleet digests
    described in the module docstring.

    ``fmt=`` :data:`COLUMNAR_FORMAT` switches to the columnar binary
    layout (one contiguous ``.npy`` per resource column, which the
    workers fill in place) — see :func:`read_columnar_export` for the
    decode side.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    if fmt not in FORMATS:
        raise ValueError(f"unknown segment format {fmt!r}; supported: {FORMATS}")
    root = as_seed_sequence(rng)
    os.makedirs(out_dir, exist_ok=True)
    # No resumable run's plan may outlive this export, or a later
    # `--resume` would finish that run over this export's manifest.
    _clear_resume_files(out_dir)
    tasks = [
        BlockTask(
            generator, when, size, root, range(lo, hi), shard=shard, out_dir=out_dir
        )
        for shard, (lo, hi) in enumerate(shard_block_ranges(block_count(size), shards))
    ]
    if fmt == COLUMNAR_FORMAT:
        segments, payload_sha256, digests = _write_columns(tasks, start_method)
    else:
        results = fan_out(_write_segment, tasks, start_method)
        segments = [record for record, _ in results]
        # One segment's digest, hashed as it was written, is the payload's.
        payload_sha256 = (
            segments[0].sha256 if len(segments) == 1
            else _payload_sha256(out_dir, segments)
        )
        digests = [entry for _, shard_digests in results for entry in shard_digests]
    return _save_manifest(
        os.path.join(out_dir, MANIFEST_NAME), generator, fmt, size, when, root,
        len(tasks), segments, payload_sha256, digests,
        layout="columnar" if fmt == COLUMNAR_FORMAT else "shard",
    )


# -- columnar binary export --------------------------------------------------


def _column_name(index: int, label: str) -> str:
    return f"column-{index}-{label}.npy"


def _fill_columnar_rows(task: BlockTask):
    """Worker: generate the task's blocks straight into the column files.

    The parent created every ``column-<i>-<label>.npy`` at full size;
    each worker maps them and writes its rows in place at their absolute
    offsets, so nothing but the small digest list returns through the
    pool.
    """
    labels = generator_schema(task.generator).labels
    columns = [
        np.lib.format.open_memmap(
            os.path.join(task.out_dir, _column_name(index, label)), mode="r+"
        )
        for index, label in enumerate(labels)
    ]
    digests: "list[tuple[int, bytes]]" = []
    for index, block in task.generate():
        digests.append((index, bytes.fromhex(population_digest(block))))
        lo = index * RNG_BLOCK_SIZE
        for column, label in zip(columns, labels):
            column[lo : lo + len(block)] = block.column(label)
    return digests


def _write_columns(tasks: "list[BlockTask]", start_method):
    """Write a fleet as one contiguous ``.npy`` file per resource column.

    The parent creates each column file at full size, the tasks' workers
    fill their rows in place (:func:`_fill_columnar_rows`), then the
    parent reads the files once, in column order, for their own and the
    payload digests (:func:`_digest_files`).  ``.npy`` v1.0 bytes are a
    pure function of dtype, shape and data, so ``payload_sha256`` pins
    the columnar export exactly as it pins CSV — and is identical for
    every shard count.  The manifest's ``header`` records the column
    order (the CSV header names); each segment's ``shard`` field is the
    column index.  A failed export removes the column files.

    Returns ``(segments, payload_sha256, block_digests)``.
    """
    fleet = tasks[0]
    labels = generator_schema(fleet.generator).labels
    names = [_column_name(index, label) for index, label in enumerate(labels)]
    try:
        for name in names:
            np.lib.format.open_memmap(
                os.path.join(fleet.out_dir, name), "w+", np.float64, (fleet.size,),
                version=(1, 0),
            )
        results = fan_out(_fill_columnar_rows, tasks, start_method)
        paths = [os.path.join(fleet.out_dir, name) for name in names]
        file_digests, payload_sha256 = _digest_files(paths)
        segments = [
            _block_segment(
                name, column, range(block_count(fleet.size)), fleet.size, digest,
                os.path.getsize(path),
            )
            for column, (name, path, digest) in enumerate(
                zip(names, paths, file_digests)
            )
        ]
    except BaseException:
        for name in names:
            _remove_quiet(os.path.join(fleet.out_dir, name))
        raise
    digests = [entry for shard_digests in results for entry in shard_digests]
    return segments, payload_sha256, digests


def read_columnar_export(manifest_path: str) -> "tuple[FleetManifest, dict]":
    """Decode a columnar export: ``(manifest, {label: column ndarray})``.

    One rule for every schema: the manifest header names the registered
    schema (:func:`repro.registry.schema_for_header`), label *i* is that
    schema's column *i*, and segment *i* must be
    ``column-{i}-{label}.npy``.  Any mismatch, and every decoded array of
    the wrong shape, raises :class:`ValueError`.  Byte integrity is
    :func:`verify_manifest`'s job; this reader checks *structure* so a
    verified export always decodes.
    """
    from repro.registry import schema_for_header  # the registry imports the engine

    manifest = FleetManifest.load(manifest_path)
    if manifest.format != COLUMNAR_FORMAT:
        raise ValueError(
            f"manifest {manifest_path} is a {manifest.format!r} export, "
            f"not {COLUMNAR_FORMAT!r}"
        )
    schema = schema_for_header(manifest.header)
    if schema is None:
        raise ValueError(
            f"columnar manifest {manifest_path} has header "
            f"{manifest.header!r}, which no registered schema writes"
        )
    labels = schema.labels
    if len(manifest.segments) != len(labels):
        raise ValueError(
            f"columnar manifest {manifest_path} lists "
            f"{len(manifest.segments)} segment(s); expected one per "
            f"resource column {labels}"
        )
    base = os.path.dirname(os.path.abspath(manifest_path))
    columns: "dict[str, np.ndarray]" = {}
    for index, (segment, label) in enumerate(zip(manifest.segments, labels)):
        if segment.path != _column_name(index, label):
            raise ValueError(
                f"columnar manifest {manifest_path} segment {segment.path!r} "
                f"is not the expected file for column {label!r}"
            )
        array = np.load(os.path.join(base, segment.path), allow_pickle=False)
        if array.shape != (manifest.size,):
            raise ValueError(
                f"column {label!r} decodes to shape {array.shape}; expected "
                f"({manifest.size},)"
            )
        columns[label] = array
    return manifest, columns


# -- resumable runs: one plan, one journal, one resume ----------------------
#
# Both resumable exporters, the block writer below and the distributed
# coordinator (`repro.engine.distributed`, which imports these helpers),
# keep an interrupted run in the one format this section owns.  A run
# first pins a plan: one `FleetExportPlan` envelope holding the shared run
# fields plus the exporter's block grid.  It then appends one fsynced journal
# line per finished grid cell, `{block_lo, block_hi, blocks: [{index,
# sha256, bytes, digest}], reducers}`, whose block entries are the ones
# `_render_block` made.  A block-export shard's cells are runs of
# `checkpoint_every` blocks done in order, and its lines carry the shard's
# cumulative reducer state.  A distributed run's cells are leases done in
# any order, and each line carries the lease's own state.  Every block file
# reaches disk through `_write_block_file`, and both exporters end in
# `_finish_run`.  `resume_export` reads whichever plan it finds and runs its
# exporter.

#: The block writer's plan file; its presence (without a final manifest)
#: marks an interrupted run.
PLAN_NAME = "manifest.partial.json"

#: The distributed coordinator's plan file and lease journal.
DISTRIBUTED_PLAN_NAME = "distributed-plan.json"
DISTRIBUTED_LEASE_LOG = "distributed-leases.jsonl"

#: Envelope kind of both exporters' plans.
PLAN_KIND = "FleetExportPlan"

#: Schema version of plans and their journal lines.  Version 3 gave both
#: exporters one plan envelope and one journal line.  A partial export an
#: older build wrote (a block plan of version 1 or 2, or a version-1
#: ``FleetDistributedPlan``) is refused rather than resumed.
CHECKPOINT_STATE_VERSION = 3

#: Each exporter's plan file and its grid fields (with their minimum).
_EXPORTERS = {
    PLAN_NAME: {"shards": 1, "checkpoint_every": 0},
    DISTRIBUTED_PLAN_NAME: {"lease_blocks": 1},
}

#: Resume files of either exporter and any build: plans, journals, the
#: version-1 ``checkpoint-SSSS.json`` files and their temp files.  A fresh
#: run of either exporter removes them all, and so does a finished one.
_RESUME_FILE = re.compile(
    r"(checkpoint-\d{4,}\.jsonl?|manifest\.partial\.json"
    r"|distributed-plan\.json|distributed-leases\.jsonl)(\.tmp)?"
)

_SHA256_HEX = re.compile(r"[0-9a-f]{64}")


@dataclass
class BlockExportResult:
    """Outcome of a block-layout export or resume.

    ``statistics`` carries the run's merged reducers (``None`` only when
    :func:`resume_export` found the export already finalised — the
    journals holding reducer state are removed on success).
    ``resumed_blocks`` counts blocks restored from checkpoints rather
    than generated (0 on an uninterrupted run).
    """

    manifest: FleetManifest
    statistics: "FleetStatistics | None"
    resumed_blocks: int


def _block_name(index: int) -> str:
    return f"block-{index:06d}.csv"


def _journal_name(shard: int) -> str:
    return f"checkpoint-{shard:04d}.jsonl"


def _grid_cells(lo: int, hi: int, step: int) -> "list[tuple[int, int]]":
    """``[lo, hi)`` cut into cells of ``step`` blocks (the last may be short)."""
    return [(start, min(start + step, hi)) for start in range(lo, hi, step)]


def _write_json_atomic(path: str, payload: dict) -> None:
    """Write JSON via a temp file + rename, so a kill never half-writes it.

    Plan and metrics writes skip the fsync barrier — losing one costs
    nothing a rerun doesn't fix; checkpoints go through
    :func:`_append_journal`, which does fsync.
    """
    tmp = path + ".tmp"
    data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)


def _append_journal(
    handle,
    entries: "list[dict]",
    site: "str | None" = None,
    fsync_site: "str | None" = None,
) -> None:
    """Append compact JSON lines to an open binary journal, durably.

    All lines go out in one write, then one fsync.  ``site`` makes the
    append an injection point — a ``torn-write`` there appends a prefix
    of the lines, as a crash mid-append would — and ``fsync_site`` marks
    the barrier.
    """
    data = b"".join(
        json.dumps(entry, separators=(",", ":")).encode("utf-8") + b"\n"
        for entry in entries
    )
    if site is not None:
        _fire(site, path=handle.name, data=data, append=True)
    handle.write(data)
    handle.flush()
    if fsync_site is not None:
        _fire(fsync_site)
    os.fsync(handle.fileno())


def _read_journal(path: str, kind: str) -> "tuple[list[dict], int]":
    """The complete lines of an append-only journal and the bytes they span.

    Each line is one JSON object.  A crash mid-append leaves at most one
    torn line, at the end: a final line that lacks its newline or does
    not parse is dropped, and the returned byte count stops before it, so
    a resumed run can cut the file back there before appending.  A
    malformed line anywhere earlier is corruption and raises
    :class:`StateError`.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise StateError(f"cannot read {kind} {path}: {error}")
    *complete, tail = data.split(b"\n")
    entries: "list[dict]" = []
    kept = 0
    for number, line in enumerate(complete, start=1):
        if line.strip():
            try:
                entry = json.loads(line)
            except ValueError:
                entry = None
            if not isinstance(entry, dict):
                if number == len(complete) and not tail:
                    break  # torn tail from the crash; its work is redone
                raise StateError(
                    f"{kind} line {number} of {path} is not valid JSON"
                )
            entries.append(entry)
        kept += len(line) + 1
    return entries, kept


def _load_json(path: str, kind: str) -> dict:
    """Read a plan file, mapping any failure to a StateError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as error:
        raise StateError(f"cannot read {kind} {path}: {error}")
    if not isinstance(payload, dict):
        raise StateError(f"{kind} {path} is not a JSON object")
    return payload


def _remove_quiet(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


def _clear_resume_files(out_dir: str) -> None:
    """Remove every plan, journal and checkpoint file in ``out_dir``."""
    for entry in os.listdir(out_dir):
        if _RESUME_FILE.fullmatch(entry):
            _remove_quiet(os.path.join(out_dir, entry))


def describe_export_dir(out_dir: str) -> "str | None":
    """An actionable hint about what a non-empty export directory holds.

    The CLI appends this to its refusal to export into a non-empty
    ``--out-dir``, so "the directory is not empty" becomes "that is your
    own interrupted export — here is the flag that finishes it".
    Returns ``None`` when the leftovers look like nothing this engine
    wrote.
    """
    try:
        entries = set(os.listdir(out_dir))
    except OSError:
        return None
    if PLAN_NAME in entries:
        return (
            "this looks like an interrupted resumable export — pass "
            "--resume to finish it, or --force to start over"
        )
    if DISTRIBUTED_PLAN_NAME in entries:
        return (
            "this looks like an interrupted distributed export — pass "
            "--resume to finish it, or --force to start over"
        )
    if MANIFEST_NAME in entries:
        return (
            "this looks like a completed export — verify it with `fleet "
            "verify`, choose a fresh --out-dir, or pass --force to "
            "overwrite it"
        )
    if any(entry.startswith(("segment-", "block-", "column-")) for entry in entries):
        return (
            "these look like partial segments from an export that died "
            "mid-write (no resume plan survives); delete the directory "
            "or pass --force to overwrite them"
        )
    return None


def _generator_fingerprint(generator) -> "str | None":
    """sha256 of the generator's identity (None if it has no parameters).

    The identity is :func:`repro.registry.generator_params`: the parameter
    JSON, naming a non-default host per-core cap too.  Pinned into the
    export plan so a resume with a different generator fails loudly
    instead of silently splicing two fleets into one
    self-consistent-looking manifest.
    """
    if getattr(getattr(generator, "parameters", None), "to_json", None) is None:
        return None
    from repro.registry import generator_params  # the registry imports the engine

    return hashlib.sha256(generator_params(generator).encode("utf-8")).hexdigest()


def _start_run(
    out_dir, plan_name, generator, size, when, root, chunk_size, factories,
    /, **grid,
) -> dict:
    """Pin a fresh run's plan (the shared fields plus ``grid``); return it.

    Every resume file already in ``out_dir`` goes first, whichever exporter
    or build wrote it: this run never appends to another run's journal,
    and no other exporter's plan outlives it to take over a later resume.
    """
    plan = make_envelope(
        PLAN_KIND,
        CHECKPOINT_STATE_VERSION,
        {
            "version": MANIFEST_VERSION,
            "format": "csv",
            "size": size,
            "when": _when_as_float(when),
            "entropy": str(root.entropy),
            "spawn_key": [int(k) for k in root.spawn_key],
            "block_size": RNG_BLOCK_SIZE,
            "chunk_size": chunk_size,
            "manifest_name": MANIFEST_NAME,
            "reducers": sorted(factories),
            "generator_sha256": _generator_fingerprint(generator),
            **grid,
        },
    )
    _clear_resume_files(out_dir)
    _write_json_atomic(os.path.join(out_dir, plan_name), plan)
    return plan


def _load_plan(out_dir: str, name: str, generator):
    """Read and validate the plan file ``name``: ``(plan, seed root)``.

    One ladder for both exporters: the envelope (an older build's plan gets
    the ``--force`` hint), the shared run fields, the exporter's grid
    fields (:data:`_EXPORTERS`) and the generator's parameter fingerprint.
    Every failure is a :class:`StateError`.
    """
    path = os.path.join(out_dir, name)
    where = f"export plan {path}"
    plan = _load_json(path, "export plan")
    kind, version = plan.get("kind"), plan.get("state_version")
    if (kind, version) != (PLAN_KIND, CHECKPOINT_STATE_VERSION):
        older = kind == "FleetDistributedPlan" or (
            kind == PLAN_KIND
            and isinstance(version, int)
            and version < CHECKPOINT_STATE_VERSION
        )
        raise StateError(
            f"{where} has kind {kind!r} / state_version {version!r}; "
            + (
                "an older build wrote this partial export and this one "
                "cannot resume it; re-run the export with --force"
                if older
                else f"expected {PLAN_KIND} v{CHECKPOINT_STATE_VERSION}"
            )
        )
    for field_name, minimum in {"size": 0, "chunk_size": 1, **_EXPORTERS[name]}.items():
        value = plan.get(field_name)
        if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
            raise StateError(
                f"{where} field {field_name!r} must be an integer >= "
                f"{minimum}, got {value!r}"
            )
    if plan.get("version") != MANIFEST_VERSION:
        raise StateError(
            f"{where} targets manifest version {plan.get('version')!r}, "
            f"not the supported {MANIFEST_VERSION}"
        )
    if plan.get("block_size") != RNG_BLOCK_SIZE:
        raise StateError(
            f"{where} used RNG block size {plan.get('block_size')!r}; this "
            f"build generates {RNG_BLOCK_SIZE} and cannot reproduce its blocks"
        )
    if plan.get("format") != "csv":
        # An older build also wrote row-segment npz block exports.
        raise StateError(
            f"{where} has format {plan.get('format')!r}; this build resumes "
            "csv exports only — re-run the export with --force"
        )
    if not isinstance(plan.get("when"), (int, float)):
        raise StateError(f"{where} field 'when' is not numeric")
    manifest_name = plan.get("manifest_name")
    if manifest_name != MANIFEST_NAME:
        raise StateError(f"{where} has an invalid manifest_name {manifest_name!r}")
    names = plan.get("reducers")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise StateError(f"{where} field 'reducers' must be a list of names")
    fingerprint = _generator_fingerprint(generator)
    recorded = plan.get("generator_sha256")
    if fingerprint != recorded:
        raise StateError(
            f"generator parameters (sha256 {str(fingerprint)[:12]}…) do not "
            f"match the interrupted export's ({str(recorded)[:12]}…); pass the "
            "same parameter set (--params) used by the original export"
        )
    try:
        root = np.random.SeedSequence(
            entropy=int(plan["entropy"]),
            spawn_key=tuple(int(k) for k in plan["spawn_key"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise StateError(f"{where} has an invalid seed: {error}")
    return plan, root


def _journal_line(entries: "list[dict]", reducers) -> dict:
    """The journal line of one finished grid cell: its block entries, as
    :func:`_render_block` made them, and the serialized ``reducers``."""
    return {
        "block_lo": entries[0]["index"],
        "block_hi": entries[-1]["index"] + 1,
        "blocks": entries,
        "reducers": reducers.to_state(),
    }


def _decode_entries(blocks, cell, size: int, shard: int, where: str):
    """Segment records and row digests of one cell's block entries.

    The one step from block entries to :class:`SegmentRecord` objects, and
    the check of every entry that arrives from outside the process: journal
    restore and live ``result`` frames validate through it, and
    :func:`_finish_run` builds the manifest's records with it.  Each entry
    must be the next block of ``cell`` with a byte count and two sha256
    hex digests; path, shard and row range come from the block index and
    the run.  Anything malformed raises :class:`StateError` naming
    ``where``.
    """
    lo, hi = cell
    if not isinstance(blocks, list) or len(blocks) != hi - lo:
        raise StateError(f"{where} must carry exactly {hi - lo} block entries")
    records: "list[SegmentRecord]" = []
    digests: "list[tuple[int, bytes]]" = []
    for index, entry in enumerate(blocks, start=lo):
        if not isinstance(entry, dict) or entry.get("index") != index:
            raise StateError(f"{where} entry {index - lo} is not block {index}")
        sha, nbytes = entry.get("sha256"), entry.get("bytes")
        digest = entry.get("digest")
        if not all(
            isinstance(value, str) and _SHA256_HEX.fullmatch(value)
            for value in (sha, digest)
        ):
            raise StateError(f"{where} block {index} has a malformed sha256 or digest")
        if not isinstance(nbytes, int) or isinstance(nbytes, bool) or nbytes < 0:
            raise StateError(f"{where} block {index} has a malformed byte count")
        records.append(
            _block_segment(
                _block_name(index), shard, range(index, index + 1), size, sha, nbytes
            )
        )
        digests.append((index, bytes.fromhex(digest)))
    return records, digests


def _load_journal(path: str, plan: dict, cells, ordered: bool = False):
    """One journal's validated lines and the bytes they span.

    Every line must be a cell of ``cells``, the plan's grid; with
    ``ordered`` (a block-export shard) the lines must be those cells in
    order from the first.  Returns ``([(cell, block entries, reducer
    state)], bytes)``.  Whether each entry still matches its file is the
    exporter's check at restore (:func:`_read_matching_block`): the block
    writer heals a block, the coordinator re-runs its lease.
    """
    lines, kept = _read_journal(path, "checkpoint journal")
    loaded: "list[tuple]" = []
    for number, line in enumerate(lines, start=1):
        where = f"checkpoint {path} line {number}"
        cell = (line.get("block_lo"), line.get("block_hi"))
        if cell not in (cells[len(loaded):len(loaded) + 1] if ordered else cells):
            raise StateError(
                f"{where} blocks {list(cell)} are not "
                f"{'the next cell' if ordered else 'a cell'} of the plan's grid"
            )
        if not isinstance(line.get("reducers"), dict):
            raise StateError(f"{where} is missing its serialized reducer state")
        _decode_entries(line.get("blocks"), cell, plan["size"], 0, where)
        loaded.append((cell, line["blocks"], line["reducers"]))
    return loaded, kept


def _write_block_file(out_dir: str, index: int, data: bytes) -> None:
    """Write block ``index``'s file in ``out_dir``: the only writer of
    ``block-NNNNNN.csv`` files.

    The block writer, pool slots and the coordinator (for a peer's inline
    bytes) all write here, under :data:`WRITE_RETRY` at the
    ``writer.block.write`` site.  The file is opened without truncating and
    cut to ``data`` after the write, so a duplicate lease or a healed block
    rewrites an accepted file with the same bytes and a kill mid-write
    never leaves it short.  A failed write leaves the file for the resume
    or the requeued lease to rewrite; removing it could remove an accepted
    block.  Module-level so the crash-injection tests can patch a fault in.
    """
    path = os.path.join(out_dir, _block_name(index))

    def attempt() -> None:
        _fire(SITE_BLOCK_WRITE, path=path, data=data)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "wb") as handle:
            handle.write(data)
            handle.truncate()  # a longer file left by an earlier run

    # Transient I/O (a momentary ENOSPC/EIO, a hiccuping network mount)
    # gets a short, bounded second chance before the export dies; a
    # persistent failure still surfaces fast, naming the file.
    WRITE_RETRY.call(
        attempt, retry_on=(OSError,), describe=f"writing block segment {path}"
    )


def _read_matching_block(out_dir: str, entry: dict) -> "bytes | None":
    """The bytes of a journalled block's file in ``out_dir``, or ``None``
    if it no longer matches its entry (missing, resized or hash-flipped).

    Blocks are bounded at :data:`~repro.engine.streaming.RNG_BLOCK_SIZE`
    rows, so reading one whole is cheap — and returning the verified bytes
    lets the resuming worker fold them straight into its running payload
    hash instead of hashing the file a second time.
    """
    path = os.path.join(out_dir, _block_name(entry["index"]))
    if not os.path.exists(path) or os.path.getsize(path) != entry["bytes"]:
        return None
    with open(path, "rb") as handle:
        data = handle.read()
    if hashlib.sha256(data).hexdigest() != entry["sha256"]:
        return None
    return data


def _write_block_shard(task: BlockTask):
    """Worker: write the task's blocks as per-block segments.

    Reduces every block into the shard's :class:`ReducerSet` and, at the
    end of each ``checkpoint_every``-block cell of the shard (the last
    cell may be shorter), appends one fsynced :func:`_journal_line` to the
    shard's journal with the shard's cumulative reducer state.  A restart
    from those lines continues bit-identically: the reducer state
    round-trips exactly, and regenerated blocks are byte-identical by the
    ``SeedSequence.spawn`` contract.

    ``task.checkpoint`` (when resuming) is the shard's journal as
    :func:`_run_block_export` joined it; each journalled block file is
    re-verified against its entry and — being deterministic — simply
    rewritten if missing or corrupt, without touching the restored reducer
    state.  Returns ``(entries, reducers, restored blocks, payload
    sha256)``; the payload sha256 is ``None`` unless the task covers the
    whole fleet.
    """
    shard, blocks, out_dir = task.shard, task.blocks, task.out_dir
    checkpoint, checkpoint_every = task.checkpoint, task.checkpoint_every
    reducers = ReducerSet.from_factories(task.factories)
    entries: "list[dict]" = []
    # A task covering the whole fleet hashes its block bytes in block
    # order as it goes: that is the manifest's payload digest, so the
    # parent never re-reads the segments.  A part of the fleet hashes
    # nothing beyond its entries; the parent re-reads every block then.
    payload = hashlib.sha256() if len(blocks) == block_count(task.size) else None

    if checkpoint is not None:
        reducers = ReducerSet.from_state(checkpoint["reducers"])
        for journalled in checkpoint["entries"]:
            data = _read_matching_block(out_dir, journalled)
            if data is None:
                index = journalled["index"]
                [(_, block)] = task.generate(range(index, index + 1))
                data, entry = _render_block(index, block)
                # A healed block must reproduce its journalled entry
                # exactly; failing fast here beats finishing an expensive
                # resume whose manifest then fails `fleet verify`.
                if entry != journalled:
                    raise StateError(
                        f"regenerated {_block_name(index)} does not reproduce "
                        "its checkpointed entry; the resume environment "
                        "generates a different fleet than the interrupted run"
                    )
                _write_block_file(out_dir, index, data)
            if payload is not None:
                payload.update(data)
            entries.append(journalled)
    restored = logged = len(entries)

    # Reducer updates are batched through the shared ChunkedFold (the same
    # accumulation the statistics fan-out uses).  Flush points are a
    # deterministic function of the block indices alone — every checkpoint
    # boundary flushes, and between boundaries the batch grows by fixed
    # block sizes — so an uninterrupted run and a resumed run fold
    # identical chunks and stay bit-identical.
    fold = ChunkedFold(reducers, task.chunk_size)
    journal_path = os.path.join(out_dir, _journal_name(shard))
    if checkpoint_every:
        # A resumed journal is cut back to its last complete line before
        # anything is appended, so a torn tail from the crash never ends
        # up mid-file where a second resume would reject it.
        with open(journal_path, "ab") as journal:
            journal.truncate(checkpoint["journal_bytes"] if checkpoint else 0)

    for index, block in task.generate(blocks[restored:]):
        data, entry = _render_block(index, block)
        _write_block_file(out_dir, index, data)
        if payload is not None:
            payload.update(data)
        entries.append(entry)
        fold.add(block)
        done = index + 1 - blocks.start
        if checkpoint_every and (
            done % checkpoint_every == 0 or index + 1 == blocks.stop
        ):
            fold.flush()
            with open(journal_path, "ab") as journal:
                _append_journal(
                    journal,
                    [_journal_line(entries[logged:], reducers)],
                    site=SITE_CHECKPOINT_WRITE,
                    fsync_site=SITE_CHECKPOINT_FSYNC,
                )
            logged = len(entries)
        _fire(SITE_BLOCK_DONE)
    fold.flush()
    return entries, reducers, restored, payload.hexdigest() if payload else None


def export_fleet_blocks(
    generator,
    when: "_dt.date | float",
    size: int,
    rng: "int | np.random.SeedSequence | np.random.Generator | None",
    out_dir: str,
    shards: int = 1,
    checkpoint_every: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    reducers: "dict[str, ReducerFactory] | None" = None,
    quantiles: bool = False,
    start_method: "str | None" = None,
) -> BlockExportResult:
    """Export a fleet as per-block CSV segments with reducer checkpoints.

    The resumable counterpart of :func:`export_fleet`: every RNG block
    becomes its own segment file, each shard worker appends its new
    block entries and serialized reducer state to its checkpoint
    journal every ``checkpoint_every`` blocks, and a
    plan (:data:`PLAN_NAME`) pins the run parameters so
    :func:`resume_export` can finish an interrupted run with identical
    manifest digests and statistics.  ``checkpoint_every`` and
    ``chunk_size`` are part of the run's determinism envelope (sketch
    compression happens at checkpoint points, reducer folds at
    chunk-size/checkpoint flush boundaries), so resume reuses the
    original values from the plan.

    Unlike the shard layout, this path *reduces while it writes* — the
    returned :class:`BlockExportResult` carries the run's
    :class:`~repro.engine.sharding.FleetStatistics` (default
    moments + correlation; plug in ``reducers``/``quantiles`` as in
    :func:`~repro.engine.sharding.generate_sharded`).

    On success the journals and plan are removed; the
    final manifest has ``layout="block"`` and verifies with
    :func:`verify_manifest` exactly like a shard-layout export.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    if checkpoint_every < 0:
        raise ValueError("checkpoint_every must be non-negative")
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    if shards < 1:
        raise ValueError("shards must be at least 1")
    root = as_seed_sequence(rng)
    os.makedirs(out_dir, exist_ok=True)
    factories = _resolve_factories(reducers, quantiles)
    if checkpoint_every:
        # Fail before hours of work, not at resume time: every reducer in
        # the set must survive a serialization round trip (a transform-
        # carrying Histogram/ECDF reducer, for example, cannot be restored
        # without its callable and would make the checkpoints useless).
        try:
            ReducerSet.from_state(ReducerSet.from_factories(factories).to_state())
        except StateError as error:
            raise ValueError(
                f"this reducer set cannot be checkpointed: {error}; pass "
                "checkpoint_every=0 or use state-restorable reducers"
            )
    plan = _start_run(
        out_dir, PLAN_NAME, generator, size, when, root, chunk_size, factories,
        shards=len(shard_block_ranges(block_count(size), shards)),
        checkpoint_every=checkpoint_every,
    )
    return _run_block_export(generator, plan, root, out_dir, factories, start_method)


def resume_export(
    generator,
    out_dir: str,
    reducers: "dict[str, ReducerFactory] | None" = None,
    quantiles: bool = False,
    start_method: "str | None" = None,
    workers: int = 2,
    connect: "list[tuple[str, int]] | tuple" = (),
    worker_timeout: "float | None" = None,
    lease_depth: "int | None" = None,
    token: "str | None" = None,
    metrics_path: "str | None" = None,
):
    """Finish an interrupted export, whichever exporter started it.

    Runs the exporter whose plan it finds in ``out_dir``.  Size, date, seed
    and grid come from the plan, and ``generator`` must have the
    parameters the plan pins.  The finished manifest, payload bytes and
    statistics equal an uninterrupted run's.

    * A block export (:data:`PLAN_NAME`) joins each shard's journal,
      re-verifies every checkpointed block file (rewriting any that is
      missing or torn), restores the last line's reducer state and
      regenerates only the blocks never checkpointed.  ``reducers`` and
      ``quantiles`` must match the original run; their names are checked
      against the plan.  Returns a :class:`BlockExportResult`.
    * A distributed export (:data:`DISTRIBUTED_PLAN_NAME`) restores every
      journalled lease whose block files still verify and re-leases the
      rest over the transport keywords (``workers`` … ``metrics_path``, as
      :func:`~repro.engine.distributed.export_fleet_distributed` takes
      them; ``worker_timeout`` and ``lease_depth`` default to that
      backend's defaults).  Its reducer set comes from the plan.  Returns
      a :class:`~repro.engine.distributed.DistributedExportResult`.

    A corrupt, mismatched or older-build plan or journal raises
    :class:`~repro.stats.state.StateError`, as do ``connect``,
    ``metrics_path``, ``token``, ``lease_depth`` (other than 1) and
    ``worker_timeout`` on a block plan, which would drop them.  If the
    export already finished, returns its manifest with
    ``statistics=None``.
    """
    found = [
        name for name in (PLAN_NAME, DISTRIBUTED_PLAN_NAME)
        if os.path.exists(os.path.join(out_dir, name))
    ]
    if not found:
        manifest_path = os.path.join(out_dir, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            raise StateError(
                f"nothing to resume in {out_dir}: no {PLAN_NAME} or "
                f"{DISTRIBUTED_PLAN_NAME} (and no {MANIFEST_NAME}) found"
            )
        try:
            manifest = FleetManifest.load(manifest_path)
        except (OSError, KeyError, TypeError, ValueError) as error:
            raise StateError(f"cannot read manifest {manifest_path}: {error}")
        return BlockExportResult(manifest=manifest, statistics=None, resumed_blocks=0)
    plan, root = _load_plan(out_dir, found[0], generator)
    if found[0] == DISTRIBUTED_PLAN_NAME:
        from repro.engine.distributed import _resume_distributed

        return _resume_distributed(
            generator, out_dir, plan, root, workers=workers, connect=connect,
            worker_timeout=worker_timeout, lease_depth=lease_depth,
            start_method=start_method, token=token, metrics_path=metrics_path,
        )
    for given, name in (
        (connect, "connect (--connect)"),
        (metrics_path, "metrics_path (--metrics)"),
        (token is not None, "token (--token-file)"),
        # 1 is the CLI's --lease-depth default, not a request.
        (lease_depth not in (None, 1), "lease_depth (--lease-depth)"),
        (worker_timeout is not None, "worker_timeout"),
    ):
        if given:
            raise StateError(
                f"{out_dir} holds an interrupted block export; {name} "
                "applies to a distributed run only — resume without it"
            )
    factories = _resolve_factories(reducers, quantiles)
    if sorted(factories) != plan["reducers"]:
        raise StateError(
            f"resume carries reducers {sorted(factories)} but the "
            f"interrupted run used {plan['reducers']}; pass the same "
            "reducer set to resume_export"
        )
    return _run_block_export(generator, plan, root, out_dir, factories, start_method)


def _run_block_export(
    generator, plan, root, out_dir, factories, start_method=None
) -> BlockExportResult:
    """Drive the shard workers and finalise a block-layout manifest.

    Each shard resumes from its journal's lines (a fresh run has none):
    the entries of every checkpointed block and the last line's
    cumulative reducer state.
    """
    size, every = plan["size"], plan["checkpoint_every"]
    ranges = shard_block_ranges(block_count(size), plan["shards"])
    tasks = []
    for shard, (lo, hi) in enumerate(ranges):
        path = os.path.join(out_dir, _journal_name(shard))
        lines, kept = (
            _load_journal(path, plan, _grid_cells(lo, hi, every), ordered=True)
            if every and os.path.exists(path)
            else ([], 0)
        )
        checkpoint = {
            "entries": [entry for _, entries, _ in lines for entry in entries],
            "reducers": lines[-1][2],
            "journal_bytes": kept,
        } if lines else None
        tasks.append(
            BlockTask(
                generator, plan["when"], size, root, range(lo, hi),
                shard=shard, out_dir=out_dir, chunk_size=plan["chunk_size"],
                factories=factories, checkpoint_every=every, checkpoint=checkpoint,
            )
        )

    start = time.perf_counter()
    results = fan_out(_write_block_shard, tasks, start_method)
    elapsed = time.perf_counter() - start
    entries, parts, restored, payloads = zip(*results)
    manifest, statistics = _finish_run(
        generator, plan, root, out_dir, factories, list(zip(ranges, entries)),
        parts, len(ranges), elapsed, payloads[0],
    )
    return BlockExportResult(
        manifest=manifest, statistics=statistics, resumed_blocks=sum(restored)
    )


def _finish_run(
    generator, plan, root, out_dir, factories, runs, parts, workers, elapsed,
    payload_sha256=None,
):
    """Finalise a run of either resumable exporter: save its manifest,
    remove its resume files and return ``(manifest, statistics)``.

    ``runs`` holds each manifest shard's ``(cell, block entries)`` and
    ``parts`` the reducer sets to merge, both in block order; ``workers``
    is the statistics' worker count.  ``payload_sha256`` is the payload
    digest when the caller already hashed every block in order; without
    it the block files are re-read.
    """
    size = plan["size"]
    records: "list[SegmentRecord]" = []
    digests: "list[tuple[int, bytes]]" = []
    for shard, (cell, entries) in enumerate(runs):
        shard_records, shard_digests = _decode_entries(
            entries, cell, size, shard, f"shard {shard} of {out_dir}"
        )
        records += shard_records
        digests += shard_digests
    merged = ReducerSet.from_factories(factories)
    for reducers in parts:
        merged.merge(reducers)
    manifest = _save_manifest(
        os.path.join(out_dir, MANIFEST_NAME), generator, "csv", size,
        plan["when"], root, len(runs), records,
        payload_sha256 or _payload_sha256(out_dir, records), digests,
        layout="block", checkpoint_every=plan.get("checkpoint_every", 0),
    )
    # Finalised: the plan and journals are now redundant (and would
    # otherwise mark the directory as an interrupted run).
    _clear_resume_files(out_dir)
    statistics = FleetStatistics(
        size=size,
        when=plan["when"],
        shards=workers,
        reducers=merged,
        elapsed_seconds=elapsed,
        digest=manifest.fleet_sha256,
    )
    return manifest, statistics


def _segment_file(base: str, name) -> str:
    """The path of segment ``name`` of the export in directory ``base``.

    A manifest may come from elsewhere, so verify and compact read only a
    plain file name (no separator, not ``.`` or ``..``) that names a
    regular file: never a path out of ``base``, nor a device or FIFO whose
    reads need not end.  Raises ``ValueError`` naming the segment
    otherwise; a missing file is left for the caller to name.
    """
    if (
        not isinstance(name, str)
        or name in ("", ".", "..")
        or os.path.basename(name) != name
    ):
        raise ValueError(
            f"segment {name!r} is not a file name in the export directory"
        )
    path = os.path.join(base, name)
    if os.path.exists(path) and not os.path.isfile(path):
        raise ValueError(f"segment {name} is not a regular file")
    return path


def compact_export(
    manifest_path: str,
    out_dir: str,
    shards: int = 1,
) -> FleetManifest:
    """Merge a block-layout export into the per-shard layout byte-identically.

    Concatenates the block segments of a completed block-layout CSV export
    into ``shards`` contiguous per-shard segments — producing exactly the
    files *and manifest* :func:`export_fleet` would have written for the
    same ``(parameters, date, size, seed, shards)``, including every
    digest.  The concatenated payload is re-hashed against the source
    manifest during the copy, so silent corruption of a block segment
    fails the compaction rather than propagating.

    The row-segment npz block exports older builds wrote cannot be
    compacted (zip metadata is not byte-stable); re-export them instead.
    """
    manifest = FleetManifest.load(manifest_path)
    if manifest.layout != "block":
        raise ValueError(
            f"only block-layout manifests can be compacted (got "
            f"layout={manifest.layout!r})"
        )
    if manifest.format != "csv":
        raise ValueError(
            f"only csv block exports can be compacted byte-identically (got "
            f"format={manifest.format!r}, whose segments embed zip metadata); "
            "re-export the fleet"
        )
    base = os.path.dirname(os.path.abspath(manifest_path))
    os.makedirs(out_dir, exist_ok=True)
    target = os.path.abspath(os.path.join(out_dir, MANIFEST_NAME))
    if target == os.path.abspath(manifest_path):
        raise ValueError(
            "compaction target would overwrite the source manifest; choose "
            "a different out_dir"
        )
    by_index = {record.block_lo: record for record in manifest.segments}
    n_blocks = block_count(manifest.size, manifest.block_size)
    ranges = shard_block_ranges(n_blocks, shards)
    payload_hash = hashlib.sha256()
    records: "list[SegmentRecord]" = []
    for shard, (lo, hi) in enumerate(ranges):
        name = _segment_name(shard)
        segment_hash = hashlib.sha256()
        nbytes = 0
        with open(os.path.join(out_dir, name), "wb") as out_handle:
            for index in range(lo, hi):
                record = by_index.get(index)
                if record is None:
                    raise ValueError(
                        f"manifest {manifest_path} lists no segment for "
                        f"block {index}"
                    )
                with open(_segment_file(base, record.path), "rb") as handle:
                    for piece in iter(lambda: handle.read(1 << 20), b""):
                        out_handle.write(piece)
                        segment_hash.update(piece)
                        payload_hash.update(piece)
                        nbytes += len(piece)
        records.append(
            SegmentRecord(
                path=name,
                shard=shard,
                block_lo=lo,
                block_hi=hi,
                row_lo=min(lo * manifest.block_size, manifest.size),
                row_hi=min(hi * manifest.block_size, manifest.size),
                sha256=segment_hash.hexdigest(),
                bytes=nbytes,
            )
        )
    if payload_hash.hexdigest() != manifest.payload_sha256:
        raise ValueError(
            "block segments no longer match their manifest (payload sha256 "
            "mismatch); run `fleet verify` on the block export"
        )
    compacted = replace(
        manifest,
        shards=len(ranges),
        segments=tuple(records),
        layout="shard",
        checkpoint_every=0,
    )
    compacted.save(target)
    return compacted


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of re-hashing an export against its manifest."""

    ok: bool
    segments_checked: int
    problems: "tuple[str, ...]"

    def format_lines(self) -> "list[str]":
        if self.ok:
            return [f"{self.segments_checked} segment(s) verified: OK"]
        return [f"{self.segments_checked} segment(s) checked"] + [
            f"FAIL: {problem}" for problem in self.problems
        ]


def verify_manifest(manifest_path: str) -> VerificationReport:
    """Re-hash every segment of an export against its manifest.

    Checks the manifest schema version; that each segment is a regular
    file named in the manifest's directory (:func:`_segment_file`), of its
    recorded size and sha256; and the manifest-order concatenated
    ``payload_sha256``.  A missing file, a flipped byte or a reordered
    segment list all surface as problems, in segment order.  Each file is
    read once (:func:`_digest_files`): a one-segment export in one pass,
    whose digest is the segment's and the payload's, a larger one with the
    segment and payload digests on two threads.
    """
    def _failure(problem: str) -> VerificationReport:
        return VerificationReport(ok=False, segments_checked=0, problems=(problem,))

    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            payload = json.loads(handle.read())
    except (OSError, ValueError) as error:
        return _failure(f"cannot read manifest {manifest_path}: {error}")
    if not isinstance(payload, dict):
        return _failure(f"manifest {manifest_path} is not a JSON object")
    version = payload.get("version")
    if version != MANIFEST_VERSION:
        return _failure(
            f"manifest version {version!r} is not the supported {MANIFEST_VERSION}"
        )
    try:
        manifest = FleetManifest._from_payload(payload)
    except (KeyError, TypeError, ValueError) as error:
        return _failure(f"manifest {manifest_path} is malformed: {error}")
    base = os.path.dirname(os.path.abspath(manifest_path))
    # Each segment's path or size problem, or None for one to hash.
    found: "list[str | None]" = []
    hashed: "list[str]" = []
    checked = 0
    for segment in manifest.segments:
        try:
            path = _segment_file(base, segment.path)
        except ValueError as error:
            found.append(str(error))
            continue
        if not os.path.exists(path):
            found.append(f"segment {segment.path} is missing")
            continue
        checked += 1
        actual = os.path.getsize(path)
        if segment.bytes >= 0 and actual != segment.bytes:
            # A partial write is the common corruption of an interrupted
            # copy; name it (and the exact byte counts) instead of leaving
            # only a generic digest mismatch.
            kind = "truncated" if actual < segment.bytes else "oversized"
            found.append(
                f"segment {segment.path} is {kind}: {actual} of "
                f"{segment.bytes} expected bytes"
            )
            continue
        found.append(None)
        hashed.append(path)
    digests, payload_sha256 = _digest_files(hashed)
    file_digests = iter(digests)
    problems: "list[str]" = []
    for segment, problem in zip(manifest.segments, found):
        if problem is None:
            digest = next(file_digests)
            if digest != segment.sha256:
                problem = (
                    f"segment {segment.path} sha256 mismatch "
                    f"(expected {segment.sha256[:12]}…, got {digest[:12]}…)"
                )
        if problem is not None:
            problems.append(problem)
    if not problems and payload_sha256 != manifest.payload_sha256:
        problems.append("concatenated payload sha256 mismatch")
    return VerificationReport(
        ok=not problems, segments_checked=checked, problems=tuple(problems)
    )
