"""Streaming fleet generation with deterministic RNG blocks.

The batch :meth:`~repro.core.generator.CorrelatedHostGenerator.generate`
materialises the whole :class:`~repro.hosts.population.HostPopulation` at
once, which caps fleet size by RAM.  This module generates fleets as a
*stream* of chunks whose content is independent of how the stream is
consumed:

Determinism contract
--------------------
A fleet is identified by ``(generator parameters, when, size, seed)``.  The
host index space ``[0, size)`` is partitioned into fixed blocks of
:data:`RNG_BLOCK_SIZE` hosts; block ``i`` is generated with
``np.random.default_rng(SeedSequence(seed).spawn(n_blocks)[i])``.  Because
``SeedSequence.spawn`` derives children purely from ``(entropy, spawn_key)``,
block ``i`` receives the same random stream in every process, for every
chunk size and for every shard count.  Chunks are re-sliced views over whole
blocks, so::

    concatenate(stream_population(gen, when, n, seed, chunk_size=a))
    == concatenate(stream_population(gen, when, n, seed, chunk_size=b))
    == generate_fleet(gen, when, n, seed)

holds *exactly* (byte-identical columns) for any ``a``, ``b``.  The block
size is part of the contract: changing :data:`RNG_BLOCK_SIZE` changes every
fleet, so it is a module constant rather than a parameter.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.hosts.population import HostPopulation

#: Number of hosts generated per RNG block.  Part of the determinism
#: contract — see the module docstring before changing it.
RNG_BLOCK_SIZE = 4096

#: Default number of hosts per yielded chunk (~2.5 MB of column data).
DEFAULT_CHUNK_SIZE = 65536


def as_seed_sequence(rng: "int | np.random.SeedSequence | np.random.Generator | None") -> np.random.SeedSequence:
    """Normalise a seed-like value to a *fresh* :class:`~numpy.random.SeedSequence`.

    Accepts an integer seed, ``None`` (fresh OS entropy), a ``SeedSequence``
    or a :class:`~numpy.random.Generator` (its bit generator's seed sequence
    is reused).  The returned sequence is rebuilt from ``(entropy,
    spawn_key)`` so its spawn counter starts at zero — the same input always
    yields the same children regardless of prior ``spawn`` calls.
    """
    if isinstance(rng, np.random.Generator):
        seed_seq = getattr(rng.bit_generator, "seed_seq", None)
        if seed_seq is None:  # very old numpy keeps it private
            seed_seq = getattr(rng.bit_generator, "_seed_seq", None)
        if not isinstance(seed_seq, np.random.SeedSequence):
            raise TypeError(
                "cannot derive a SeedSequence from this Generator; "
                "pass an integer seed or a SeedSequence instead"
            )
        rng = seed_seq
    if isinstance(rng, np.random.SeedSequence):
        return np.random.SeedSequence(entropy=rng.entropy, spawn_key=rng.spawn_key)
    return np.random.SeedSequence(rng)


def block_count(size: int, block_size: int = RNG_BLOCK_SIZE) -> int:
    """Number of RNG blocks covering a fleet of ``size`` hosts."""
    if size < 0:
        raise ValueError("size must be non-negative")
    return -(-size // block_size)


def block_seeds(
    root: "int | np.random.SeedSequence | np.random.Generator | None", size: int
) -> "list[np.random.SeedSequence]":
    """Per-block seed sequences for a fleet of ``size`` hosts."""
    return as_seed_sequence(root).spawn(block_count(size))


@dataclass(frozen=True)
class BlockTask:
    """A fleet and the RNG blocks one fan-out worker generates from it.

    ``root`` is a fresh seed sequence (see :func:`as_seed_sequence`);
    ``blocks`` is contiguous for export layouts and round-robin for
    ``generate_sharded``.  The fields after it carry the per-layout
    values of the worker the task is handed to.
    """

    generator: object
    when: "_dt.date | float"
    size: int
    root: np.random.SeedSequence
    blocks: range
    shard: int = 0
    out_dir: str = ""
    chunk_size: int = DEFAULT_CHUNK_SIZE
    factories: "dict | None" = None
    digest: bool = False
    checkpoint_every: int = 0
    checkpoint: "dict | None" = None

    def generate(self, blocks: "range | None" = None) -> Iterator[tuple]:
        """Yield ``(index, block)`` over ``blocks`` (default: the task's own).

        Block ``i`` draws from child ``i`` of ``root``, derived directly
        as ``SeedSequence.spawn`` derives it, so a task never spawns seeds
        for blocks it does not generate.
        """
        root = self.root
        for index in self.blocks if blocks is None else blocks:
            seed = np.random.SeedSequence(
                root.entropy,
                spawn_key=(*root.spawn_key, index),
                pool_size=root.pool_size,
            )
            n = min(RNG_BLOCK_SIZE, self.size - index * RNG_BLOCK_SIZE)
            yield index, self.generator.generate(
                self.when, n, np.random.default_rng(seed)
            )


def iter_blocks(
    generator,
    when: "_dt.date | float",
    size: int,
    rng: "int | np.random.SeedSequence | np.random.Generator | None",
) -> "Iterator[tuple[int, HostPopulation]]":
    """Yield ``(block_index, population)`` pairs in index order.

    This is the primitive the streaming, hashing and sharding layers share;
    each block holds at most :data:`RNG_BLOCK_SIZE` hosts.
    """
    yield from BlockTask(
        generator, when, size, as_seed_sequence(rng), range(block_count(size))
    ).generate()


def _slice(population, lo: int, hi: int):
    """Row range ``[lo, hi)`` of a population (numpy views, no copy).

    Blocks exposing a ``slice`` method (scenario
    :class:`~repro.engine.table.ColumnBlock`) slice themselves; host
    populations are sliced column-wise here.
    """
    slicer = getattr(population, "slice", None)
    if slicer is not None:
        return slicer(lo, hi)
    return HostPopulation(
        cores=population.cores[lo:hi],
        memory_mb=population.memory_mb[lo:hi],
        dhrystone=population.dhrystone[lo:hi],
        whetstone=population.whetstone[lo:hi],
        disk_gb=population.disk_gb[lo:hi],
    )


def _concatenate(pieces):
    """Concatenate same-type blocks via their class's ``concatenate``."""
    return pieces[0] if len(pieces) == 1 else type(pieces[0]).concatenate(pieces)


def stream_population(
    generator,
    when: "_dt.date | float",
    size: int,
    rng: "int | np.random.SeedSequence | np.random.Generator | None",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[HostPopulation]:
    """Stream a fleet as :class:`HostPopulation` chunks of ``chunk_size``.

    Every chunk except possibly the last has exactly ``chunk_size`` hosts.
    Peak memory is bounded by ``chunk_size + RNG_BLOCK_SIZE`` hosts, never by
    ``size``; the concatenated stream is byte-identical for every
    ``chunk_size`` (see the module docstring).  A ``size`` of zero yields no
    chunks.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")

    parts: "list[HostPopulation]" = []
    pending = 0
    for _, block in iter_blocks(generator, when, size, rng):
        parts.append(block)
        pending += len(block)
        while pending >= chunk_size:
            pieces: "list[HostPopulation]" = []
            need = chunk_size
            while need > 0:
                head = parts[0]
                if len(head) <= need:
                    pieces.append(parts.pop(0))
                    need -= len(head)
                else:
                    pieces.append(_slice(head, 0, need))
                    parts[0] = _slice(head, need, len(head))
                    need = 0
            yield _concatenate(pieces)
            pending -= chunk_size
    if pending:
        yield _concatenate(parts)


def generate_fleet(
    generator,
    when: "_dt.date | float",
    size: int,
    rng: "int | np.random.SeedSequence | np.random.Generator | None",
) -> HostPopulation:
    """One-shot fleet generation under the streaming determinism contract.

    Equals ``HostPopulation.concatenate(list(stream_population(...)))`` for
    any chunk size, but materialises the fleet — use only when ``size`` fits
    comfortably in memory.
    """
    if size == 0:
        return generator.generate(when, 0, np.random.default_rng(as_seed_sequence(rng)))
    chunks = list(stream_population(generator, when, size, rng, chunk_size=size))
    return _concatenate(chunks)


def population_digest(population: HostPopulation) -> str:
    """SHA-256 of a population's rows (hex).

    Rows are hashed in host order as row-major float64 ``(n, 5)`` bytes in
    the canonical :data:`~repro.hosts.population.RESOURCE_LABELS` column
    order, so the digest identifies the exact host data independently of how
    the population was chunked together.
    """
    return hashlib.sha256(population.to_matrix().tobytes()).hexdigest()


def combine_block_digests(digests: "list[tuple[int, bytes]]") -> str:
    """Chain per-block digests (in block-index order) into one fleet digest."""
    chain = hashlib.sha256()
    for _, digest in sorted(digests, key=lambda item: item[0]):
        chain.update(digest)
    return chain.hexdigest()


def fleet_digest(
    generator,
    when: "_dt.date | float",
    size: int,
    rng: "int | np.random.SeedSequence | np.random.Generator | None",
) -> str:
    """Streaming SHA-256 identity of a fleet (hex).

    Defined as the SHA-256 chain of the per-RNG-block row digests in block
    order, so sequential streaming and sharded generation agree on the same
    value while holding at most one block in memory.
    """
    digests = [
        (i, bytes.fromhex(population_digest(block)))
        for i, block in iter_blocks(generator, when, size, rng)
    ]
    return combine_block_digests(digests)
