"""Golden determinism tests for the streaming/sharded engine.

The engine's contract: a fleet is a pure function of (parameters, date,
size, seed).  Chunk size and shard count are execution details that must
not change a single byte of the generated hosts — verified here through
sha256 fleet digests, mirroring the hash-based determinism idiom of the
related synthetic-benchmark repos.
"""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from repro.core.generator import DEFAULT_PERCORE_MAX_MB, CorrelatedHostGenerator
from repro.engine import (
    RNG_BLOCK_SIZE,
    block_seeds,
    fleet_digest,
    generate_fleet,
    generate_sharded,
    iter_blocks,
    population_digest,
    stream_population,
)
from repro.hosts.population import HostPopulation

SEPT_2010 = 2010.667
SEED = 20110611
SIZE = 100_000

#: Pinned identity of the 256-host seed-20110611 fleet at Sept 2010.  If an
#: intentional change to the generator or the RNG-block contract moves this,
#: update the constant in the same commit and call the fleet format out in
#: the changelog — silent drift is the failure this guards against.
GOLDEN_256_DIGEST = "0789106bd67de636058baf16cee66cf2ade3802eb338b12dc878320f50e4a4cd"

#: The same 256-host fleet pinned at other dates, so a class table resolved
#: for the wrong date moves a golden.  ``percore_max_mb`` is the generator's
#: truncation (``None`` keeps the full per-core-memory chain).
GOLDEN_256_DATE_DIGESTS = [
    pytest.param(SEPT_2010, DEFAULT_PERCORE_MAX_MB, GOLDEN_256_DIGEST, id="sept-2010"),
    pytest.param(
        dt.date(2006, 1, 1), DEFAULT_PERCORE_MAX_MB,
        "d34df9da7b59980b888fe4b6924793731480823724b0ba44f75053c7b9f91067",
        id="2006-01-01",
    ),
    pytest.param(
        dt.date(2008, 3, 15), DEFAULT_PERCORE_MAX_MB,
        "09fde79134071b4380a4e7152f347f9c093a9c96dfbe49717abb6bcfedbad6ca",
        id="2008-03-15",
    ),
    pytest.param(
        dt.date(2014, 6, 30), DEFAULT_PERCORE_MAX_MB,
        "bbbad006c60334048f3fb8ceb8a3720bcb86f95ce779f6c7d54b21132d396acc",
        id="2014-06-30",
    ),
    pytest.param(
        dt.date(2012, 5, 20), None,
        "645378c2831d438fe8183c6a3ef7c4cd95014fa36ba8e4ef64b60af316ec3929",
        id="2012-05-20-full-chain",
    ),
]


def _materialise(generator, chunk_size: int) -> HostPopulation:
    chunks = list(
        stream_population(generator, SEPT_2010, SIZE, SEED, chunk_size=chunk_size)
    )
    return HostPopulation.concatenate(chunks)


class TestChunkInvariance:
    def test_chunk_sizes_produce_identical_fleet(self, paper_generator):
        small = _materialise(paper_generator, chunk_size=1_000)
        large = _materialise(paper_generator, chunk_size=64_000)
        assert population_digest(small) == population_digest(large)

    def test_stream_equals_one_shot(self, paper_generator):
        streamed = _materialise(paper_generator, chunk_size=1_000)
        one_shot = generate_fleet(paper_generator, SEPT_2010, SIZE, SEED)
        np.testing.assert_array_equal(streamed.cores, one_shot.cores)
        np.testing.assert_array_equal(streamed.disk_gb, one_shot.disk_gb)
        assert population_digest(streamed) == population_digest(one_shot)

    def test_chunk_shapes(self, paper_generator):
        chunks = list(
            stream_population(
                paper_generator, SEPT_2010, 10_000, SEED, chunk_size=3_000
            )
        )
        assert [len(c) for c in chunks] == [3_000, 3_000, 3_000, 1_000]

    def test_zero_size_stream_is_empty(self, paper_generator):
        assert list(stream_population(paper_generator, SEPT_2010, 0, SEED)) == []

    def test_non_multiple_of_block_size(self, paper_generator):
        size = RNG_BLOCK_SIZE + 17
        ragged = HostPopulation.concatenate(
            list(
                stream_population(
                    paper_generator, SEPT_2010, size, SEED, chunk_size=999
                )
            )
        )
        assert len(ragged) == size
        assert population_digest(ragged) == population_digest(
            generate_fleet(paper_generator, SEPT_2010, size, SEED)
        )


class TestShardInvariance:
    def test_digest_identical_across_shard_counts(self, paper_generator):
        one = generate_sharded(
            paper_generator, SEPT_2010, 50_000, SEED, shards=1, digest=True
        )
        four = generate_sharded(
            paper_generator, SEPT_2010, 50_000, SEED, shards=4, digest=True
        )
        assert one.digest == four.digest
        assert one.digest == fleet_digest(paper_generator, SEPT_2010, 50_000, SEED)

    def test_different_seed_changes_digest(self, paper_generator):
        a = fleet_digest(paper_generator, SEPT_2010, 20_000, SEED)
        b = fleet_digest(paper_generator, SEPT_2010, 20_000, SEED + 1)
        assert a != b

    def test_sharded_statistics_match_across_shard_counts(self, paper_generator):
        one = generate_sharded(paper_generator, SEPT_2010, 50_000, SEED, shards=1)
        four = generate_sharded(paper_generator, SEPT_2010, 50_000, SEED, shards=4)
        assert four.moments.means() == pytest.approx(one.moments.means(), rel=1e-12)
        delta = four.correlation.matrix().max_abs_difference(one.correlation.matrix())
        assert delta < 1e-9


class TestStartMethodOverride:
    def test_spawn_pool_produces_the_same_fleet(self, paper_generator):
        """The spawn start method (mandatory under threaded callers) must
        generate and reduce the identical fleet the fork path does."""
        forked = generate_sharded(
            paper_generator, SEPT_2010, 20_000, SEED, shards=2, digest=True
        )
        spawned = generate_sharded(
            paper_generator, SEPT_2010, 20_000, SEED, shards=2, digest=True,
            start_method="spawn",
        )
        assert spawned.digest == forked.digest
        assert spawned.moments.means() == forked.moments.means()

    def test_explicit_start_method_wins(self):
        from repro.engine import resolve_start_method

        assert resolve_start_method("spawn") == "spawn"

    def test_env_override_is_honoured(self, monkeypatch):
        from repro.engine import resolve_start_method

        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        assert resolve_start_method() == "spawn"
        # an explicit argument still beats the environment
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            assert resolve_start_method("fork") == "fork"

    def test_unsupported_start_method_is_rejected(self):
        from repro.engine import resolve_start_method

        with pytest.raises(ValueError, match="unsupported"):
            resolve_start_method("frobnicate")

    def test_spawn_export_round_trips(self, paper_generator, tmp_path):
        from repro.engine import export_fleet, verify_manifest

        manifest = export_fleet(
            paper_generator, SEPT_2010, 16_384, SEED, str(tmp_path),
            shards=2, start_method="spawn",
        )
        assert verify_manifest(str(tmp_path / "manifest.json")).ok
        assert manifest.fleet_sha256 == fleet_digest(
            paper_generator, SEPT_2010, 16_384, SEED
        )


class _RngStateProbe:
    """Stands in for a generator: each "block" is the state of the bit
    generator the engine handed it."""

    def generate(self, when, n, rng):
        return rng.bit_generator.state


class TestOneBlockLoop:
    def test_block_rngs_match_spawned_seeds(self):
        """Every block of a 1 M-host fleet draws from exactly the stream
        ``default_rng(block_seeds(root, size)[i])`` defines."""
        size = 1_000_000
        root = np.random.SeedSequence(SEED)
        expected = [
            np.random.default_rng(seed).bit_generator.state
            for seed in block_seeds(root, size)
        ]
        blocks = list(iter_blocks(_RngStateProbe(), SEPT_2010, size, root))
        assert len(blocks) == len(expected) == 245
        assert [index for index, _ in blocks] == list(range(245))
        assert [state for _, state in blocks] == expected

    def test_fan_out_modules_have_no_block_loop_of_their_own(self):
        """Block seeds and block RNGs come from the one block loop in
        :mod:`repro.engine.streaming`, never from a copy in a fan-out."""
        import ast
        import inspect

        from repro.engine import distributed, sharding, writer

        for module in (writer, sharding, distributed):
            called = set()
            for node in ast.walk(ast.parse(inspect.getsource(module))):
                if isinstance(node, ast.Call):
                    func = node.func
                    called.add(getattr(func, "id", getattr(func, "attr", None)))
            assert not called & {"block_seeds", "default_rng"}, module.__name__

    def test_engine_modules_never_name_host_population(self):
        """The engine reaches every block through ``block.schema``,
        ``block.slice`` and ``block[label]``: no engine module imports or
        names the host block class."""
        import ast
        import pathlib

        import repro.engine

        package = pathlib.Path(repro.engine.__file__).parent
        modules = sorted(package.glob("*.py"))
        assert len(modules) > 5
        for path in modules:
            names = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
                names.add(getattr(node, "id", getattr(node, "attr", None)))
            assert "HostPopulation" not in names, path.name

    def test_engine_modules_never_import_the_model_or_the_scenarios(self):
        """A generator reaches the engine as an object, and a peer rebuilds
        one through :mod:`repro.registry`: no engine module imports
        ``repro.core`` or ``repro.scenarios``, at module level or inside
        a function."""
        import ast
        import pathlib

        import repro.engine

        package = pathlib.Path(repro.engine.__file__).parent
        modules = sorted(package.glob("*.py"))
        assert len(modules) > 5
        for path in modules:
            imported = []
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    imported.append(node.module or "")
                elif isinstance(node, ast.Import):
                    imported += [alias.name for alias in node.names]
            for name in imported:
                assert not name.startswith(("repro.core", "repro.scenarios")), (
                    path.name, name
                )


class TestSeedHandling:
    def test_seed_sequence_and_generator_inputs_agree(self, paper_generator):
        from_int = fleet_digest(paper_generator, SEPT_2010, 8_192, SEED)
        from_ss = fleet_digest(
            paper_generator, SEPT_2010, 8_192, np.random.SeedSequence(SEED)
        )
        from_rng = fleet_digest(
            paper_generator, SEPT_2010, 8_192, np.random.default_rng(SEED)
        )
        assert from_int == from_ss == from_rng

    @pytest.mark.parametrize("when, percore_max_mb, golden", GOLDEN_256_DATE_DIGESTS)
    def test_golden_digest_pinned(self, paper_generator, when, percore_max_mb, golden):
        # The shared generator arrives holding an earlier test's date tables.
        generator = (
            paper_generator
            if percore_max_mb == DEFAULT_PERCORE_MAX_MB
            else CorrelatedHostGenerator(percore_max_mb=percore_max_mb)
        )
        assert fleet_digest(generator, when, 256, SEED) == golden
