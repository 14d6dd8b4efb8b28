"""Microbenchmarks of the fleet engine's profiled hot paths.

Times the four operations the ``fleet export`` profile is made of, each
against the reference implementation it replaced, and asserts the
optimisations' correctness contracts while doing so:

* ``sketch_compress`` — the vectorised t-digest merge pass of
  :meth:`repro.stats.sketch.QuantileSketch._compress` versus the original
  per-element Python loop (kept here as the reference).
* ``csv_encode``      — :func:`repro.engine.csvfmt.encode_csv_rows` versus
  ``np.savetxt`` with the shared row format; output bytes must be
  identical (the same constraint the export goldens pin).
* ``hash_while_write`` — hashing segment bytes as they are written versus
  writing and then re-reading the file through the verify helper.
* ``block_synthesis`` — raw correlated-host block generation
  (:meth:`CorrelatedHostGenerator.generate` over RNG blocks), the floor
  any export optimisation converges toward, versus the step-by-step
  component composition it replaced (binary-search class selection and
  ``scipy.stats.norm.cdf``, every table resolved per block); all five
  columns must be bit-identical.
* ``reducer_fold``    — the ``fleet summary`` reducer set (moments,
  correlation, quantile sketches) folding 65 536-host chunks from each
  chunk's own columns, versus the stacked ``(n, k)`` fold it replaced
  (kept here as the reference); the ``to_state()`` JSON must be
  identical.

Each section reports best-of-``--repeats`` seconds plus derived speedups,
printed and written to ``BENCH_hotpaths.json`` so the perf trajectory is
tracked (and regression-gated in CI against
``benchmarks/baselines/BENCH_hotpaths.json``).

Run standalone (CI runs the 50k/200k configuration)::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py --size 50000 \
        --sketch-values 200000
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
import time

import numpy as np
from scipy import stats

from repro.core.correlation import CorrelatedNormalSampler
from repro.core.generator import CorrelatedHostGenerator
from repro.engine.accumulate import CorrelationAccumulator, MomentAccumulator
from repro.engine.csvfmt import encode_csv_rows
from repro.engine.reduce import QuantileReducer, ReducerSet
from repro.engine.streaming import RNG_BLOCK_SIZE, block_seeds
from repro.engine.writer import HOST_CSV_FMT, _hash_file_into
from repro.hosts.population import RESOURCE_LABELS, HostPopulation
from repro.stats.sketch import QuantileSketch
from repro.timeutil import parse_date, year_fraction


def best_of(callable_, repeats: int) -> "tuple[float, object]":
    """(best seconds, last result) of ``repeats`` timed calls."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def reference_compress_loop(x: np.ndarray, w: np.ndarray, compression: int):
    """The pre-vectorisation per-element merge loop (reference yardstick).

    This is the original ``QuantileSketch._compress`` inner pass, kept so
    the benchmark always measures the vectorised implementation against
    the exact code it replaced rather than a guess.
    """

    def k(q: float) -> float:
        q = min(1.0, max(0.0, q))
        return compression / (2.0 * np.pi) * np.arcsin(2.0 * q - 1.0)

    order = np.argsort(x, kind="stable")
    x, w = x[order], w[order]
    total = w.sum()
    means, sizes = [], []
    acc_mean, acc_weight = x[0], w[0]
    emitted = 0.0
    k_lo = k(0.0)
    for i in range(1, x.size):
        proposed = acc_weight + w[i]
        if k((emitted + proposed) / total) - k_lo <= 1.0:
            acc_mean += (x[i] - acc_mean) * (w[i] / proposed)
            acc_weight = proposed
        else:
            means.append(acc_mean)
            sizes.append(acc_weight)
            emitted += acc_weight
            k_lo = k(emitted / total)
            acc_mean = x[i]
            acc_weight = w[i]
    means.append(acc_mean)
    sizes.append(acc_weight)
    return np.asarray(means), np.asarray(sizes)


def bench_sketch_compress(values: int, repeats: int) -> dict:
    rng = np.random.default_rng(20110611)
    data = rng.lognormal(mean=3.0, sigma=1.4, size=values)

    def run_vectorised():
        sketch = QuantileSketch()
        sketch.update(data)
        sketch._compress()
        return sketch

    vec_seconds, sketch = best_of(run_vectorised, repeats)
    loop_seconds, (ref_means, ref_sizes) = best_of(
        lambda: reference_compress_loop(data.copy(), np.ones(data.size), sketch.compression),
        max(1, repeats - 1),
    )
    # Same data, same scale function: the two passes must land within the
    # sketch's own error bound of each other on every decile.  (Exact
    # centroid-for-centroid parity against the *vectorised* recurrence is
    # pinned bit-for-bit by tests/properties/test_property_compress.py;
    # versus this pre-vectorisation loop the span boundaries agree but
    # span means differ in the last ulp — incremental versus reduceat
    # accumulation — so the comparison here is tolerance-based.)
    probs = np.arange(0.1, 0.91, 0.1)
    exact = np.quantile(data, probs)
    estimated = np.asarray(sketch.quantile(probs))
    assert np.allclose(estimated, exact, rtol=0.02), "sketch drifted from exact"
    matches_reference = ref_means.size == sketch._means.size and np.allclose(
        ref_means, sketch._means, rtol=1e-9, atol=0.0
    )
    assert float(ref_sizes.sum()) == float(sketch._weights.sum())
    return {
        "values": values,
        "centroids": int(sketch.centroid_count()),
        "reference_centroids": int(ref_means.size),
        "centroids_match_reference": bool(matches_reference),
        "loop_seconds": loop_seconds,
        "vectorised_seconds": vec_seconds,
        "speedup": loop_seconds / vec_seconds if vec_seconds > 0 else None,
    }


def bench_csv_encode(matrix: np.ndarray, repeats: int) -> dict:
    def run_savetxt():
        buffer = io.BytesIO()
        np.savetxt(buffer, matrix, fmt=HOST_CSV_FMT)
        return buffer.getvalue()

    savetxt_seconds, reference = best_of(run_savetxt, max(1, repeats - 1))
    encode_seconds, encoded = best_of(
        lambda: encode_csv_rows(matrix, HOST_CSV_FMT), repeats
    )
    assert encoded == reference, "vectorised CSV encoder is not byte-identical"
    return {
        "rows": int(matrix.shape[0]),
        "bytes": len(encoded),
        "savetxt_seconds": savetxt_seconds,
        "encode_seconds": encode_seconds,
        "speedup": savetxt_seconds / encode_seconds if encode_seconds > 0 else None,
    }


def bench_hash_while_write(data: bytes, repeats: int) -> dict:
    directory = tempfile.mkdtemp(prefix="bench-hash-")
    path = os.path.join(directory, "segment.csv")
    try:
        def write_then_rehash():
            with open(path, "wb") as handle:
                handle.write(data)
            digest = hashlib.sha256()
            _hash_file_into(path, digest)
            return digest.hexdigest()

        def hash_as_written():
            digest = hashlib.sha256()
            with open(path, "wb") as handle:
                handle.write(data)
                digest.update(data)
            return digest.hexdigest()

        rehash_seconds, expected = best_of(write_then_rehash, repeats)
        inline_seconds, actual = best_of(hash_as_written, repeats)
        assert actual == expected, "hash-while-write digest mismatch"
    finally:
        try:
            os.remove(path)
        except OSError:
            pass
        os.rmdir(directory)
    return {
        "bytes": len(data),
        "write_then_rehash_seconds": rehash_seconds,
        "hash_while_write_seconds": inline_seconds,
        "speedup": rehash_seconds / inline_seconds if inline_seconds > 0 else None,
    }


def reference_quantile_class(chain, when: float, u: np.ndarray) -> np.ndarray:
    """``RatioChain.quantile_class`` as it was: tables per call, binary search."""
    if np.any((u < 0) | (u > 1)):
        raise ValueError("uniform variates must lie in [0, 1]")
    cumulative = np.cumsum(chain.probabilities(when))
    cumulative[-1] = 1.0
    idx = np.searchsorted(cumulative, u, side="left")
    idx = np.clip(idx, 0, chain.n_classes - 1)
    return np.asarray(chain.class_values, dtype=float)[idx]


def reference_block(generator, sampler, when: float, size: int, rng) -> HostPopulation:
    """The step-by-step Fig 11 composition ``generate`` replaced (yardstick)."""
    cores = reference_quantile_class(
        generator.core_model.chain, when, rng.random(size)
    ).astype(int)
    correlated = sampler.sample(size, rng)
    u_mem = stats.norm.cdf(correlated[:, 0])
    percore_mb = reference_quantile_class(generator.memory_model.chain, when, u_mem)
    whetstone, dhrystone = generator.speed_model.from_normals(
        when, correlated[:, 1], correlated[:, 2]
    )
    disk_gb = generator.disk_model.sample(when, size, rng)
    return HostPopulation(
        cores=cores.astype(float),
        memory_mb=percore_mb * cores,
        dhrystone=dhrystone,
        whetstone=whetstone,
        disk_gb=disk_gb,
    )


def bench_block_synthesis(generator, when: float, size: int, repeats: int) -> dict:
    seeds = block_seeds(np.random.SeedSequence(20110611), size)
    reference = functools.partial(
        reference_block,
        generator,
        CorrelatedNormalSampler(generator.parameters.correlation),
    )

    def blocks(generate):
        for index, seed in enumerate(seeds):
            lo = index * RNG_BLOCK_SIZE
            yield generate(
                when, min(RNG_BLOCK_SIZE, size - lo), np.random.default_rng(seed)
            )

    def run_blocks(generate):
        return sum(len(block) for block in blocks(generate))

    reference_seconds, _ = best_of(
        lambda: run_blocks(reference), max(1, repeats - 1)
    )
    seconds, rows = best_of(lambda: run_blocks(generator.generate), repeats)
    for block, expected in zip(blocks(generator.generate), blocks(reference)):
        for label in RESOURCE_LABELS:
            assert np.array_equal(
                block.column(label).view(np.uint64),
                expected.column(label).view(np.uint64),
            ), f"generated {label} differs from the reference composition"
    return {
        "hosts": int(rows),
        "blocks": len(seeds),
        "reference_seconds": reference_seconds,
        "seconds": seconds,
        "hosts_per_second": rows / seconds if seconds > 0 else None,
        "speedup": reference_seconds / seconds if seconds > 0 else None,
    }


# The stacked folds read the chunk as one ``(n, k)`` matrix.  ReducerSet
# hands every member the same ColumnCache, so members folding the same
# labels share one stack, as they did before the column folds.


class ReferenceMoments(MomentAccumulator):
    """The stacked moment fold: axis-0 mean and squared deviations."""

    def update(self, source):
        data = source.matrix(self.labels)
        mean_b = data.mean(axis=0)
        self._combine(data.shape[0], mean_b, np.square(data - mean_b).sum(axis=0))
        return self


class ReferenceCorrelation(CorrelationAccumulator):
    """The stacked co-moment fold: axis-0 mean, then ``D.T @ D``."""

    def update(self, source):
        data = source.matrix(self.labels)
        mean_b = data.mean(axis=0)
        deviations = data - mean_b
        self._combine(data.shape[0], mean_b, deviations.T @ deviations)
        return self


class ReferenceQuantiles(QuantileReducer):
    """The stacked sketch fold: one strided column of the stack per sketch."""

    def update(self, chunk):
        data = chunk.matrix(self.labels)
        for i, label in enumerate(self.labels):
            self._sketches[label].update(data[:, i])
        return self


#: The ``fleet summary`` reducer set and its stacked reference.
SUMMARY_FACTORIES = {
    "moments": MomentAccumulator,
    "correlation": CorrelationAccumulator,
    "quantiles": QuantileReducer,
}
REFERENCE_FACTORIES = {
    "moments": ReferenceMoments,
    "correlation": ReferenceCorrelation,
    "quantiles": ReferenceQuantiles,
}

#: Hosts per reducer update (the engine's default fold chunk), and chunks.
FOLD_CHUNK = 65_536
FOLD_CHUNKS = 8


def bench_reducer_fold(generator, when: float, repeats: int) -> dict:
    rng = np.random.default_rng(20110611)
    blocks = [generator.generate(when, FOLD_CHUNK, rng) for _ in range(FOLD_CHUNKS)]

    def fold(factories):
        reducers = ReducerSet.from_factories(factories)
        for block in blocks:
            reducers.update(block)
        return reducers

    reference_seconds, reference = best_of(
        lambda: fold(REFERENCE_FACTORIES), max(1, repeats - 1)
    )
    seconds, folded = best_of(lambda: fold(SUMMARY_FACTORIES), repeats)
    assert json.dumps(folded.to_state(), sort_keys=True) == json.dumps(
        reference.to_state(), sort_keys=True
    ), "column folds differ from the stacked reference"
    return {
        "hosts": FOLD_CHUNKS * FOLD_CHUNK,
        "chunk_hosts": FOLD_CHUNK,
        "reference_seconds": reference_seconds,
        "seconds": seconds,
        "speedup": reference_seconds / seconds if seconds > 0 else None,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=200_000,
                        help="hosts for the CSV/hash/synthesis sections")
    parser.add_argument("--sketch-values", type=int, default=1_000_000,
                        help="buffered values for the sketch-compress section")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per section (best is kept)")
    parser.add_argument("--seed", type=int, default=20110611)
    parser.add_argument("--date", default="2010-09-01")
    parser.add_argument("--json", default="BENCH_hotpaths.json", metavar="PATH",
                        help="write the machine-readable result here ('' disables)")
    args = parser.parse_args(argv)
    if args.size < 1 or args.sketch_values < 1 or args.repeats < 1:
        parser.error("--size, --sketch-values and --repeats must be positive")

    generator = CorrelatedHostGenerator()
    when = year_fraction(parse_date(args.date))
    print(
        f"hot-path benchmark: size={args.size} sketch_values={args.sketch_values} "
        f"repeats={args.repeats} cpus={os.cpu_count()}"
    )
    population = generator.generate(when, args.size, np.random.default_rng(args.seed))
    matrix = population.to_matrix()

    sections = {}
    sections["sketch_compress"] = bench_sketch_compress(args.sketch_values, args.repeats)
    sections["csv_encode"] = bench_csv_encode(matrix, args.repeats)
    sections["hash_while_write"] = bench_hash_while_write(
        encode_csv_rows(matrix, HOST_CSV_FMT), args.repeats
    )
    sections["block_synthesis"] = bench_block_synthesis(
        generator, when, args.size, args.repeats
    )
    sections["reducer_fold"] = bench_reducer_fold(generator, when, args.repeats)

    for name, section in sections.items():
        speedup = section.get("speedup")
        extra = f"  {speedup:.1f}x" if speedup else ""
        seconds = next(v for k, v in section.items() if k.endswith("seconds"))
        print(f"  {name:<18}: {seconds * 1000:9.2f} ms (reference){extra}")

    if args.json:
        payload = {
            "benchmark": "hotpaths",
            "size": args.size,
            "sketch_values": args.sketch_values,
            "repeats": args.repeats,
            "seed": args.seed,
            "cpus": os.cpu_count(),
            "sections": sections,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True, allow_nan=False)
            handle.write("\n")
        print(f"  wrote {args.json}")
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
