"""Tests for the correlated host generator (Fig 11 / Fig 12 / Table VIII)."""

from __future__ import annotations

import datetime as dt
import pickle
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from repro.core.correlation import CorrelatedNormalSampler
from repro.core.generator import CorrelatedHostGenerator
from repro.core.laws import ExponentialLaw
from repro.core.parameters import ModelParameters
from repro.core.ratios import RatioChain
from repro.hosts.host import Host
from repro.hosts.population import RESOURCE_LABELS, HostPopulation

SEPT_2010 = 2010.667


@pytest.fixture(scope="module")
def generated_sept2010(paper_generator_module):
    rng = np.random.default_rng(1234)
    return paper_generator_module.generate(SEPT_2010, 60_000, rng)


@pytest.fixture(scope="module")
def paper_generator_module():
    return CorrelatedHostGenerator()


class TestBasics:
    def test_size_zero(self, paper_generator, rng):
        assert len(paper_generator.generate(2010.0, 0, rng)) == 0

    def test_negative_size_rejected(self, paper_generator, rng):
        with pytest.raises(ValueError, match="non-negative"):
            paper_generator.generate(2010.0, -5, rng)

    def test_generate_host_returns_valid_record(self, paper_generator, rng):
        host = paper_generator.generate_host(2010.667, rng)
        assert isinstance(host, Host)
        assert host.cores in {1, 2, 4, 8, 16}

    def test_deterministic_with_seed(self, paper_generator):
        a = paper_generator.generate(2009.0, 100, np.random.default_rng(7))
        b = paper_generator.generate(2009.0, 100, np.random.default_rng(7))
        np.testing.assert_array_equal(a.cores, b.cores)
        np.testing.assert_array_equal(a.disk_gb, b.disk_gb)

    def test_accepts_dates(self, paper_generator, rng):
        import datetime as dt

        pop = paper_generator.generate(dt.date(2010, 9, 1), 50, rng)
        assert len(pop) == 50


class TestInvariants:
    def test_cores_are_modelled_powers_of_two(self, generated_sept2010):
        assert set(np.unique(generated_sept2010.cores)) <= {1.0, 2.0, 4.0, 8.0, 16.0}

    def test_memory_is_percore_class_times_cores(self, generated_sept2010, paper_params):
        percore = generated_sept2010.memory_mb / generated_sept2010.cores
        classes = set(paper_params.percore_memory_chain.class_values)
        assert set(np.unique(percore)) <= classes

    def test_speeds_positive(self, generated_sept2010):
        assert np.all(generated_sept2010.dhrystone > 0)
        assert np.all(generated_sept2010.whetstone > 0)

    def test_disk_positive(self, generated_sept2010):
        assert np.all(generated_sept2010.disk_gb > 0)


class TestFig12Moments:
    """The generated September 2010 columns of Fig 12."""

    def test_cores_mean(self, generated_sept2010):
        assert generated_sept2010.cores.mean() == pytest.approx(2.453, abs=0.06)

    def test_memory_mean(self, generated_sept2010):
        # Paper generated mean 3080 MB, σ 2741 MB; the §V-E six-value
        # per-core set gives the analytic (2863, 2725) — the σ match is what
        # pins down the truncation choice (see DESIGN.md).
        assert generated_sept2010.memory_mb.mean() == pytest.approx(2863.0, rel=0.05)
        assert generated_sept2010.memory_mb.std() == pytest.approx(2725.0, rel=0.06)

    def test_whetstone_moments(self, generated_sept2010):
        assert generated_sept2010.whetstone.mean() == pytest.approx(2033.0, rel=0.02)
        assert generated_sept2010.whetstone.std() == pytest.approx(740.0, rel=0.05)

    def test_dhrystone_moments(self, generated_sept2010):
        # Mean matches the paper's generated 4644.  For the std the paper
        # reports 2175, which is inconsistent with its own Table VI law
        # (sqrt(1.379e6 * e^{0.3313 * 4.667}) = 2544); our generator follows
        # the law and lands at ≈ 2460 after the positivity floor.
        assert generated_sept2010.dhrystone.mean() == pytest.approx(4644.0, rel=0.02)
        assert generated_sept2010.dhrystone.std() == pytest.approx(2460.0, rel=0.05)

    def test_disk_moments(self, generated_sept2010):
        assert generated_sept2010.disk_gb.mean() == pytest.approx(111.0, rel=0.05)
        assert generated_sept2010.disk_gb.std() == pytest.approx(178.4, rel=0.10)


class TestTableVIIICorrelations:
    """Correlations between generated resources (Table VIII)."""

    def test_cores_memory_strongly_correlated(self, generated_sept2010):
        matrix = generated_sept2010.correlation_matrix()
        assert matrix.get("cores", "memory_mb") == pytest.approx(0.727, abs=0.08)

    def test_cores_independent_of_speed_and_disk(self, generated_sept2010):
        matrix = generated_sept2010.correlation_matrix()
        assert abs(matrix.get("cores", "whetstone")) < 0.05
        assert abs(matrix.get("cores", "disk_gb")) < 0.05

    def test_benchmarks_correlated(self, generated_sept2010):
        matrix = generated_sept2010.correlation_matrix()
        # Continuous-model coupling is 0.639; the paper's own generated
        # value (0.505) is lower due to discretisation effects.
        assert matrix.get("whetstone", "dhrystone") == pytest.approx(0.6, abs=0.1)

    def test_memcore_speed_correlation_preserved(self, generated_sept2010):
        matrix = generated_sept2010.correlation_matrix()
        assert matrix.get("mem_per_core", "whetstone") == pytest.approx(0.24, abs=0.08)
        assert matrix.get("mem_per_core", "dhrystone") == pytest.approx(0.27, abs=0.08)

    def test_disk_uncorrelated_with_everything(self, generated_sept2010):
        matrix = generated_sept2010.correlation_matrix()
        for other in ("cores", "memory_mb", "mem_per_core", "whetstone", "dhrystone"):
            assert abs(matrix.get("disk_gb", other)) < 0.05


class TestComponentAccess:
    def test_exposes_component_models(self, paper_generator):
        assert paper_generator.core_model.mean(2010.0) > 1
        assert paper_generator.memory_model.mean_mb(2010.0) > 256
        assert paper_generator.speed_model.dhrystone_moments(2010.0)[0] > 0
        assert paper_generator.disk_model.moments(2010.0)[0] > 0
        assert paper_generator.parameters is not None


def reference_generate(generator, when, size: int, rng) -> HostPopulation:
    """The step-by-step Fig 11 composition ``generate`` replaced.

    Each step goes through its component model and resolves the date
    afresh, with ``scipy.stats.norm.cdf`` as Φ: the kernel must draw the
    same numbers in the same order and produce the same bits.
    """
    cores = generator.core_model.sample(when, size, rng)
    correlated = CorrelatedNormalSampler(generator.parameters.correlation).sample(
        size, rng
    )
    u_mem = stats.norm.cdf(correlated[:, 0])
    percore_mb = generator.memory_model.from_uniform(when, u_mem)
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


def assert_same_bits(actual: HostPopulation, expected: HostPopulation) -> None:
    for label in RESOURCE_LABELS:
        a = np.ascontiguousarray(actual.column(label), dtype=np.float64)
        b = np.ascontiguousarray(expected.column(label), dtype=np.float64)
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64), err_msg=label)


def non_reference_parameters() -> ModelParameters:
    """Other laws: a steeper 1:2 core law, new couplings, a larger disk law."""
    base = ModelParameters.paper_reference()
    cores = RatioChain(
        base.core_chain.class_values,
        (ExponentialLaw(40.0, -0.9),) + base.core_chain.ratio_laws[1:],
    )
    return replace(
        base.with_correlation(
            [[1.0, -0.4, 0.1], [-0.4, 1.0, 0.2], [0.1, 0.2, 1.0]]
        ),
        core_chain=cores,
        disk_mean=ExponentialLaw(80.0, 0.3),
    )


def check_against_reference(generator, when, size: int, seed: int) -> None:
    expected = reference_generate(generator, when, size, np.random.default_rng(seed))
    actual = generator.generate(when, size, np.random.default_rng(seed))
    assert_same_bits(actual, expected)


class TestReferenceComposition:
    """``generate`` is bit-identical to the composition of its components."""

    @pytest.mark.parametrize(
        "when",
        [SEPT_2010, 2008.25, dt.date(2011, 3, 14), 2003.5, dt.date(2016, 11, 2)],
        ids=["sept-2010", "2008.25", "date-2011", "before-2006", "after-2014"],
    )
    def test_dates(self, paper_generator, when):
        check_against_reference(paper_generator, when, 20_000, 11)

    @pytest.mark.parametrize("size", [0, 1, 4095, 4096])
    def test_block_sizes(self, paper_generator, size):
        check_against_reference(paper_generator, SEPT_2010, size, 12)

    def test_untruncated_memory_chain(self):
        generator = CorrelatedHostGenerator(percore_max_mb=None)
        for when in (2007.0, dt.date(2013, 8, 1)):
            check_against_reference(generator, when, 8192, 13)

    def test_non_reference_parameters(self):
        generator = CorrelatedHostGenerator(non_reference_parameters())
        for when in (2006.5, SEPT_2010, 2015.25):
            check_against_reference(generator, when, 8192, 14)

    def test_alternating_dates_on_one_instance(self):
        # Each call must use its own date's tables, never the last call's.
        generator = CorrelatedHostGenerator()
        dates = [2006.0, dt.date(2014, 6, 30), 2006.0, 2006.0, dt.date(2014, 6, 30)]
        for seed, when in enumerate(dates):
            check_against_reference(generator, when, 4096, seed)

    def test_warm_generator_after_pickle(self):
        generator = CorrelatedHostGenerator()
        generator.generate(2009.0, 16, np.random.default_rng(0))
        clone = pickle.loads(pickle.dumps(generator))
        for when in (2009.0, 2012.0, 2009.0):
            check_against_reference(clone, when, 4096, 15)


class TestSharedAcrossThreads:
    def test_each_thread_gets_its_own_dates_tables(self):
        # One generator, more threads than cores, each at its own date: a
        # key stored apart from its tables would hand one thread another
        # date's classes.
        generator = CorrelatedHostGenerator()
        dates = [2006.0, 2009.5, dt.date(2012, 1, 1), 2015.0] * 2
        expected = [
            reference_generate(generator, when, 16, np.random.default_rng(i))
            for i, when in enumerate(dates)
        ]
        failures = []

        def worker(i, when):
            for _ in range(300):
                actual = generator.generate(when, 16, np.random.default_rng(i))
                try:
                    assert_same_bits(actual, expected[i])
                except AssertionError as exc:
                    failures.append((when, exc))
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i, when))
                for i, when in enumerate(dates)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestNormalsToUniforms:
    def test_same_bits_as_norm_cdf(self):
        z = np.concatenate(
            [
                np.random.default_rng(16).standard_normal(200_000) * 3.0,
                [0.0, -0.0, np.inf, -np.inf, 40.0, -40.0, 5e-324, -5e-324],
            ]
        )
        actual = CorrelatedNormalSampler.normals_to_uniforms(z)
        expected = stats.norm.cdf(z)
        np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))

    def test_scalar_and_strided_inputs(self):
        z = np.random.default_rng(17).standard_normal((64, 3))
        column = z[:, 0]
        assert not column.flags.contiguous
        np.testing.assert_array_equal(
            CorrelatedNormalSampler.normals_to_uniforms(column), stats.norm.cdf(column)
        )
        assert CorrelatedNormalSampler.normals_to_uniforms(0.5) == stats.norm.cdf(0.5)
