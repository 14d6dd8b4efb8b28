"""Tests for ratio chains (Tables IV/V machinery)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.laws import ExponentialLaw
from repro.core.parameters import ModelParameters
from repro.core.ratios import RatioChain


def simple_chain() -> RatioChain:
    """Two-law chain over three classes for hand-checkable arithmetic."""
    return RatioChain(
        class_values=(1.0, 2.0, 4.0),
        ratio_laws=(ExponentialLaw(a=2.0, b=0.0), ExponentialLaw(a=4.0, b=0.0)),
    )


class TestConstruction:
    def test_rejects_wrong_law_count(self):
        with pytest.raises(ValueError, match="ratio laws"):
            RatioChain((1.0, 2.0, 4.0), (ExponentialLaw(1.0, 0.0),))

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="two classes"):
            RatioChain((1.0,), ())

    def test_rejects_unsorted_classes(self):
        with pytest.raises(ValueError, match="ascending"):
            RatioChain((2.0, 1.0), (ExponentialLaw(1.0, 0.0),))


class TestProbabilities:
    def test_hand_computed_weights(self):
        # ratios: 1:2 = 2, 2:4 = 4  =>  weights (8, 4, 1), probs (8/13, 4/13, 1/13)
        chain = simple_chain()
        np.testing.assert_allclose(chain.weights(0.0), [8.0, 4.0, 1.0])
        np.testing.assert_allclose(
            chain.probabilities(2006.0), [8 / 13, 4 / 13, 1 / 13]
        )

    def test_probabilities_sum_to_one(self):
        chain = ModelParameters.paper_reference().core_chain
        for year in (2006.0, 2008.5, 2010.667, 2014.0):
            assert chain.probabilities(year).sum() == pytest.approx(1.0)

    def test_mean_matches_paper_2006_core_average(self):
        # Fig 2: average cores in 2006 was 1.28; the Table IV chain gives 1.27.
        chain = ModelParameters.paper_reference().core_chain
        assert chain.mean(2006.0) == pytest.approx(1.28, abs=0.02)

    def test_mean_matches_paper_2014_core_prediction(self):
        # §VI-C: predicted average cores in 2014 is 4.6.
        chain = ModelParameters.paper_reference().core_chain
        assert chain.mean(2014.0) == pytest.approx(4.6, abs=0.1)

    def test_multicore_share_grows_monotonically(self):
        chain = ModelParameters.paper_reference().core_chain
        years = np.linspace(2006.0, 2014.0, 17)
        shares = [chain.fraction_at_least(y, 2.0) for y in years]
        assert all(b > a for a, b in zip(shares, shares[1:]))

    def test_variance_nonnegative(self):
        chain = ModelParameters.paper_reference().core_chain
        assert chain.variance(2010.0) >= 0.0


class TestQuantiles:
    def test_quantile_class_monotone_in_u(self):
        chain = simple_chain()
        classes = chain.quantile_class(2006.0, np.array([0.0, 0.5, 0.7, 0.99]))
        assert np.all(np.diff(classes) >= 0)

    def test_quantile_class_edges(self):
        chain = simple_chain()
        assert chain.quantile_class(2006.0, 0.0)[0] == 1.0
        assert chain.quantile_class(2006.0, 1.0)[0] == 4.0

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            simple_chain().quantile_class(2006.0, 1.5)

    def test_quantile_rejects_scalar_nan(self):
        chain = ModelParameters.paper_reference().core_chain
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            chain.quantile_class(2010.0, float("nan"))

    def test_quantile_rejects_nan_inside_an_array(self):
        # NaN used to slip past the range check and land in the top class.
        chain = ModelParameters.paper_reference().core_chain
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            chain.quantile_class(2010.0, np.array([np.nan, 0.5]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            chain.select_classes(chain.cumulative(2010.0), np.array([0.5, np.nan]))

    def test_sampling_matches_probabilities(self, rng):
        chain = ModelParameters.paper_reference().core_chain
        draws = chain.sample(2010.667, 100_000, rng)
        probs = chain.probabilities(2010.667)
        for value, prob in zip(chain.class_values, probs):
            frequency = float((draws == value).mean())
            assert frequency == pytest.approx(prob, abs=0.01)


def searchsorted_classes(chain: RatioChain, cumulative: np.ndarray, u) -> np.ndarray:
    """The binary-search class selection :meth:`RatioChain.select_classes` replaced."""
    idx = np.searchsorted(cumulative, np.atleast_1d(u), side="left")
    idx = np.clip(idx, 0, chain.n_classes - 1)
    return np.asarray(chain.class_values, dtype=float)[idx]


def edge_uniforms(cumulative: np.ndarray) -> np.ndarray:
    """Every threshold, its float neighbours, and the ends of [0, 1]."""
    thresholds = cumulative[(cumulative >= 0) & (cumulative <= 1)]
    points = [
        thresholds,
        np.nextafter(thresholds, 0.0),
        np.nextafter(thresholds, 1.0),
        [0.0, 1.0, 5e-324, np.nextafter(1.0, 0.0)],
    ]
    return np.concatenate([np.asarray(p, dtype=float) for p in points])


class TestClassSelection:
    """The threshold count selects the same class as ``searchsorted`` + clip."""

    PAPER = ModelParameters.paper_reference()
    CHAINS = {
        "cores": PAPER.core_chain,
        "percore": PAPER.percore_memory_chain,
        "percore-2048": PAPER.percore_memory_chain.truncated(2048.0),
    }

    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_matches_searchsorted_at_every_threshold(self, name):
        chain = self.CHAINS[name]
        rng = np.random.default_rng(101)
        for year in np.linspace(2000.0, 2020.0, 101):
            cumulative = chain.cumulative(year)
            u = np.concatenate([edge_uniforms(cumulative), rng.random(256)])
            np.testing.assert_array_equal(
                chain.select_classes(cumulative, u),
                searchsorted_classes(chain, cumulative, u),
            )

    def test_repeated_thresholds(self):
        chain = RatioChain(
            (1.0, 2.0, 4.0, 8.0, 16.0), tuple(ExponentialLaw(1.0, 0.0) for _ in range(4))
        )
        for cumulative in (
            np.array([0.25, 0.25, 0.25, 0.5, 1.0]),
            np.array([0.0, 0.0, 0.5, 1.0, 1.0]),
            np.array([0.5, 1.0, 1.0, 1.0, 1.0]),
        ):
            u = edge_uniforms(cumulative)
            np.testing.assert_array_equal(
                chain.select_classes(cumulative, u),
                searchsorted_classes(chain, cumulative, u),
            )

    def test_running_sum_past_one(self):
        # A starved top class: the running sum rounds to 1.0000000000000002
        # one entry before the forced final 1.0, so the table dips at the end.
        chain = RatioChain(
            (1.0, 2.0, 4.0, 8.0),
            (
                ExponentialLaw(54.99075661406077, 0.0),
                ExponentialLaw(18.340628601973464, 0.0),
                ExponentialLaw(102554329767319.86, 0.0),
            ),
        )
        cumulative = chain.cumulative(2006.0)
        assert cumulative[-2] > cumulative[-1] == 1.0
        u = edge_uniforms(cumulative)
        np.testing.assert_array_equal(
            chain.select_classes(cumulative, u),
            searchsorted_classes(chain, cumulative, u),
        )

    def test_quantile_class_is_select_on_the_date_table(self):
        chain = self.CHAINS["percore"]
        u = np.random.default_rng(5).random(1000)
        np.testing.assert_array_equal(
            chain.quantile_class(2011.5, u),
            chain.select_classes(chain.cumulative(2011.5), u),
        )

    def test_cumulative_ends_at_one(self):
        for chain in self.CHAINS.values():
            for year in (1990.0, 2006.0, 2010.667, 2030.0):
                cumulative = chain.cumulative(year)
                assert cumulative[-1] == 1.0
                assert np.all(np.diff(cumulative[:-1]) >= 0)


class TestGrowthExponents:
    def test_top_class_exponent_zero(self):
        chain = ModelParameters.paper_reference().core_chain
        assert chain.class_growth_exponents()[-1] == 0.0

    def test_exponents_accumulate_ratio_slopes(self):
        chain = simple_chain()
        np.testing.assert_allclose(chain.class_growth_exponents(), [0.0, 0.0, 0.0])
        sloped = RatioChain(
            (1.0, 2.0, 4.0),
            (ExponentialLaw(1.0, -0.5), ExponentialLaw(1.0, -0.3)),
        )
        np.testing.assert_allclose(sloped.class_growth_exponents(), [-0.8, -0.3, 0.0])


class TestSerialisation:
    def test_dict_round_trip(self):
        chain = ModelParameters.paper_reference().percore_memory_chain
        restored = RatioChain.from_dict(chain.to_dict())
        assert restored.class_values == chain.class_values
        for a, b in zip(restored.ratio_laws, chain.ratio_laws):
            assert a == b
