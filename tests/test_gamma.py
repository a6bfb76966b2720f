"""Gamma numerics: sampling, log density and cdf, closed-form TV, envelope, median facts."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from gibbscert.gamma import (
    check_density_envelope,
    gamma_cdf,
    gamma_logpdf,
    gamma_tv,
    median_probabilities,
)
from gibbscert.rng import RngStream, mix_seed

from oracles import tv_by_quadrature

pos = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)


class TestSampling:
    def test_moment_mean_gamma_2_1(self):
        rng = RngStream(101)
        draws = rng.gamma(2.0, size=1_000_000)
        se = math.sqrt(2.0 / len(draws))  # Var[Gamma(2,1)] = 2
        assert abs(draws.mean() - 2.0) <= 3 * se

    def test_moment_variance_small_shape(self):
        rng = RngStream(103)
        draws = rng.gamma(0.5, size=1_000_000)
        n = len(draws)
        var = draws.var(ddof=1)
        # SE of the sample variance from fourth-moment normal approximation
        m4 = np.mean((draws - draws.mean()) ** 4)
        se = math.sqrt((m4 - var ** 2) / n)
        assert abs(var - 0.5) <= 3 * se

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0, 7.0, 9.0])
    def test_ks_against_cdf(self, alpha):
        rng = RngStream(104, stream_id=int(alpha * 10))
        draws = rng.gamma(alpha, size=100_000)
        res = stats.kstest(draws, stats.gamma(a=alpha).cdf)
        assert res.pvalue >= 1e-3

    def test_streams_reproducible(self):
        a = RngStream(7, stream_id=3).gamma(2.5, size=100)
        b = RngStream(7, stream_id=3).gamma(2.5, size=100)
        assert np.array_equal(a, b)
        c = RngStream(7, stream_id=4).gamma(2.5, size=100)
        assert not np.array_equal(a, c)

    def test_position_advances(self):
        rng = RngStream(7)
        assert rng.position == 0
        rng.gamma(2.0, size=10)
        assert rng.position == 10
        rng.gamma(1.0)
        assert rng.position == 11

    def test_mix_seed_fixed_mapping(self):
        # regression pin: the derivation must never change silently
        assert mix_seed(0, 0) == mix_seed(0, 0)
        assert mix_seed(1, 0) != mix_seed(0, 1)


class TestPdfCdf:
    def test_exponential_at_origin(self):
        assert gamma_logpdf(0.0, 1.0, 1.0) == 0.0
        assert gamma_cdf(0.0, 1.0, 1.0) == 0.0

    def test_exponential_closed_form(self):
        assert math.exp(gamma_logpdf(1.0, 1.0, 1.0)) == pytest.approx(math.exp(-1.0), abs=1e-14)
        assert gamma_cdf(1.0, 1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)

    def test_shape2_closed_form(self):
        assert gamma_cdf(2.0, 2.0, 1.0) == pytest.approx(1.0 - 3.0 * math.exp(-2.0), abs=1e-12)
        assert math.exp(gamma_logpdf(2.0, 2.0, 1.0)) == pytest.approx(2.0 * math.exp(-2.0), abs=1e-14)

    def test_cdf_accuracy_across_shapes(self):
        # piecewise-exact targets: integer shapes have closed-form CDFs
        for k in (1, 2, 5, 20, 100):
            y = k * 1.3
            exact = 1.0 - math.exp(-y) * sum(y ** j / math.factorial(j) for j in range(k))
            assert gamma_cdf(y, float(k), 1.0) == pytest.approx(exact, abs=1e-12)


class TestTotalVariation:
    def test_exponential_rates_1_2(self):
        tv, crossing = gamma_tv(1.0, 1.0, 2.0)
        assert crossing == pytest.approx(math.log(2.0), abs=1e-14)
        assert tv == pytest.approx(0.25, abs=1e-12)

    def test_equal_rates(self):
        tv, _ = gamma_tv(3.0, 2.0, 2.0)
        assert tv == 0.0

    def test_shape2_against_quadrature(self):
        tv, _ = gamma_tv(2.0, 1.0, 2.0)
        assert tv == pytest.approx(0.3607867951, abs=1e-9)  # frozen quadrature value
        assert tv == pytest.approx(tv_by_quadrature(2.0, 1.0, 2.0), abs=1e-8)

    @pytest.mark.parametrize("alpha,r1,r2", [
        (0.5, 1.0, 3.0), (1.0, 2.0, 2.5), (3.0, 0.5, 4.0), (7.0, 1.0, 1.1), (9.0, 5.0, 1.0),
    ])
    def test_quadrature_agreement_grid(self, alpha, r1, r2):
        tv, _ = gamma_tv(alpha, r1, r2)
        assert tv == pytest.approx(tv_by_quadrature(alpha, r1, r2), abs=1e-8)

    @given(alpha=pos, r1=pos, r2=pos)
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_symmetry_and_range(self, alpha, r1, r2):
        tv12, _ = gamma_tv(alpha, r1, r2)
        tv21, _ = gamma_tv(alpha, r2, r1)
        assert tv12 == pytest.approx(tv21, abs=1e-12)
        assert 0.0 <= tv12 <= 1.0
        assert (tv12 == 0.0) == (r1 == r2)

    def test_increasing_in_log_ratio(self):
        for alpha in (0.5, 1.0, 2.0, 5.0):
            ratios = np.exp(np.linspace(0.01, 3.0, 40))
            tvs = [gamma_tv(alpha, 1.0, float(r))[0] for r in ratios]
            assert all(b > a for a, b in zip(tvs, tvs[1:]))

    def test_vectorized_matches_scalar(self):
        r2 = np.array([1.5, 2.0, 3.0])
        tv_vec, _ = gamma_tv(2.0, 1.0, r2)
        for i, r in enumerate(r2):
            assert tv_vec[i] == gamma_tv(2.0, 1.0, float(r))[0]


class TestEnvelope:
    def test_spread_rates(self):
        grid = np.linspace(0.0, 20.0, 10_000)
        assert check_density_envelope(3.0, (1.0, 2.0, 3.0, 4.0), grid)

    def test_tight_rates_and_tv_consequence(self):
        grid = np.linspace(0.0, 30.0, 5_000)
        assert check_density_envelope(1.0, (1.0, 1.1, 1.2, 1.3), grid)
        tv_inner, _ = gamma_tv(1.0, 1.1, 1.2)
        tv_outer, _ = gamma_tv(1.0, 1.0, 1.3)
        assert tv_inner <= tv_outer

    def test_degenerate_grid(self):
        assert check_density_envelope(2.0, (1.0, 2.0, 3.0, 4.0), [0.0])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            check_density_envelope(2.0, (1.0, 3.0, 2.0, 4.0), [1.0])


class TestMedianFacts:
    def test_exponential(self):
        p1, p2 = median_probabilities(1.0)
        assert p1 == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
        assert p2 == pytest.approx(math.exp(-2.0 / 3.0), abs=1e-12)

    def test_shape2(self):
        p1, p2 = median_probabilities(2.0)
        assert p1 == pytest.approx(1.0 - 3.0 * math.exp(-2.0), abs=1e-12)
        assert p2 == pytest.approx(math.exp(-5.0 / 3.0) * (1.0 + 5.0 / 3.0), abs=1e-12)

    def test_small_shape_clamps(self):
        _, p2 = median_probabilities(0.25)
        assert p2 == 1.0

    def test_at_least_half_on_log_grid(self):
        for alpha in np.logspace(math.log10(0.05), math.log10(50.0), 100):
            p1, p2 = median_probabilities(float(alpha))
            assert p1 >= 0.5
            assert p2 >= 0.5
