"""Uniform (monotone) coupling and one-shot maximal coupling."""
import math

import numpy as np
import pytest
from scipy import stats

from gibbscert.chain import draw_block, reduced_rates, step
from gibbscert.coupling import (
    envelope_init,
    maximal_gamma_couple,
    one_shot_step,
)
from gibbscert.gamma import gamma_tv
from gibbscert.rng import RngStream


def block(*gammas):
    return tuple(map(float, gammas))


class TestEnvelope:
    def test_mixed_corners(self):
        env = envelope_init((1.0, 2.0), (0.5, 4.0))
        assert env.u0 == (0.5, 0.5)
        assert env.w0 == (4.0, 4.0)
        assert env.r0 == 8.0
        assert env.j0 == 2.0

    def test_degenerate(self):
        env = envelope_init((1.0, 1.0), (1.0, 1.0))
        assert env.r0 == 1.0
        assert env.j0 == 2.5

    def test_wide(self):
        env = envelope_init((1.0, 1.0), (1.0, 1000.0))
        assert env.r0 == 1000.0
        assert env.j0 == 2.5

    def test_brackets_inputs(self):
        env = envelope_init((0.9, 2.3), (1.7, 0.4))
        for s in ((0.9, 2.3), (1.7, 0.4)):
            assert env.u0[0] <= s[0] <= env.w0[0]
            assert env.u0[1] <= s[1] <= env.w0[1]


class TestUniformCoupling:
    def test_equal_states_stay_equal(self, p4):
        g = draw_block(p4, RngStream(3))
        a, b = step((1.3, 0.6), g, p4), step((1.3, 0.6), g, p4)
        assert a == b

    def test_hand_values(self, p4):
        g = block(1, 1, 1, 1)
        u1, w1 = step((1.0, 1.0), g, p4), step((2.0, 2.0), g, p4)
        assert u1 == pytest.approx((1.2, 2 / 7))
        assert w1 == pytest.approx((2.0, 4 / 13))

    def test_monotone_preservation_bulk(self, p4):
        # 10^4 random ordered pairs and blocks; order never violated (exact)
        rng = RngStream(29)
        n = 10_000
        u2 = rng.gamma(2.0, size=n)
        u4 = rng.gamma(2.0, size=n)
        w2 = u2 + rng.gamma(1.0, size=n)
        w4 = u4 + rng.gamma(1.0, size=n)
        g = draw_block(p4, rng, size=n)
        (a2, a4), (b2, b4) = step((u2, u4), g, p4), step((w2, w4), g, p4)
        assert np.all(a2 <= b2)
        assert np.all(a4 <= b4)

    def test_squeeze_through_time(self, p4):
        # envelope chains bracket both original chains for 10^3 steps (exact)
        rng = RngStream(31)
        n = 200
        U = (np.full(n, 1.0), np.full(n, 2.0))
        W = (np.full(n, 0.5), np.full(n, 4.0))
        env = envelope_init((1.0, 2.0), (0.5, 4.0))
        lo = (np.full(n, env.u0[0]), np.full(n, env.u0[1]))
        hi = (np.full(n, env.w0[0]), np.full(n, env.w0[1]))
        for t in range(1_000):
            g = draw_block(p4, rng, size=n)
            lo = step(lo, g, p4)
            hi = step(hi, g, p4)
            U = step(U, g, p4)
            W = step(W, g, p4)
            for s in (U, W):
                assert np.all(lo[0] <= s[0]) and np.all(s[0] <= hi[0])
                assert np.all(lo[1] <= s[1]) and np.all(s[1] <= hi[1])


class TestMaximalGammaCouple:
    def test_coalescence_frequency(self):
        rng = RngStream(37)
        _, _, co = maximal_gamma_couple(1.0, 2.0, 1.0, rng, size=100_000)
        target = 1.0 - gamma_tv(1.0, 2.0, 1.0)[0]
        se = math.sqrt(target * (1 - target) / co.size)
        assert abs(co.mean() - target) <= 3 * se

    def test_equal_rates_always_coalesce(self):
        rng = RngStream(38)
        y_u, y_w, co = maximal_gamma_couple(2.5, 1.7, 1.7, rng, size=1_000)
        assert np.all(co)
        assert np.array_equal(y_u, y_w)

    def test_marginals_ks(self):
        rng = RngStream(39)
        y_u, y_w, _ = maximal_gamma_couple(3.0, 2.0, 0.7, rng, size=50_000)
        assert stats.kstest(y_u, stats.gamma(a=3.0, scale=1 / 2.0).cdf).pvalue >= 1e-3
        assert stats.kstest(y_w, stats.gamma(a=3.0, scale=1 / 0.7).cdf).pvalue >= 1e-3

    def test_coalesced_implies_equal(self):
        rng = RngStream(40)
        y_u, y_w, co = maximal_gamma_couple(1.5, 3.0, 1.0, rng, size=10_000)
        assert np.all(y_u[co] == y_w[co])
        assert np.all(y_u[~co] != y_w[~co])

    def test_scalar_api(self):
        y_u, y_w, co = maximal_gamma_couple(2.0, 1.0, 2.0, RngStream(41))
        assert isinstance(y_u, float) and isinstance(y_w, float) and isinstance(co, bool)


class TestOneShot:
    def test_equal_pairs_always_coalesce(self, p4):
        rng = RngStream(43)
        n = 500
        u = (np.full(n, 0.9), np.full(n, 1.7))
        g13 = (rng.gamma(3.0, size=n), rng.gamma(7.0, size=n))
        out = one_shot_step(u, u, (u, u), g13, p4, rng)
        assert np.all(out.coalesced_all)
        assert np.array_equal(out.u_next[0], out.w_next[0])
        assert np.array_equal(out.inner_next[0][0], out.inner_next[1][0])

    def test_rejects_unordered_inner(self, p4):
        rng = RngStream(44)
        u = (np.array([1.0]), np.array([1.0]))
        w = (np.array([2.0]), np.array([2.0]))
        bad = (np.array([5.0]), np.array([1.5]))
        with pytest.raises(ValueError, match="between"):
            one_shot_step(u, w, (bad, bad), g13=(np.array([1.0]), np.array([1.0])), p=p4, rng=rng)

    def test_rejects_unordered_outer(self, p4):
        rng = RngStream(44)
        with pytest.raises(ValueError, match="componentwise"):
            one_shot_step((2.0, 2.0), (1.0, 1.0), None, (1.0, 1.0), p4, rng)

    def test_frequency_matches_conditional_overlap(self, p4):
        # P[u' != w'] within 3 sigma of E[1 - prod_i overlap_i]
        rng = RngStream(45)
        n = 100_000
        u = (np.full(n, 1.0), np.full(n, 1.0))
        w = (np.full(n, 2.0), np.full(n, 2.0))
        g13 = (rng.gamma(3.0, size=n), rng.gamma(7.0, size=n))
        out = one_shot_step(u, w, None, g13, p4, rng)
        miss = ~(out.coalesced[0] & out.coalesced[1])
        cond = 1.0 - out.overlap[0] * out.overlap[1]
        diff = miss.astype(float) - cond
        se = diff.std(ddof=1) / math.sqrt(n)
        assert abs(diff.mean()) <= 3 * se

    def test_ratio_power_bound(self, p4):
        # P[u' != w'] <= 1 - R^{-(a2+a3+a4+a5)} + 3 sigma with R the max ratio
        rng = RngStream(46)
        n = 100_000
        u = (np.full(n, 1.1), np.full(n, 0.8))
        w = (np.full(n, 1.4), np.full(n, 1.1))
        R = max(1.4 / 1.1, 1.1 / 0.8)
        g13 = (rng.gamma(3.0, size=n), rng.gamma(7.0, size=n))
        out = one_shot_step(u, w, None, g13, p4, rng)
        miss = (~(out.coalesced[0] & out.coalesced[1])).mean()
        target = 1.0 - R ** (-p4.sum_tail)
        se = math.sqrt(miss * (1 - miss) / n)
        assert miss <= target + 3 * se

    def test_inner_subset_property_every_trial(self, p4):
        rng = RngStream(47)
        n = 50_000
        u = (np.full(n, 0.5), np.full(n, 0.5))
        w = (np.full(n, 4.0), np.full(n, 4.0))
        U = (np.full(n, 1.0), np.full(n, 2.0))
        W = (np.full(n, 0.5), np.full(n, 4.0))
        g13 = (rng.gamma(3.0, size=n), rng.gamma(7.0, size=n))
        out = one_shot_step(u, w, (U, W), g13, p4, rng)
        for i in (0, 1):
            inner_differ = out.inner_next[0][i] != out.inner_next[1][i]
            outer_differ = out.u_next[i] != out.w_next[i]
            assert np.all(~inner_differ | outer_differ)

    def test_inner_marginals_exact(self, p4):
        # the bracketed chain's coordinate stays gamma with its own rate
        rng = RngStream(48)
        n = 60_000
        u = (np.full(n, 0.5), np.full(n, 0.5))
        w = (np.full(n, 4.0), np.full(n, 4.0))
        U = (np.full(n, 1.0), np.full(n, 2.0))
        g13 = (rng.gamma(3.0, size=n), rng.gamma(7.0, size=n))
        out = one_shot_step(u, w, (U, U), g13, p4, rng)
        # conditional rates vary per trial; standardize by the realized rate
        rU2, _ = reduced_rates(U, g13, p4)
        standardized = out.inner_next[0][0] * rU2
        assert stats.kstest(standardized, stats.gamma(a=5.0).cdf).pvalue >= 1e-3
