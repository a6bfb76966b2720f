"""Envelope start, uniform (monotone) coupling and the one-shot coalescence attempt."""
import math

import numpy as np
import pytest
from scipy import stats

from gibbscert.chain import draw_block, step
from gibbscert.coupling import envelope_init, one_shot_attempt
from gibbscert.gamma import gamma_tv
from gibbscert.rng import RngStream
from gibbscert.verify import _one_shot_indicators


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
    """The one-shot attempt coalesces with the maximal-coupling probability 1 - TV."""

    def test_coalescence_frequency(self):
        rng = RngStream(37)
        n = 100_000
        _, co = one_shot_attempt(1.0, np.full(n, 2.0), np.full(n, 1.0), rng)
        target = 1.0 - gamma_tv(1.0, 2.0, 1.0)[0]
        se = math.sqrt(target * (1 - target) / co.size)
        assert abs(co.mean() - target) <= 3 * se

    def test_equal_rates_always_coalesce(self):
        rng = RngStream(38)
        _, co = one_shot_attempt(2.5, np.full(1_000, 1.7), np.full(1_000, 1.7), rng)
        assert np.all(co)

    def test_marginals_ks(self):
        # the candidate is the lower chain's coordinate: Gamma(shape, rate_u) whether or not it coalesces
        rng = RngStream(39)
        n = 50_000
        y, _ = one_shot_attempt(3.0, np.full(n, 2.0), np.full(n, 0.7), rng)
        assert stats.kstest(y, stats.gamma(a=3.0, scale=1 / 2.0).cdf).pvalue >= 1e-3


class TestOneShot:
    """Per-replica miscoupling indicators of the TV harness (shared g1, g3; one attempt per coordinate)."""

    def test_equal_pairs_always_coalesce(self, p4):
        rng = RngStream(43)
        n = 500
        u = (np.full(n, 0.9), np.full(n, 1.7))
        miss, cond = _one_shot_indicators(p4, u, u, rng)
        assert not np.any(miss)
        assert np.all(cond == 0.0)

    def test_frequency_matches_conditional_overlap(self, p4):
        # P[u' != w'] within 3 sigma of E[1 - prod_i overlap_i]
        rng = RngStream(45)
        n = 100_000
        u = (np.full(n, 1.0), np.full(n, 1.0))
        w = (np.full(n, 2.0), np.full(n, 2.0))
        miss, cond = _one_shot_indicators(p4, u, w, rng)
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
        miss, _ = _one_shot_indicators(p4, u, w, rng)
        freq = miss.mean()
        target = 1.0 - R ** (-p4.sum_tail)
        se = math.sqrt(freq * (1 - freq) / n)
        assert freq <= target + 3 * se
