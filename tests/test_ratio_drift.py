"""Ratio process, drift quantities, omega weights, pathwise checkers."""
import math

import numpy as np
import pytest

from gibbscert.chain import draw_block
from gibbscert.ratio_drift import (
    REL_SLACK,
    PathwiseViolation,
    assert_pathwise,
    check_pathwise,
    compute_omegas,
    compute_q,
    compute_r_hat,
    drift_quantities,
    init_record,
    ratio_step,
)
from gibbscert.rng import RngStream


def block(*gammas):
    return tuple(map(float, gammas))


class TestRatioStep:
    def test_degenerate_start(self, p4):
        rec = init_record((1.0, 1.0), (1.0, 1.0))
        rec1 = ratio_step(rec, block(0.7, 1.9, 2.2, 3.1), p4)
        assert rec1.ratio == 1.0
        assert rec1.v == rec1.u

    def test_hand_example(self, p4):
        rec = init_record((1.0, 1.0), (2.0, 2.0))
        rec1 = ratio_step(rec, block(1, 1, 1, 1), p4)
        assert rec1.u == pytest.approx((1.2, 2 / 7))
        assert rec1.v_tilde == pytest.approx((2.0, 4 / 13))
        assert rec1.ratio == pytest.approx(5 / 3)
        assert rec1.v == pytest.approx((2.0, 10 / 21))

    def test_ratio_nonincreasing_trace(self, p4):
        rng = RngStream(53)
        n = 1_000
        rec = init_record(
            (np.full(n, 0.5), np.full(n, 0.5)), (np.full(n, 4.0), np.full(n, 4.0)))
        prev = rec.ratio
        for t in range(1, 1_001):
            rec = ratio_step(rec, draw_block(p4, rng, size=n), p4)
            assert np.all(rec.ratio <= prev * (1 + REL_SLACK))
            prev = rec.ratio

    def test_ratio_dominates_w_over_u(self, p4):
        rng = RngStream(54)
        n = 500
        rec = init_record((np.full(n, 1.0), np.full(n, 2.0)), (np.full(n, 0.5), np.full(n, 4.0)))
        for t in range(1, 200):
            rec = ratio_step(rec, draw_block(p4, rng, size=n), p4)
            assert np.all(rec.w[0] / rec.u[0] <= rec.ratio * (1 + REL_SLACK))
            assert np.all(rec.w[1] / rec.u[1] <= rec.ratio * (1 + REL_SLACK))


class TestQ:
    def test_equal_states(self, p4):
        assert compute_q((1.0, 1.0), (1.0, 1.0), block(1, 1, 1, 1), p4) == 1.0

    def test_hand_example(self, p4):
        q = compute_q((1.0, 1.0), (2.0, 2.0), block(1, 1, 1, 1), p4)
        assert q == pytest.approx(8 / 9)

    def test_pathwise_contraction(self, p4):
        rng = RngStream(55)
        rec = init_record((0.5, 0.5), (4.0, 4.0))
        for t in range(1, 300):
            g = draw_block(p4, rng)
            q = compute_q(rec.u, rec.v, g, p4)
            rec1 = ratio_step(rec, g, p4)
            assert rec1.q == q
            assert rec1.ratio <= q * rec.ratio * (1 + REL_SLACK)
            assert q <= 1.0
            rec = rec1


class TestRHat:
    def test_hand_example(self, p4):
        assert compute_r_hat((1.0, 1.0), (1.0, 1.0), p4) == pytest.approx(257 / 261)

    def test_increasing_in_u2(self, p4):
        vals = [compute_r_hat((u2, 1.0), (2.0, 2.0), p4) for u2 in (0.5, 1.0, 1.5, 2.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_rejects_small_a1_a2(self):
        # r-hat needs mu2 = a1 + a2 - 1/3 > 0; the model owns that condition, so no such model exists
        from gibbscert.chain import ModelParams, ParamError
        for a in ((0.1, 0.1, 2.0, 2.0, 2.0), (0.1, 0.2, 3.0, 4.0, 5.0)):
            with pytest.raises(ParamError, match=r"a1\+a2 <= 1/3"):
                ModelParams(n=4, x=2.0, b=3.0, a=a)

    def test_in_unit_interval(self, p4):
        rng = RngStream(56)
        for _ in range(100):
            u = (rng.gamma(2.0), rng.gamma(2.0))
            v = (u[0] + rng.gamma(1.0), u[1] + rng.gamma(1.0))
            r = compute_r_hat(u, v, p4)
            assert 0.0 < r < 1.0


class TestDriftQuantities:
    def test_hand_example(self, p4):
        g = block(1, 1, 1, 1)
        k1, k2, j, d = drift_quantities((1 / 3, 1.2, 0.5, 2 / 7), g, p4, t=1)
        assert k1 == pytest.approx(52 / 35)
        assert k2 == pytest.approx(23 / 12)
        assert j == pytest.approx(52 / 35 + 23 / 12)
        assert d == pytest.approx(55718 / 315)

    def test_t0_envelope_matches_j0(self, p4):
        m = 0.5
        k1, k2, j, d = drift_quantities((float("nan"), m, float("nan"), m), None, p4, t=0)
        assert k1 == 2 * m
        assert k2 == 1.0 / (2 * m)
        assert j == 2 * m + 1.0 / (2 * m)
        assert math.isnan(d)

    def test_d_dominates_r_hat_denominator(self, p4):
        # D_t >= max{lead*(u2/x + x/v2 + 2), 4 + 4mu1/(b v4)} for every v >= u
        rng = RngStream(57)
        mu1 = p4.a[2] + p4.a[3]
        mu2 = p4.a[0] + p4.a[1] - 1 / 3
        lead = 4 * mu1 / mu2 + 4
        for _ in range(200):
            u2, u4 = rng.gamma(2.0) + 0.05, rng.gamma(2.0) + 0.05
            v2, v4 = u2 + rng.gamma(1.0), u4 + rng.gamma(1.0)
            _, _, _, d = drift_quantities((0.1, u2, 0.1, u4), block(1, 1, 1, 1), p4, t=1)
            rhs = max(lead * (u2 / p4.x + p4.x / v2 + 2.0), 4.0 + 4.0 * mu1 / (p4.b * v4))
            assert d >= rhs * (1 - 1e-12)


class TestOmegas:
    def test_hand_example(self, p4):
        om1, om2, om3, om_t2 = compute_omegas(block(1, 1, 1, 1), p4)
        assert om_t2 == 4.0
        assert om1 == pytest.approx(3.625)
        assert om2 == pytest.approx(230 / 3)
        assert om3 == pytest.approx(278.0)

    def test_symmetry_in_g2_g4_for_tilde(self, p4):
        a = compute_omegas(block(1.0, 2.0, 1.0, 5.0), p4)[3]
        b = compute_omegas(block(1.0, 5.0, 1.0, 2.0), p4)[3]
        assert a == b

    def test_mean_omega1_matches_theta1(self, p4, table4):
        rng = RngStream(59)
        g = draw_block(p4, rng, size=1_000_000)
        om1 = compute_omegas(g, p4)[0]
        se = om1.std(ddof=1) / math.sqrt(om1.size)
        assert abs(om1.mean() - table4.theta1) <= 3 * se


class TestPathwiseChecks:
    def test_all_pass_on_simulated_steps(self, p4):
        rng = RngStream(61)
        n = 2_000
        rec = init_record((np.full(n, 1.0), np.full(n, 2.0)), (np.full(n, 0.5), np.full(n, 4.0)))
        for t in range(1, 200):
            g = draw_block(p4, rng, size=n)
            rec1 = ratio_step(rec, g, p4)
            checks = check_pathwise(rec, rec1, g, p4)
            assert set(checks) == {
                "sum_recursion", "k2_recursion", "inverse_bound", "d_recursion",
                "ratio_contraction", "order_chain", "ratio_equality",
            }
            for name, ok in checks.items():
                assert np.all(ok), name
            rec = rec1

    def test_degenerate_trajectory(self, p4):
        rng = RngStream(62)
        rec = init_record((1.0, 1.0), (1.0, 1.0))
        for t in range(1, 100):
            g = draw_block(p4, rng)
            rec1 = ratio_step(rec, g, p4)
            assert rec1.ratio == 1.0
            for name, ok in check_pathwise(rec, rec1, g, p4).items():
                assert np.all(ok), name
            rec = rec1

    def test_assert_pathwise_raises_with_dump(self, p4):
        rng = RngStream(63)
        rec = init_record((1.0, 1.0), (2.0, 2.0))
        g = draw_block(p4, rng)
        rec1 = ratio_step(rec, g, p4)
        broken = check_pathwise(rec, rec1, g, p4)
        broken["ratio_contraction"] = np.array(False)
        with pytest.raises(PathwiseViolation, match="ratio_contraction"):
            assert_pathwise(broken, rec, rec1)


class TestSecantMonotonicity:
    def test_monotone_in_x_and_y(self):
        # (x/b + y)/(x/a + y) decreasing in x, increasing in y when 0 < a < b
        a, b = 1.0, 3.0
        xs = np.linspace(0.01, 20, 100)
        ys = np.linspace(0.01, 20, 100)
        g = (xs[:, None] / b + ys[None, :]) / (xs[:, None] / a + ys[None, :])
        assert np.all(np.diff(g, axis=0) <= 1e-12)
        assert np.all(np.diff(g, axis=1) >= -1e-12)
