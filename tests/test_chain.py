"""Model validation and chain dynamics (hand values frozen from exact fractions)."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gibbscert.chain as chain
from gibbscert.chain import (
    ModelParams,
    ParamError,
    block_shapes,
    draw_block,
    draw_pi,
    step,
    step_full,
    validate_params,
)
from gibbscert.rng import RngStream


def block(*gammas):
    return tuple(map(float, gammas))


class TestValidation:
    def test_worked_example_valid(self, p4):
        assert validate_params(p4) is p4

    def test_n3_worked_example_valid(self, p3):
        assert validate_params(p3) is p3

    def test_small_shapes_named_error(self):
        with pytest.raises(ParamError, match=r"a1\+a4 <= 1"):
            ModelParams(n=4, x=2.0, b=3.0, a=(0.2, 0.2, 0.2, 0.2, 0.2))

    def test_condition_order_reports_first(self):
        # a1+a4 fine, a2+a5 violated
        with pytest.raises(ParamError, match=r"a2\+a5 <= 1"):
            ModelParams(n=4, x=2.0, b=3.0, a=(1.0, 0.3, 1.0, 1.0, 0.3))

    def test_negative_x(self):
        with pytest.raises(ParamError, match="x <= 0"):
            ModelParams(n=4, x=-1.0, b=3.0, a=(1, 2, 3, 4, 5))

    def test_wrong_length(self):
        with pytest.raises(ParamError, match="length"):
            ModelParams(n=3, x=1.0, b=2.0, a=(1, 2, 3, 4, 5))

    def test_n3_conditions(self):
        with pytest.raises(ParamError, match=r"a1\+a4 <= 1"):
            ModelParams(n=3, x=1.0, b=2.0, a=(0.4, 2.0, 3.0, 0.5))


class TestBlocks:
    def test_shapes_n4(self, p4):
        assert block_shapes(p4) == (3.0, 5.0, 7.0, 9.0)

    def test_shapes_n3(self, p3):
        assert block_shapes(p3) == (3.0, 5.0, 7.0)

    def test_block_mean(self, p4):
        g = draw_block(p4, RngStream(5), size=1_000_000)
        se = math.sqrt(5.0 / g[1].size)
        assert abs(g[1].mean() - 5.0) <= 3 * se

    def test_block_dims(self, p4, p3):
        assert np.shape(draw_block(p4, RngStream(1))) == (4,)
        assert np.shape(draw_block(p3, RngStream(1), size=7)) == (3, 7)


class TestSteps:
    def test_reduced_hand_values(self, p4):
        assert step((1.0, 1.0), block(1, 1, 1, 1), p4) == pytest.approx((1.2, 2 / 7))
        assert step((3.0, 1.0), block(1, 1, 1, 1), p4) == pytest.approx((20 / 9, 4 / 13))
        assert step((1.0, 1.0), block(1, 2, 1, 1), p4) == pytest.approx((2.4, 2 / 7))

    def test_full_hand_value_and_projection(self, p4):
        g = block(1, 1, 1, 1)
        out = step_full((9.0, 1.0, 9.0, 1.0), g, p4)
        assert out == pytest.approx((1 / 3, 1.2, 0.5, 2 / 7))
        assert step_full((5.0, 1.0, 5.0, 1.0), g, p4) == out  # u1, u3 ignored
        red = step((1.0, 1.0), g, p4)
        assert (out[1], out[3]) == red

    def test_full_independent_of_odd_coords_bulk(self, p4):
        rng = RngStream(11)
        for _ in range(50):
            g = draw_block(p4, rng)
            u2, u4 = rng.gamma(2.0) + 0.01, rng.gamma(2.0) + 0.01
            a = step_full((999.0, u2, 0.001, u4), g, p4)
            b = step_full((0.5, u2, 42.0, u4), g, p4)
            assert a == b

    def test_n3_hand_values(self, p3):
        g = block(1, 1, 1)
        assert step((1.0,), g, p3)[0] == pytest.approx(1.2)
        assert step((2.0,), g, p3)[0] == pytest.approx(12 / 7)
        assert step((1.0,), block(1, 2, 1), p3)[0] == pytest.approx(2.4)

    def test_n3_linear_in_g2(self, p3):
        base = step((3.7,), block(0.9, 1.3, 2.2), p3)[0]
        doubled = step((3.7,), block(0.9, 2.6, 2.2), p3)[0]
        assert doubled == pytest.approx(2 * base, rel=1e-15)

    @given(
        u2=st.floats(0.01, 100), u4=st.floats(0.01, 100),
        d2=st.floats(0.0, 50), d4=st.floats(0.0, 50),
        g1=st.floats(0.05, 30), g2=st.floats(0.05, 30),
        g3=st.floats(0.05, 30), g4=st.floats(0.05, 30),
    )
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_monotone_reduced(self, p4, u2, u4, d2, d4, g1, g2, g3, g4):
        g = block(g1, g2, g3, g4)
        lo = step((u2, u4), g, p4)
        hi = step((u2 + d2, u4 + d4), g, p4)
        assert lo[0] <= hi[0] and lo[1] <= hi[1]

    @given(u=st.floats(0.01, 100), d=st.floats(0.0, 100),
           g1=st.floats(0.05, 30), g2=st.floats(0.05, 30), g3=st.floats(0.05, 30))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_monotone_n3(self, p3, u, d, g1, g2, g3):
        g = block(g1, g2, g3)
        assert step((u,), g, p3)[0] <= step((u + d,), g, p3)[0]

    def test_outputs_finite_positive_extreme_states(self, p4):
        rng = RngStream(13)
        vals = np.array([1e-6, 1e-3, 1.0, 1e3, 1e6])
        u2, u4 = np.meshgrid(vals, vals)
        for _ in range(20):
            g = draw_block(p4, rng, size=u2.shape)
            out2, out4 = step((u2, u4), g, p4)
            assert np.all(np.isfinite(out2)) and np.all(out2 > 0)
            assert np.all(np.isfinite(out4)) and np.all(out4 > 0)


STATIONARITY_DRAWS, STATIONARITY_SIGMAS = 200_000, 4.0


def stationarity_z(p, seed):
    """z-scores of the paired mean change of 1/(1 + sum u) and u2/(1 + u2) under one chain step from exact pi draws."""
    rng = RngStream(seed)
    s, _ = draw_pi(p, rng, STATIONARITY_DRAWS)
    t = step(s, draw_block(p, rng, size=STATIONARITY_DRAWS), p)
    zs = []
    for f in (lambda v: 1.0 / (1.0 + sum(v)), lambda v: v[0] / (1.0 + v[0])):
        diff = f(t) - f(s)
        zs.append(diff.mean() / (diff.std(ddof=1) / math.sqrt(STATIONARITY_DRAWS)))
    return zs


def wrong_top_rate(s, g_odd, p):
    # b doubled in the last even coordinate's rate (n = 4) or in u3's rate (n = 3)
    u2 = s[0]
    if p.n == 3:
        return (g_odd[0] / (p.x + u2) + g_odd[1] / (u2 + 2.0 * p.b),)
    u1, u3 = chain.odd_coordinates(s, g_odd, p)
    return u1 + u3, u3 + 2.0 * p.b


class TestEquilibriumDensity:
    def test_stationarity_one_more_kernel_step(self, p4):
        # pi is invariant: one step from exact draws leaves both means in place
        assert all(abs(z) <= STATIONARITY_SIGMAS for z in stationarity_z(p4, 17))

    def test_stationarity_n3(self, p3):
        assert all(abs(z) <= STATIONARITY_SIGMAS for z in stationarity_z(p3, 18))

    @pytest.mark.parametrize("model", ["p4", "p3"])
    def test_wrong_rate_breaks_stationarity(self, model, request, monkeypatch):
        p = request.getfixturevalue(model)
        monkeypatch.setattr(chain, "reduced_rates", wrong_top_rate)
        assert max(abs(z) for z in stationarity_z(p, 17)) > STATIONARITY_SIGMAS


class TestDrawPi:
    def test_sizes_and_proposals(self, p4, p3):
        # acceptance measured on 1e6 proposals: 0.544 for n = 4, 0.811 for n = 3
        for p, k, lo, hi in ((p4, 2, 0.5, 0.6), (p3, 1, 0.75, 0.85)):
            s, proposals = draw_pi(p, RngStream(23), 40_000)
            assert len(s) == k and all(c.shape == (40_000,) and np.all(c > 0) for c in s)
            assert lo < 40_000 / proposals < hi

    def test_reproducible_and_stream_bound(self, p4):
        a, pa = draw_pi(p4, RngStream(24), 1_000)
        b, pb = draw_pi(p4, RngStream(24), 1_000)
        c, _ = draw_pi(p4, RngStream(25), 1_000)
        assert pa == pb and all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[0], c[0])

    def test_pilot_below_floor_names_acceptance(self):
        p = ModelParams(n=3, x=0.01, b=100.0, a=(1, 2, 3, 4))  # about 1e-3
        with pytest.raises(ParamError, match=r"accepts 0\.00\d+ of 32768 pilot proposals, below the floor 0\.01"):
            draw_pi(p, RngStream(26), 10)


class TestLift:
    def test_matches_full_step(self, p4):
        g = block(1, 1, 1, 1)
        assert step_full((None, 1.0, None, 1.0), g, p4) == pytest.approx((1 / 3, 1.2, 0.5, 2 / 7))

    def test_projection_to_reduced(self, p4):
        rng = RngStream(19)
        g = draw_block(p4, rng)
        s = (0.8, 2.5)
        out = step_full((None, 0.8, None, 2.5), g, p4)
        assert (out[1], out[3]) == step(s, g, p4)

    def test_equal_states_lift_equal(self, p4):
        g = draw_block(p4, RngStream(21))
        a = step_full((None, 1.4, None, 0.3), g, p4)
        b = step_full((None, 1.4, None, 0.3), g, p4)
        assert a == b
