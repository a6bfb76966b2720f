"""Exact constants tables (values frozen from an exact-fraction oracle)."""
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gibbscert.chain import ModelParams
from gibbscert.constants import (
    compute_constants_n3,
    compute_constants_n4,
    ratio_expectation_closed_form,
)
from gibbscert.ratio_drift import compute_omegas
from gibbscert.chain import draw_block
from gibbscert.rng import RngStream


class TestRatioExpectation:
    def test_symmetric_integer_case(self):
        assert ratio_expectation_closed_form(2.0, 2.0) == pytest.approx(4 / 3, rel=1e-15)

    def test_worked_pair(self):
        assert ratio_expectation_closed_form(5.0, 9.0) == pytest.approx(23 / 104, rel=1e-15)

    def test_mc_oracle(self):
        rng = RngStream(67)
        g2 = rng.gamma(5.0, size=2_000_000)
        g4 = rng.gamma(9.0, size=2_000_000)
        mc = np.mean((g2 / g4 + g4 / g2) / (g2 + g4))
        assert abs(mc - 23 / 104) / (23 / 104) < 0.01

    def test_pole_approach_finite_positive(self):
        v = ratio_expectation_closed_form(1.0001, 2.0)
        assert math.isfinite(v) and v > 1_000

    def test_rejects_shapes_at_most_one(self):
        with pytest.raises(ValueError):
            ratio_expectation_closed_form(1.0, 2.0)
        with pytest.raises(ValueError):
            ratio_expectation_closed_form(3.0, 0.5)


class TestConstantsN4:
    def test_exact_rational_fields(self, table4):
        e = table4.exact
        assert e["zeta1"] == F(5, 9)
        assert e["zeta2"] == F(7, 13)
        assert e["c1"] == F(37, 9)
        assert e["c2"] == F(9, 26)
        assert e["eta"] == F(1043, 104)
        assert e["beta"] == F(7, 9)
        assert e["rho"] == F(21, 2)
        assert e["theta1"] == F(145, 36)
        assert e["theta2"] == F(805, 8)
        assert e["theta3"] == F(13607, 144)
        assert e["theta3_variant"] == F(3017, 36)
        assert e["r"] == F(951009, 951841)

    def test_reference_intervals(self, table4):
        assert table4.exact["beta"] == F(7, 9)
        assert 10 <= table4.eta <= 11
        assert 9 <= table4.d <= 10
        assert table4.exact["r"] <= 1 - F(3, 4356)

    def test_d_value(self, table4):
        assert table4.d == pytest.approx(9.25513622584489, abs=1e-12)

    def test_beta_float_equality(self, table4):
        assert table4.beta == 7 / 9

    def test_theta_match_mc(self, p4, table4):
        rng = RngStream(71)
        g = draw_block(p4, rng, size=1_000_000)
        om1, om2, om3, _ = compute_omegas(g, p4)
        for om, theta in ((om1, table4.theta1), (om2, table4.theta2), (om3, table4.theta3)):
            assert abs(om.mean() - theta) / theta < 0.01

    def test_eta_drift_relation_mc(self, p4, table4):
        # states with J >= eta contract in one step: E[J'] <= beta * J + 3 sigma
        from gibbscert.verify import history_states, verify_drift_mc
        states = history_states(p4, 73, [(0.004, 0.004), (150.0, 150.0)], [1, 1])
        reports = verify_drift_mc(p4, states, 20_000, 73, table=table4)
        j_reports = [r for r in reports if "drift_j" in r.name]
        assert j_reports and all(r.passed for r in j_reports)


class TestConstantsN3:
    def test_exact_values(self, table3):
        e = table3.exact
        assert e["zeta1"] == F(5, 9)
        assert e["beta"] == F(7, 9)
        assert e["eta"] == F(237, 16)
        assert e["r"] == F(1233, 1249)

    def test_quoted_values(self, table3):
        assert table3.eta == pytest.approx(14.8125, abs=1e-12)
        assert table3.r == pytest.approx(1 - 1 / (4 + 5 * 14.8125), abs=1e-12)
        assert table3.d == pytest.approx(9.30469871272656, abs=1e-12)

    def test_swap_x_b_symmetry(self):
        # only the min/max roles change in r
        a = (1.0, 2.0, 3.0, 4.0)
        t1 = compute_constants_n3(ModelParams(n=3, x=1.0, b=2.0, a=a))
        t2 = compute_constants_n3(ModelParams(n=3, x=2.0, b=1.0, a=a))
        assert t1.eta != t2.eta  # eta is not symmetric (C depends on x and b separately)
        mx, mn, eta = 2.0, 1.0, t1.eta
        assert t1.r == pytest.approx(1 - mn / (2 * mx + eta * (1 + mx * mx)), abs=1e-15)
        eta2 = t2.eta
        assert t2.r == pytest.approx(1 - mn / (2 * mx + eta2 * (1 + mx * mx)), abs=1e-15)


valid_a = st.floats(min_value=0.7, max_value=20.0)


class TestInvariantRanges:
    @given(x=st.floats(0.1, 20), b=st.floats(0.1, 20),
           a=st.tuples(valid_a, valid_a, valid_a, valid_a, valid_a))
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_n4_ranges(self, x, b, a):
        p = ModelParams(n=4, x=x, b=b, a=a)
        t = compute_constants_n4(p)
        assert 0.5 < t.beta < 1.0
        assert 0.0 < t.r < 1.0
        assert t.d >= 3.0
        assert t.eta > 0.0

    @given(x=st.floats(0.1, 20), b=st.floats(0.1, 20),
           a=st.tuples(valid_a, valid_a, valid_a, valid_a))
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_n3_ranges(self, x, b, a):
        p = ModelParams(n=3, x=x, b=b, a=a)
        t = compute_constants_n3(p)
        assert 0.5 < t.beta < 1.0
        assert 0.0 < t.r < 1.0
        assert t.d >= 3.0
        assert t.eta > 0.0
