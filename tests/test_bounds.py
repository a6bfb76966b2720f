"""Bound formulas, threshold search, equilibrium functionals."""
import math

import numpy as np
import pytest

from gibbscert.bounds import PI_BATCH, BoundSpec, estimate_pi_functionals, evaluate_bound, minimal_t
from gibbscert.chain import draw_pi
from gibbscert.coupling import envelope_init
from gibbscert.rng import RngStream

from oracles import batch_mean_ci, minimal_t_first_term_log_solve, pi_functionals_by_quadrature

PIN_DRAWS, PIN_SIGMAS = 1_000_000, 5  # R0's tail index is near 4: its se is itself noisy


class TestEvaluateBound:
    def test_coalesced_start_is_zero(self, table4, p4):
        spec = BoundSpec(theorem="fixed_start_small_j0", table=table4, sum_a=p4.sum_tail, r0=1.0)
        for t in (0, 1, 10, 1_000):
            assert evaluate_bound(spec, t) == 0.0

    def test_case1_formula_literal(self, table4, p4):
        spec = BoundSpec(theorem="fixed_start_small_j0", table=table4, sum_a=p4.sum_tail, r0=8.0)
        t = 37
        expected = 3.0 * table4.r ** (t / (2 * table4.d)) * 14.0 * 7.0
        assert evaluate_bound(spec, t) == pytest.approx(expected, rel=1e-15)

    def test_general_formula_literal(self, table4, p4):
        spec = BoundSpec(theorem="fixed_start", table=table4, sum_a=p4.sum_tail, r0=8.0, j0=25.0)
        t = 11
        expected = (3.0 * table4.r ** (t / (4 * table4.d)) * 14.0 * 7.0
                    + (25.0 / table4.eta) * table4.beta ** (t // 2 + 3))
        assert evaluate_bound(spec, t) == pytest.approx(expected, rel=1e-15)

    def test_general_small_j0_uses_eta(self, table4, p4):
        spec = BoundSpec(theorem="fixed_start", table=table4, sum_a=p4.sum_tail, r0=8.0, j0=2.0)
        t = 11
        tail = 1.0 * table4.beta ** (t // 2 + 3)  # max{J0, eta}/eta = 1
        expected = 3.0 * table4.r ** (t / (4 * table4.d)) * 14.0 * 7.0 + tail
        assert evaluate_bound(spec, t) == pytest.approx(expected, rel=1e-15)

    def test_equilibrium_start_formula_literal(self, table4, p4):
        spec = BoundSpec(theorem="equilibrium_start", table=table4, sum_a=p4.sum_tail,
                         e_r0_minus_1=31065.0, e_j0=59.0)
        t = 40
        expected = (3.0 * table4.r ** (t / (4 * table4.d)) * 14.0 * 31065.0
                    + (59.0 / table4.eta + 1.0) * table4.beta ** (t // 2 + 3))
        assert evaluate_bound(spec, t) == pytest.approx(expected, rel=1e-15)

    def test_n3_formula_literal(self, table3, p3):
        spec = BoundSpec(theorem="n3", table=table3, sum_a=p3.sum_tail, r0=4.0, j0=2.0)
        t = 21
        expected = (table3.r ** (t / (2 * table3.d)) * (1.0 + 3.0 * 5.0 * 3.0)
                    + (max(2.0, table3.eta) / table3.eta) * table3.beta ** (t // 2 + 3))
        assert evaluate_bound(spec, t) == pytest.approx(expected, rel=1e-15)

    def test_nonincreasing_in_t(self, table4, table3, p4, p3):
        specs = [
            BoundSpec(theorem="fixed_start", table=table4, sum_a=p4.sum_tail, r0=8.0, j0=2.0),
            BoundSpec(theorem="equilibrium_start", table=table4, sum_a=p4.sum_tail, e_r0_minus_1=31065.0, e_j0=59.0),
            BoundSpec(theorem="n3", table=table3, sum_a=p3.sum_tail, r0=4.0, j0=2.0),
        ]
        grid = list(range(0, 2_000, 7))
        for spec in specs:
            vals = [evaluate_bound(spec, t) for t in grid]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_spec(self, table4, p4):
        with pytest.raises(ValueError):
            BoundSpec(theorem="fixed_start_small_j0", table=table4, sum_a=p4.sum_tail, r0=0.5)
        with pytest.raises(ValueError):
            BoundSpec(theorem="nope", table=table4, sum_a=p4.sum_tail, r0=2.0)
        with pytest.raises(ValueError):
            BoundSpec(theorem="equilibrium_start", table=table4, sum_a=p4.sum_tail, r0=2.0, j0=1.0)


class TestMinimalT:
    def test_worked_example_against_log_solve(self, table4, p4):
        spec = BoundSpec(theorem="equilibrium_start", table=table4, sum_a=p4.sum_tail,
                         e_r0_minus_1=31065.0, e_j0=59.0)
        t = minimal_t(spec, 1e-5)
        # the beta tail is negligible at this scale; first term alone pins t
        t_oracle = minimal_t_first_term_log_solve(3.0 * 14.0 * 31065.0, table4.r, 4 * table4.d, 1e-5)
        assert abs(t - t_oracle) <= 2
        assert t == 1_083_527  # frozen from the high-precision oracle
        assert evaluate_bound(spec, t) <= 1e-5 < evaluate_bound(spec, t - 1)

    def test_epsilon_one_returns_zero(self, table4, p4):
        spec = BoundSpec(theorem="fixed_start_small_j0", table=table4, sum_a=p4.sum_tail, r0=8.0)
        assert minimal_t(spec, 1.0) == 0

    def test_nonincreasing_in_epsilon(self, table4, p4):
        spec = BoundSpec(theorem="fixed_start", table=table4, sum_a=p4.sum_tail, r0=8.0, j0=2.0)
        eps = [0.5, 0.1, 0.01, 1e-3, 1e-5]
        ts = [minimal_t(spec, e) for e in eps]
        assert all(b >= a for a, b in zip(ts, ts[1:]))

    def test_rejects_bad_epsilon(self, table4, p4):
        spec = BoundSpec(theorem="fixed_start_small_j0", table=table4, sum_a=p4.sum_tail, r0=8.0)
        with pytest.raises(ValueError):
            minimal_t(spec, 0.0)
        with pytest.raises(ValueError):
            minimal_t(spec, 1.5)

    def test_n3_quoted_prefactors(self, table3, p3):
        # 600 * r^{t/2d} + 6 * beta^{floor(t/2)+3} via the theorem form
        spec = BoundSpec(theorem="n3", table=table3, sum_a=p3.sum_tail,
                         r0=1.0 + 599.0 / 15.0, j0=6.0 * table3.eta)
        assert minimal_t(spec, 1e-5) == 25_851  # frozen oracle value


class TestPiFunctionals:
    def test_batch_mean_of_constant_is_exact(self):
        est, se = batch_mean_ci(np.ones((64, 100)))
        assert est == 1.0
        assert se == 0.0

    def test_estimates_sane(self, p4):
        est = estimate_pi_functionals(p4, n_samples=40_000, rng=RngStream(79))
        assert est.c_j >= 2.0  # AM-GM on 2m + 1/(2m)
        assert est.c_pi >= 1.0
        assert est.c_pi_se > 0 and est.c_j_se > 0
        assert est.n_draws == 40_000
        assert 0.5 < est.acceptance < 0.6  # 0.544 measured on 1e6 proposals

    def test_reproducible(self, p4):
        a = estimate_pi_functionals(p4, n_samples=5_000, rng=RngStream(80))
        b = estimate_pi_functionals(p4, n_samples=5_000, rng=RngStream(80))
        assert a == b

    def test_n3_functionals(self, p3):
        est = estimate_pi_functionals(p3, n_samples=20_000, rng=RngStream(7))
        assert est.c_j >= 2.0  # AM-GM on m + 1/m
        assert est.c_pi >= 1.0
        assert est.c_pi_se > 0
        assert 0.75 < est.acceptance < 0.85  # 0.811 measured on 1e6 proposals

    def test_batched_sums_are_iid_mean_and_se(self, p4):
        # three batches, the last one short, against numpy over the same draws
        n = 2 * PI_BATCH + 123
        est = estimate_pi_functionals(p4, n_samples=n, rng=RngStream(82))
        rng = RngStream(82)
        draws = [draw_pi(p4, rng, size)[0] for size in (PI_BATCH, PI_BATCH, 123)]
        env = envelope_init((1.0, 1.0), tuple(np.concatenate(c) for c in zip(*draws)))
        for f, mean, se in ((env.r0, est.c_pi, est.c_pi_se), (env.j0, est.c_j, est.c_j_se)):
            assert mean == pytest.approx(f.mean(), rel=1e-12)
            assert se == pytest.approx(f.std(ddof=1) / math.sqrt(n), rel=1e-9)

    @pytest.mark.parametrize("model", ["p4", "p3"])
    def test_matches_quadrature(self, model, request):
        p = request.getfixturevalue(model)
        est = estimate_pi_functionals(p, n_samples=PIN_DRAWS, rng=RngStream(20_240_801))
        c_pi, c_j = pi_functionals_by_quadrature(p)
        assert abs(est.c_pi - c_pi) <= PIN_SIGMAS * est.c_pi_se, (est.c_pi, est.c_pi_se, c_pi)
        assert abs(est.c_j - c_j) <= PIN_SIGMAS * est.c_j_se, (est.c_j, est.c_j_se, c_j)

    def test_single_draw_has_no_standard_error(self, p3):
        est = estimate_pi_functionals(p3, n_samples=1, rng=RngStream(83))
        assert est.c_pi >= 1.0 and est.c_pi_se == math.inf
