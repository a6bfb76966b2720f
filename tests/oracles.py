"""Independent oracles for the test suite.

These deliberately avoid the code paths they check: total variation by direct
quadrature of |f1 - f2| (no crossing-point formula), threshold solving in log
space (no binary search), the one-step drift of J by quadrature of Laplace
transforms (no sampling), conditional gamma moments by plain Monte Carlo
averaging, and the equilibrium functionals by quadrature of the closed-form
marginal of pi (no sampler).
"""
import math

import numpy as np
from scipy import integrate, stats


def tv_by_quadrature(alpha, rate1, rate2):
    """0.5 * integral |f1 - f2| via adaptive quadrature with generic breakpoints."""
    f1 = stats.gamma(a=alpha, scale=1.0 / rate1).pdf
    f2 = stats.gamma(a=alpha, scale=1.0 / rate2).pdf
    upper = 60.0 * max(1.0, alpha) / min(rate1, rate2)
    pts = sorted({alpha / rate1, alpha / rate2, (alpha + 3) / min(rate1, rate2)})
    val, err = integrate.quad(
        lambda y: abs(f1(y) - f2(y)), 0.0, upper, points=pts, limit=400,
        epsabs=1e-13, epsrel=1e-12,
    )
    assert err < 1e-9
    return 0.5 * val


def minimal_t_first_term_log_solve(prefactor, rate, exponent_divisor, epsilon):
    """Smallest integer t with prefactor * rate**(t/exponent_divisor) <= epsilon.

    Closed-form in log space; valid when the remaining bound terms are
    negligible at the solution (checked by the caller).
    """
    t_real = exponent_divisor * (math.log(epsilon) - math.log(prefactor)) / math.log(rate)
    return max(0, math.ceil(t_real))


def gamma_mean_se(draws):
    return float(np.mean(draws)), float(np.std(draws, ddof=1) / math.sqrt(len(draws)))


def batch_mean_ci(values):
    """Mean and standard error from a (batch, ...) matrix of batch values."""
    batch_means = np.asarray(values).mean(axis=tuple(range(1, np.ndim(values))))
    n = batch_means.size
    return float(batch_means.mean()), float(batch_means.std(ddof=1) / math.sqrt(n))


def drift_j_by_quadrature(p, u2, u4):
    """E[J' | u2, u4] = E[u2'] + E[u4'] + E[K2'] for the n = 4 chain, by 1-D quadrature.

    With A_i = a_i + a_{i+1}, u1 ~ Gamma(A1, x + u2) and u3 ~ Gamma(A3, u2 + u4)
    independent, and E[1/Y] = integral over s >= 0 of E[exp(-s Y)]:
    E[u2'] = A2 E[1/(u1 + u3)], E[u4'] = A4 E[1/(u3 + b)], and
    E[K2'] = E[u1 + u3 + b] / (A2 + A4 - 1).
    """
    A1, A2, A3, A4 = (p.a[i] + p.a[i + 1] for i in range(4))
    r1, r3 = p.x + u2, u2 + u4
    lap3 = lambda s: (1.0 + s / r3) ** -A3
    quad = lambda f: integrate.quad(f, 0.0, np.inf, epsabs=0.0, epsrel=1e-12)
    inv_u13, err13 = quad(lambda s: (1.0 + s / r1) ** -A1 * lap3(s))
    inv_u3b, err3b = quad(lambda s: math.exp(-s * p.b) * lap3(s))
    assert err13 <= 1e-9 * inv_u13 and err3b <= 1e-9 * inv_u3b
    k2 = (A1 / r1 + A3 / r3 + p.b) / (A2 + A4 - 1.0)
    return A2 * inv_u13 + A4 * inv_u3b + k2


def pi_functionals_by_quadrature(p):
    """(E_pi[R0], E_pi[J0]) from the start (1, ..., 1), by quadrature of the even marginal of pi.

    With A_i = a_i + a_{i+1} and u1, u3 integrated out, the marginal is
    proportional to u^(A2-1) (x+u)^(-A1) (u+b)^(-A3) for n = 3 (adaptive 1-D
    quadrature, split at the kink u = 1) and to
    u2^(A2-1) u4^(A4-1) exp(-b u4) (x+u2)^(-A1) (u2+u4)^(-A3) for n = 4.  For
    n = 4 the rule is the trapezoid rule on a square grid in (log u2, log u4)
    over [-20, 10]^2, whose nodes lie on the kinks log u = 0 and u2 = u4, at
    steps 1/16 and 1/32, combined by Richardson extrapolation; the two
    extrapolations from steps 1/16, 1/32 and 1/32, 1/64 agree to 1e-7.
    """
    A = [p.a[i] + p.a[i + 1] for i in range(p.n)]
    if p.n == 3:
        dens = lambda u: u ** (A[1] - 1.0) * (p.x + u) ** -A[0] * (u + p.b) ** -A[2]

        def expect(f):
            return sum(integrate.quad(lambda u: f(u) * dens(u), lo, hi, limit=400, epsabs=0.0, epsrel=1e-12)[0]
                       for lo, hi in ((0.0, 1.0), (1.0, np.inf)))

        z = expect(lambda u: 1.0)
        return expect(lambda u: max(u, 1.0 / u)) / z, expect(lambda u: min(u, 1.0) + 1.0 / min(u, 1.0)) / z

    def trapezoid(h):
        t = h * np.arange(round(-20.0 / h), round(10.0 / h) + 1)
        t2, t4 = t[:, None], t[None, :]
        u2, u4 = np.exp(t2), np.exp(t4)
        # density in log coordinates: the Jacobian u2 u4 raises each power by one
        log_f = A[1] * t2 + A[3] * t4 - p.b * u4 - A[0] * np.log(p.x + u2) - A[2] * np.log(u2 + u4)
        f = np.exp(log_f - log_f.max())  # the end weights are negligible: f is ~0 on the border
        m = np.minimum(np.minimum(u2, u4), 1.0)
        r0 = np.maximum(np.maximum(u2, u4), 1.0) / m
        z = f.sum()
        return np.array([(f * r0).sum() / z, (f * (2.0 * m + 0.5 / m)).sum() / z])

    coarse, fine = trapezoid(1.0 / 16.0), trapezoid(1.0 / 32.0)
    c_pi, c_j = fine + (fine - coarse) / 3.0
    return float(c_pi), float(c_j)
