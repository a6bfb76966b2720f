"""Gamma-distribution numerics behind the coupling and its checks.

Everything is parametrized by shape ``alpha`` and *rate* (inverse scale)
``beta``: the density is ``beta**alpha * y**(alpha-1) * exp(-beta*y) / Gamma(alpha)``.

The key closed form is :func:`gamma_tv`: for two gammas with a common shape
the densities cross exactly once, so the total variation distance is the CDF
gap at the crossing point.  Two further facts the argument rests on are
checked by ``verify`` over fixed sweeps: the envelope inequality of
:func:`check_density_envelope`, which lets the coalescence of two envelope
chains imply that of every chain between them, and the median facts of
:func:`median_probabilities` behind the one-quarter bound ``r_hat``.
"""
from __future__ import annotations

import numpy as np
from scipy import special as sp

__all__ = [
    "gamma_logpdf",
    "gamma_cdf",
    "gamma_tv",
    "check_density_envelope",
    "median_probabilities",
]

ENVELOPE_SLACK = 1e-12  # relative slack of :func:`check_density_envelope`


def gamma_logpdf(y, shape, rate):
    """Log density of Gamma(shape, rate) at ``y`` (array-friendly).

    At y = 0 the value is log(rate) for shape 1, -inf for shape > 1 and
    +inf for shape < 1.
    """
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_y = np.where(y > 0, np.log(np.where(y > 0, y, 1.0)), -np.inf)
        power = 0.0 if shape == 1.0 else (shape - 1.0) * log_y
        out = shape * np.log(rate) + power - rate * y - sp.gammaln(shape)
    return out


def gamma_cdf(y, shape, rate=1.0):
    """Regularized lower incomplete gamma at ``rate * y``; abs error <= 1e-12."""
    return sp.gammainc(shape, np.multiply(rate, y))


def gamma_tv(shape, rate1, rate2):
    """Total variation between Gamma(shape, rate1) and Gamma(shape, rate2).

    Returns ``(tv, crossing)`` where ``crossing`` is the unique point at which
    the two densities cross, ``shape * (ln rate1 - ln rate2) / (rate1 - rate2)``,
    and ``tv = |CDF1(crossing) - CDF2(crossing)| = 0.5 * integral |f1 - f2|``.

    Equal rates give ``tv = 0`` (the crossing value is then an unspecified
    positive placeholder).  Array arguments broadcast.
    """
    shape = np.asarray(shape, dtype=float)
    rate1 = np.asarray(rate1, dtype=float)
    rate2 = np.asarray(rate2, dtype=float)
    if np.any(rate1 <= 0) or np.any(rate2 <= 0):
        raise ValueError("rates must be positive")
    equal = rate1 == rate2
    with np.errstate(divide="ignore", invalid="ignore"):
        crossing = np.where(
            equal,
            shape / rate1,
            shape * (np.log(rate1) - np.log(rate2)) / np.where(equal, 1.0, rate1 - rate2),
        )
    tv = np.where(
        equal,
        0.0,
        np.abs(gamma_cdf(crossing, shape, rate1) - gamma_cdf(crossing, shape, rate2)),
    )
    if tv.ndim == 0:
        return float(tv), float(crossing)
    return tv, crossing


def check_density_envelope(shape, rates, grid):
    """Pointwise envelope check for four same-shape gammas with ordered rates.

    For rates ``b1 < b2 < b3 < b4`` verifies ``min{f1, f4} <= min{f2, f3}``
    at every grid point (within ``ENVELOPE_SLACK``), plus the total-variation
    consequence ``tv(b2, b3) <= tv(b1, b4)``.
    """
    b1, b2, b3, b4 = (float(r) for r in rates)
    if not (0 < b1 < b2 < b3 < b4):
        raise ValueError("rates must be strictly increasing and positive")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")

    logf = [gamma_logpdf(grid, shape, b) for b in (b1, b2, b3, b4)]
    outer = np.minimum(logf[0], logf[3])
    inner = np.minimum(logf[1], logf[2])
    # comparison in log space: min f_out <= min f_in * (1 + slack)
    pointwise_ok = bool(np.all(outer <= inner + np.log1p(ENVELOPE_SLACK)))

    tv_inner, _ = gamma_tv(shape, b2, b3)
    tv_outer, _ = gamma_tv(shape, b1, b4)
    tv_ok = tv_inner <= tv_outer * (1 + ENVELOPE_SLACK) + 1e-15
    return pointwise_ok and bool(tv_ok)


def median_probabilities(shape):
    """The two tail facts behind the one-quarter coupling argument.

    For ``g ~ Gamma(shape, 1)`` with mean ``mu = shape`` returns
    ``(P[g <= mu], P[g >= mu - 1/3])``; the second probability is 1 when
    ``shape <= 1/3``.  Both are at least one half for every positive shape.
    """
    if not shape > 0:
        raise ValueError("shape must be positive")
    p_below = float(gamma_cdf(shape, shape))
    thr = shape - 1.0 / 3.0
    p_above = 1.0 if thr <= 0 else float(sp.gammaincc(shape, thr))
    return p_below, p_above
