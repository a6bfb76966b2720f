"""Exact evaluation of the convergence-rate constants (n = 4 and n = 3).

All rational constants are computed in exact fraction arithmetic from the
(binary-exact) float inputs and rounded once at the end, so quantities that
are rational in the parameters (like beta = 7/9 in the standard worked
example) come out exactly.  Only ``d`` involves logarithms.

The expectation E[(g2/g4 + g4/g2)/(g2 + g4)] for unit-rate gammas has the
partial-fraction closed form implemented by
:func:`ratio_expectation_closed_form`; it is finite only when both shapes
exceed 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .chain import ModelParams, validate_params

__all__ = ["ConstantsTable", "ratio_expectation_closed_form", "compute_constants_n4", "compute_constants_n3", "compute_constants"]


@dataclass(frozen=True)
class ConstantsTable:
    """Rate constants for one parameter set.

    ``a_max`` is the contraction factor max{zeta1, zeta2};
    ``beta = (1 + a_max)/2`` and ``eta = (c1 + c2)/(1 - a_max)``.  The
    ``theta`` fields and ``rho``/``mu`` fields exist only for n = 4 (the n = 3
    chain needs no dominating process).  ``theta3_variant`` carries the
    variant with the (a4+a5)/b coefficient for side-by-side reporting; ``r``
    always uses ``theta3``.  ``exact`` maps the rational fields to exact
    fractions.
    """

    n: int
    c1: float
    c2: float
    zeta1: float
    zeta2: float
    a_max: float
    eta: float
    beta: float
    r: float
    d: float
    rho: Optional[float] = None
    mu1: Optional[float] = None
    mu2: Optional[float] = None
    theta1: Optional[float] = None
    theta2: Optional[float] = None
    theta3: Optional[float] = None
    theta3_variant: Optional[float] = None
    exact: Optional[dict] = None

    def as_rows(self):
        """(name, value) pairs in a stable emission order."""
        keys = ["n", "c1", "c2", "zeta1", "zeta2", "a_max", "eta", "beta", "r", "d",
                "rho", "mu1", "mu2", "theta1", "theta2", "theta3", "theta3_variant"]
        return [(k, getattr(self, k)) for k in keys if getattr(self, k) is not None]


def ratio_expectation_closed_form(a2: float, a4: float) -> float:
    """E[(g2/g4 + g4/g2)/(g2 + g4)] for independent unit-rate gammas.

    ``(A2^2 + A4^2 - A2 - A4) / ((A2 - 1)(A4 - 1)(A2 + A4 - 1))``; requires
    both shapes > 1 (the expectation is infinite otherwise).  The companion
    term E[2/(g2 + g4)] equals ``2/(A2 + A4 - 1)``.
    """
    if not (a2 > 1 and a4 > 1):
        raise ValueError("shapes must exceed 1 for a finite expectation")
    return (a2 * a2 + a4 * a4 - a2 - a4) / ((a2 - 1) * (a4 - 1) * (a2 + a4 - 1))


def _ratio_expectation_exact(A2: Fraction, A4: Fraction) -> Fraction:
    return (A2 * A2 + A4 * A4 - A2 - A4) / ((A2 - 1) * (A4 - 1) * (A2 + A4 - 1))


def _d_value(beta: float, r: float, n: int) -> float:
    inner = beta * abs(math.log(beta)) * (math.sqrt(r) if n == 4 else r) / 2.0
    return max(3.0, math.log(inner) / math.log(beta))


def compute_constants_n4(p: ModelParams) -> ConstantsTable:
    """Full constants table for the n = 4 chain."""
    validate_params(p)
    if p.n != 4:
        raise ValueError("compute_constants_n4 requires n=4")
    x, b = Fraction(p.x), Fraction(p.b)
    a = [Fraction(v) for v in p.a]
    A = [a[i] + a[i + 1] for i in range(4)]

    zeta1 = (a[1] + a[2]) / (a[0] + a[1] + a[2] + a[3] - 1)
    zeta2 = (a[2] + a[3]) / (a[1] + a[2] + a[3] + a[4] - 1)
    c1 = zeta1 * x + (a[3] + a[4]) / b
    c2 = (a[0] + a[1] + x * b) / (x * (a[1] + a[2] + a[3] + a[4] - 1))
    a_max = max(zeta1, zeta2)
    eta = (c1 + c2) / (1 - a_max)
    beta = (1 + a_max) / 2

    mu1 = a[2] + a[3]
    mu2 = a[0] + a[1] - Fraction(1, 3)
    rho = 4 * mu1 / mu2
    lead = rho + 4
    coef2 = lead * x + 4 * mu1 / b
    # E[g2/(g1+g3)] factorizes by independence; E[1/Gamma(s,1)] = 1/(s-1)
    e_ratio13 = A[1] / (A[0] + A[2] - 1)
    e_weight = _ratio_expectation_exact(A[1], A[3]) + 2 / (A[1] + A[3] - 1)
    theta1 = (1 / x) * lead * e_ratio13
    theta2 = coef2 * A[2] * e_weight
    theta3 = (1 / x) * lead * (e_ratio13 * x + A[3] / b) + coef2 * (A[0] / x + b) * e_weight
    theta3_app = (1 / x) * lead * (zeta1 * x + (a[3] + a[4]) / b) \
        + (lead * x + (a[3] + a[4]) / b) * (A[0] / x + b) * e_weight
    r = 1 - 1 / (eta * (theta1 + theta2) + theta3)

    exact = {
        "c1": c1, "c2": c2, "zeta1": zeta1, "zeta2": zeta2, "a_max": a_max,
        "eta": eta, "beta": beta, "r": r, "rho": rho, "mu1": mu1, "mu2": mu2,
        "theta1": theta1, "theta2": theta2, "theta3": theta3,
        "theta3_variant": theta3_app,
    }
    return ConstantsTable(
        n=4,
        c1=float(c1), c2=float(c2), zeta1=float(zeta1), zeta2=float(zeta2),
        a_max=float(a_max), eta=float(eta), beta=float(beta), r=float(r),
        d=_d_value(float(beta), float(r), 4),
        rho=float(rho), mu1=float(mu1), mu2=float(mu2),
        theta1=float(theta1), theta2=float(theta2), theta3=float(theta3),
        theta3_variant=float(theta3_app),
        exact=exact,
    )


def compute_constants_n3(p: ModelParams) -> ConstantsTable:
    """Constants for the scalar n = 3 chain.

    Drift terms are K1 = u and K2 = 1/u; K2 contracts in one step
    (zeta2 = 0), and the rate is
    ``r = 1 - min{x,b} / (2 max{x,b} + eta (1 + max{x,b}^2))``.
    ``d`` uses ``r`` rather than ``sqrt(r)``.
    """
    validate_params(p)
    if p.n != 3:
        raise ValueError("compute_constants_n3 requires n=3")
    x, b = Fraction(p.x), Fraction(p.b)
    a = [Fraction(v) for v in p.a]

    zeta1 = (a[1] + a[2]) / (a[0] + a[1] + a[2] + a[3] - 1)
    zeta2 = Fraction(0)
    c1 = zeta1 * (x + b)
    c2 = ((a[0] + a[1]) / x + (a[2] + a[3]) / b) / (a[1] + a[2] - 1)
    a_max = max(zeta1, zeta2)
    eta = 2 * (c1 + c2) / (1 - a_max)
    beta = (1 + a_max) / 2
    mx = max(x, b)
    r = 1 - min(x, b) / (2 * mx + eta * (1 + mx * mx))

    exact = {"c1": c1, "c2": c2, "zeta1": zeta1, "zeta2": zeta2, "a_max": a_max,
             "eta": eta, "beta": beta, "r": r}
    return ConstantsTable(
        n=3,
        c1=float(c1), c2=float(c2), zeta1=float(zeta1), zeta2=float(zeta2),
        a_max=float(a_max), eta=float(eta), beta=float(beta), r=float(r),
        d=_d_value(float(beta), float(r), 3),
        exact=exact,
    )


def compute_constants(p: ModelParams) -> ConstantsTable:
    return compute_constants_n4(p) if p.n == 4 else compute_constants_n3(p)
