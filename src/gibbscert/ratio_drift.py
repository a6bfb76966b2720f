"""Ratio process, drift quantities, and pathwise inequality checkers.

A coupled record tracks the lower chain ``u``, the upper chain ``w``, and the
auxiliary pair ``v_tilde = F(v)`` / ``v = R * u`` that dominates ``w`` while
keeping both coordinates at the exact common ratio ``R``.  ``R`` is
non-increasing; the drift terms ``K1 = u2 + u4`` and
``K2 = (u1 + u3 + b) / (g2 + g4)`` control how fast it contracts, through the
dominating process ``D`` and the i.i.d. weights ``omega``.  States are tuples
of even coordinates and a block is the tuple ``(g1, ..., gn)`` (see
:mod:`gibbscert.chain`).  For n = 3 the scalar pair is coupled directly:
``v = w``, ``R = w/u``, ``K1 = u`` and ``K2 = 1/u``.  Records carry no omega
weights or rate bound: :func:`check_pathwise` computes the omegas from the
block, and the stopping-time experiment calls :func:`compute_r_hat`.

Every inequality the construction rests on is checkable pathwise; see
:func:`check_pathwise`.  Checks carry a relative slack of ``1e-10`` to absorb
floating-point non-associativity, nothing more.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain import ModelParams, odd_coordinates
# :func:`~gibbscert.chain.step` under its own name, so the benchmark can time ratio_step's chain updates
from .chain import step as step_reduced
from .coupling import envelope_init

__all__ = [
    "CoupledRecord",
    "PathwiseViolation",
    "REL_SLACK",
    "init_record",
    "ratio_step",
    "compute_q",
    "compute_r_hat",
    "drift_quantities",
    "compute_omegas",
    "check_pathwise",
    "assert_pathwise",
]

REL_SLACK = 1e-10


class PathwiseViolation(AssertionError):
    """A proven pathwise inequality failed beyond the floating-point slack."""


@dataclass
class CoupledRecord:
    """Per-step state of the coupled system (scalar or replica-vectorized).

    ``q`` is the contraction factor of the transition that produced this
    record and ``u_full`` the 4-coordinate lower chain whose odd coordinates
    feed ``k2``.  ``q`` and ``d`` are NaN at t = 0, and ``u_full`` is None
    there.  n = 3 records have no dominating process: past t = 0 those
    fields are None.
    """

    t: int
    u: tuple
    w: tuple
    v_tilde: tuple
    v: tuple
    ratio: object
    k1: object
    k2: object
    j: object
    q: object = None
    d: object = None
    u_full: Optional[tuple] = None


def _mu(p: ModelParams):
    mu1 = p.a[2] + p.a[3]
    mu2 = p.a[0] + p.a[1] - 1.0 / 3.0
    return mu1, mu2


def _d_coeffs(p: ModelParams):
    mu1, mu2 = _mu(p)
    lead = 4.0 * mu1 / mu2 + 4.0
    return lead, lead * p.x + 4.0 * mu1 / p.b


def init_record(U0, W0) -> CoupledRecord:
    """Envelope-initialized record at t = 0 (v = w = (M, ..., M), u = (m, ..., m))."""
    env = envelope_init(U0, W0)
    u, w = env.u0, env.w0
    nan = np.full_like(np.asarray(u[0], dtype=float), np.nan) if np.ndim(u[0]) else float("nan")
    k1 = sum(u[1:], u[0])
    k2 = 1.0 / k1
    return CoupledRecord(
        t=0,
        u=u,
        w=w,
        v_tilde=w,
        v=w,
        ratio=env.r0,
        k1=k1,
        k2=k2,
        j=k1 + k2,
        q=nan,
        d=nan,
    )


def compute_q(u, v, g, p: ModelParams):
    """Contraction factor of the ratio under one shared block, u <= v.

    ``max{ (g3 + b*u4)/(g3 + b*v4), (g3 + g1/(1+x/u2))/(g3 + g1/(1+x/v2)) }``;
    always in (0, 1], and 1 only when u = v in the binding coordinate.
    """
    g1, _, g3, _ = g
    first = (g3 + p.b * u[1]) / (g3 + p.b * v[1])
    second = (g3 + g1 / (1.0 + p.x / u[0])) / (g3 + g1 / (1.0 + p.x / v[0]))
    return np.maximum(first, second)


def compute_r_hat(u, v, p: ModelParams):
    """State-dependent contraction rate bound from the one-quarter argument.

    ``1 - 1/max{ (4*mu1/mu2 + 4)(u2/x + x/v2 + 2), 4 + 4*mu1/(b*v4) }`` with
    ``mu1 = a3 + a4`` and ``mu2 = a1 + a2 - 1/3`` (positive for every valid model).
    """
    mu1, mu2 = _mu(p)
    lead = 4.0 * mu1 / mu2 + 4.0
    denom = np.maximum(lead * (u[0] / p.x + p.x / v[0] + 2.0), 4.0 + 4.0 * mu1 / (p.b * v[1]))
    return 1.0 - 1.0 / denom


def compute_omegas(g, p: ModelParams):
    """The i.i.d. weights (omega1, omega2, omega3, omega_tilde2) of one block."""
    if p.n != 4:
        raise ValueError("omegas are defined for the n=4 chain")
    g1, g2, g3, g4 = g
    lead, coef2 = _d_coeffs(p)
    om_t2 = 2.0 + g2 / g4 + g4 / g2
    om1 = (1.0 / p.x) * lead * g2 / (g1 + g3)
    om2 = coef2 * om_t2 * g3 / (g2 + g4)
    om3 = (1.0 / p.x) * lead * (g2 / (g1 + g3) * p.x + g4 / p.b) + coef2 * om_t2 * (g1 / p.x + p.b) / (g2 + g4)
    return om1, om2, om3, om_t2


def drift_quantities(u_full, prev_block: Optional[tuple], p: ModelParams, t: int):
    """(K1, K2, J, D) at step ``t`` for a 4-coordinate state.

    For t >= 1 the state must be the one the block produced (K2 divides by
    that block's g2 + g4).  K2 at t = 0 is 1/(u2 + u4), and D is defined only
    for t >= 1 (NaN at t = 0).
    """
    u1, u2, u3, u4 = u_full
    k1 = u2 + u4
    if t == 0:
        k2 = 1.0 / (u2 + u4)
        d = float("nan") if np.ndim(u2) == 0 else np.full_like(np.asarray(u2, dtype=float), np.nan)
    else:
        k2 = (u3 + u1 + p.b) / (prev_block[1] + prev_block[3])
        lead, coef2 = _d_coeffs(p)
        d = (1.0 / p.x) * lead * (u2 + u4) + coef2 * (1.0 / u2 + 1.0 / u4)
    j = k1 + k2
    return k1, k2, j, d


def ratio_step(rec: CoupledRecord, g, p: ModelParams) -> CoupledRecord:
    """Advance the coupled record one step under a shared block.

    ``u' = F(u)``, ``w' = F(w)``, ``v_tilde' = F(v)``,
    ``R' = max{v_tilde2'/u2', v_tilde4'/u4'}``, ``v' = R' * u'``; drift
    quantities are refreshed from the block that produced the new state.
    For n = 3, ``R' = w'/u'`` directly.
    """
    u_next = step_reduced(rec.u, g, p)
    w_next = step_reduced(rec.w, g, p)
    if p.n == 3:
        k2 = 1.0 / u_next[0]
        return CoupledRecord(
            t=rec.t + 1,
            u=u_next,
            w=w_next,
            v_tilde=w_next,
            v=w_next,
            ratio=w_next[0] / u_next[0],
            k1=u_next[0],
            k2=k2,
            j=u_next[0] + k2,
        )
    vt_next = step_reduced(rec.v, g, p)
    q = compute_q(rec.u, rec.v, g, p)
    ratio = np.maximum(vt_next[0] / u_next[0], vt_next[1] / u_next[1])
    v_next = (ratio * u_next[0], ratio * u_next[1])

    u1_next, u3_next = odd_coordinates(rec.u, g[0::2], p)
    u_full_next = (u1_next, u_next[0], u3_next, u_next[1])
    k1, k2, j, d = drift_quantities(u_full_next, g, p, rec.t + 1)
    return CoupledRecord(
        t=rec.t + 1,
        u=u_next,
        w=w_next,
        v_tilde=vt_next,
        v=v_next,
        ratio=ratio,
        q=q,
        k1=k1,
        k2=k2,
        j=j,
        d=d,
        u_full=u_full_next,
    )


def _leq(a, b):
    return a <= b * (1.0 + REL_SLACK)


def check_pathwise(rec_t: CoupledRecord, rec_t1: CoupledRecord, g, p: ModelParams):
    """Evaluate the seven proven pathwise inequalities on one transition.

    ``g`` must be the block that produced ``rec_t1`` from ``rec_t``.  Returns
    a dict of named booleans (arrays when the records are vectorized), each
    allowing relative slack ``1e-10``.  For n = 3 the four scalar-chain
    inequalities are checked instead.
    """
    if p.n == 3:
        return _check_pathwise_n3(rec_t, rec_t1, g, p)
    g1, g2, g3, g4 = g
    u2, u4 = rec_t.u
    u2n, u4n = rec_t1.u
    w2n, w4n = rec_t1.w
    vt2n, vt4n = rec_t1.v_tilde
    v2n, v4n = rec_t1.v
    om1, om2, om3, om_t2 = compute_omegas(g, p)

    checks = {}
    # (i) even-coordinate sum recursion
    checks["sum_recursion"] = _leq(u2n + u4n, (g2 / (g1 + g3)) * (u2 + u4 + p.x) + g4 / p.b)
    # (ii) K2 recursion
    checks["k2_recursion"] = _leq(rec_t1.k2, (g3 / (g2 + g4)) * rec_t.k2 + (rec_t1.u_full[0] + p.b) / (g2 + g4))
    # (iii) inverse coordinates dominated through K2
    checks["inverse_bound"] = _leq(1.0 / u2n + 1.0 / u4n, om_t2 * rec_t1.k2)
    # (iv) D recursion through the omega weights
    checks["d_recursion"] = _leq(rec_t1.d, om1 * rec_t.k1 + om2 * rec_t.k2 + om3)
    # (v) ratio contraction R' <= Q R <= R
    qr = rec_t1.q * rec_t.ratio
    checks["ratio_contraction"] = _leq(rec_t1.ratio, qr) & _leq(qr, rec_t.ratio)
    # (vi) order chain u <= w <= v_tilde <= v after the step
    checks["order_chain"] = (
        _leq(u2n, w2n)
        & _leq(u4n, w4n)
        & _leq(w2n, vt2n)
        & _leq(w4n, vt4n)
        & _leq(vt2n, v2n)
        & _leq(vt4n, v4n)
    )
    # (vii) exact ratio equality of v over u in both coordinates
    checks["ratio_equality"] = np.abs(v2n / u2n - v4n / u4n) <= REL_SLACK * rec_t1.ratio
    return checks


def _check_pathwise_n3(rec_t: CoupledRecord, rec_t1: CoupledRecord, g, p: ModelParams):
    """Order, ratio contraction, sum recursion and inverse bound of the scalar pair."""
    g1, g2, g3 = g
    (u,), (u_next,), (w_next,) = rec_t.u, rec_t1.u, rec_t1.w
    return {
        "order": u_next <= w_next,
        "ratio_contraction": _leq(rec_t1.ratio, rec_t.ratio),
        "sum_recursion": _leq(u_next, (g2 / (g1 + g3)) * (u + p.x + p.b)),
        "inverse_bound": _leq(rec_t1.k2, g1 / (g2 * p.x) + g3 / (g2 * p.b)),
    }


def assert_pathwise(checks, rec_t: CoupledRecord, rec_t1: CoupledRecord):
    """Raise :class:`PathwiseViolation` with a state dump on any failure."""
    for name, ok in checks.items():
        ok = np.asarray(ok)
        if not ok.all():
            idx = np.flatnonzero(~ok.ravel())[:5]
            dump = {
                "check": name,
                "t": rec_t.t,
                "replicas": idx.tolist(),
                "u_t": [np.ravel(c)[idx].tolist() for c in rec_t.u],
                "v_t": [np.ravel(c)[idx].tolist() for c in rec_t.v],
                "u_t1": [np.ravel(c)[idx].tolist() for c in rec_t1.u],
                "w_t1": [np.ravel(c)[idx].tolist() for c in rec_t1.w],
                "v_t1": [np.ravel(c)[idx].tolist() for c in rec_t1.v],
                "ratio": np.ravel(rec_t1.ratio)[idx].tolist(),
            }
            raise PathwiseViolation(f"pathwise check failed: {dump}")
