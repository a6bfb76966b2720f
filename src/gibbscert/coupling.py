"""Monotone (uniform) coupling and one-shot maximal coupling of reduced chains.

States are tuples of even coordinates, ``(u2, u4)`` for n = 4 and ``(u,)``
for n = 3 (see :mod:`gibbscert.chain`).  The uniform coupling drives every
chain with the same innovation block (:func:`~gibbscert.chain.step` on each),
which preserves the componentwise partial order.  The one-shot coupling
attempts an exact coalescence at a chosen time: conditionally on the shared
odd-coordinate innovations, each even coordinate is gamma with a
state-dependent rate, and matching coordinates are coupled by the
area-under-the-density construction of :func:`one_shot_attempt` (candidate
drawn under the lower chain's density; chains coalesce when the point also
lies under the other density).  When a bracketed inner pair is supplied, all
four chains share the candidate; the envelope inequality on ordered-rate
gamma densities guarantees the construction stays consistent.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional, Tuple

import numpy as np

from .chain import ModelParams, as_state, reduced_rates
from .gamma import gamma_tv
from .rng import RngStream

__all__ = [
    "EnvelopeInit",
    "CouplingOutcome",
    "envelope_init",
    "one_shot_attempt",
    "maximal_gamma_couple",
    "one_shot_step",
]


@dataclass(frozen=True)
class EnvelopeInit:
    """Envelope corners squeezing two arbitrary starting points.

    With ``k`` even coordinates, ``u0 = (m,) * k`` and ``w0 = (M,) * k`` with
    ``m``/``M`` the min/max of all input coordinates; ``r0 = M/m`` and
    ``j0 = k*m + 1/(k*m)``.
    """

    u0: tuple
    w0: tuple
    r0: float
    j0: float


def envelope_init(U0, W0) -> EnvelopeInit:
    coords = as_state(U0) + as_state(W0)
    k = len(coords) // 2
    m = reduce(np.minimum, coords)
    M = reduce(np.maximum, coords)
    if np.any(np.asarray(m) <= 0):
        raise ValueError("states must be strictly positive")
    return EnvelopeInit(u0=(m,) * k, w0=(M,) * k, r0=M / m, j0=k * m + 1.0 / (k * m))


def _log_density_ratio(y, shape, rate_a, rate_b):
    # log f_a(y) - log f_b(y) for common-shape gammas
    return shape * (np.log(rate_a) - np.log(rate_b)) - (rate_a - rate_b) * y


def one_shot_attempt(shape, rate_u, rate_w, rng: RngStream):
    """Candidate under the ``rate_u`` density, accepted for both chains if under ``rate_w``'s.

    Returns ``(y, coalesced)``: ``y ~ Gamma(shape, rate_u)`` and a uniform
    vertical coordinate under its density; the point also lies under the
    ``rate_w`` density (ties resolve toward coalescence) with probability
    ``1 - gamma_tv(shape, rate_u, rate_w)``.  Rates are arrays of one shape.
    """
    y = rng.gamma(shape, size=rate_u.shape) / rate_u
    log_v = np.log(rng.uniform(size=rate_u.shape))  # vertical coord as fraction of f_u
    return y, log_v <= _log_density_ratio(y, shape, rate_w, rate_u)


def _residual_from(shape, rate_target, rate_u, rate_w, rng, idx, out):
    """Rejection-sample the part of the target density above min(f_u, f_w) into ``out[idx]``."""
    pending = idx
    while pending.size:
        prop = rng.gamma(shape, size=pending.size) / rate_target[pending]
        log_vp = np.log(rng.uniform(size=pending.size))
        floor = np.minimum(
            _log_density_ratio(prop, shape, rate_u[pending], rate_target[pending]),
            _log_density_ratio(prop, shape, rate_w[pending], rate_target[pending]),
        )
        accept = log_vp > floor
        out[pending[accept]] = prop[accept]
        pending = pending[~accept]


def maximal_gamma_couple(shape, rate_u, rate_w, rng: RngStream, size=None):
    """Maximally couple Gamma(shape, rate_u) and Gamma(shape, rate_w).

    Returns ``(y_u, y_w, coalesced)``.  The pair coalesces on a
    :func:`one_shot_attempt`, so ``P[coalesced] = 1 - gamma_tv(shape, rate_u,
    rate_w)``.  Otherwise ``y_w`` is resampled by rejection from the part of
    the ``rate_w`` density above the pointwise minimum.  Both marginals are
    exact.
    """
    scalar = size is None and np.ndim(rate_u) == 0 and np.ndim(rate_w) == 0
    n = 1 if scalar else (size if size is not None else np.broadcast(rate_u, rate_w).shape)
    rate_u = np.broadcast_to(np.asarray(rate_u, dtype=float), n).ravel()
    rate_w = np.broadcast_to(np.asarray(rate_w, dtype=float), n).ravel()

    y_u, coalesced = one_shot_attempt(shape, rate_u, rate_w, rng)
    y_w = np.where(coalesced, y_u, np.nan)
    _residual_from(shape, rate_w, rate_u, rate_w, rng, np.flatnonzero(~coalesced), y_w)

    if scalar:
        return float(y_u[0]), float(y_w[0]), bool(coalesced[0])
    shape_out = y_u.shape if size is None else np.shape(np.empty(n))
    return y_u.reshape(shape_out), y_w.reshape(shape_out), coalesced.reshape(shape_out)


@dataclass
class CouplingOutcome:
    """Result of one one-shot coupling attempt.

    ``coalesced`` holds per-coordinate flags; ``coalesced_all`` is their
    conjunction and is equivalent to ``u_next == w_next``.  ``overlap`` is the
    per-coordinate coalescence probability given the realized rates.
    """

    u_next: tuple
    w_next: tuple
    coalesced: tuple
    coalesced_all: object
    overlap: tuple
    inner_next: Optional[Tuple[tuple, tuple]] = None


def one_shot_step(u, w, inner, g13, p: ModelParams, rng: RngStream) -> CouplingOutcome:
    """One-shot coupling of the reduced chains (and optionally an inner pair).

    All chains share ``g13 = (g1, g3)``; each even coordinate is then coupled
    through its conditional gamma distribution by :func:`one_shot_attempt`,
    and the chains that miss draw their residuals.  With ``inner=(U, W)``
    supplied, ``u <= {U, W} <= w`` componentwise is required; inner chains can
    only disagree at a coordinate where the outer pair disagrees.
    """
    scalar = np.ndim(u[0]) == 0
    as_vec = lambda s: tuple(np.atleast_1d(np.asarray(c, dtype=float)) for c in s)
    u, w, g13 = as_vec(u), as_vec(w), as_vec(g13)
    if any(np.any(a > b) for a, b in zip(u, w)):
        raise ValueError("one_shot_step requires u <= w componentwise")
    chains = [u, w]
    if inner is not None:
        chains += [as_vec(s) for s in inner]
        for s in chains[2:]:
            if any(np.any(c < lo) or np.any(c > hi) for c, lo, hi in zip(s, u, w)):
                raise ValueError("inner chains must lie between u and w componentwise")

    rates = [reduced_rates(s, g13, p) for s in chains]
    out = [[] for _ in chains]
    flags, overlaps = [], []
    for i, alpha in enumerate(p.shapes[1::2]):
        ru, rw = rates[0][i], rates[1][i]
        y, coal = one_shot_attempt(alpha, ru, rw, rng)
        tv, _ = gamma_tv(alpha, ru, rw)
        overlaps.append(1.0 - np.atleast_1d(tv))
        flags.append(coal)
        out[0].append(y)
        miss = np.flatnonzero(~coal)
        for k in range(1, len(chains)):
            yk = np.where(coal, y, np.nan)
            _residual_from(alpha, rates[k][i], ru, rw, rng, miss, yk)
            out[k].append(yk)

    unwrap = (lambda v: v[0].item()) if scalar else (lambda v: v)
    tup = lambda vs: tuple(map(unwrap, vs))
    return CouplingOutcome(
        u_next=tup(out[0]),
        w_next=tup(out[1]),
        coalesced=tup(flags),
        coalesced_all=unwrap(np.logical_and.reduce(flags)),
        overlap=tup(overlaps),
        inner_next=(tup(out[2]), tup(out[3])) if inner is not None else None,
    )
