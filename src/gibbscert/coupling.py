"""The envelope start and the one-shot coalescence attempt of two reduced chains.

States are tuples of even coordinates, ``(u2, u4)`` for n = 4 and ``(u,)``
for n = 3 (see :mod:`gibbscert.chain`).  :func:`envelope_init` replaces two
arbitrary starts by the corners of the box that holds them; driving every
chain with the same innovation block (:func:`~gibbscert.chain.step` on each)
preserves the componentwise order, so the corner chains keep every chain
started inside the box between them.  At the coupling time, conditionally on
the shared odd-coordinate innovations, each even coordinate is gamma with a
state-dependent rate, and :func:`one_shot_attempt` tries to coalesce the two
chains' coordinates: a candidate is drawn under the lower chain's density and
the chains coalesce when the point also lies under the other density.  It
succeeds with probability one minus the total variation of the two gammas,
the most any coupling of them achieves; the certificate needs only whether it
succeeds, so no residual is drawn.  When the corner chains coalesce, the
point lies under every density between theirs (the envelope inequality of
:func:`~gibbscert.gamma.check_density_envelope`, a row of ``verify``), so
every pair of chains started in the box would coalesce too.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .chain import as_state
from .rng import RngStream

__all__ = ["EnvelopeInit", "envelope_init", "one_shot_attempt"]


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
