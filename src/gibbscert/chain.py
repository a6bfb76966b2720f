"""The hierarchical gamma model and its Gibbs chains.

Supports chain depth ``n = 4`` and ``n = 3``.  The Gibbs sampler draws the odd
coordinates given the even ones and then the even coordinates given the odd
ones, so the even coordinates alone form a Markov chain.  A state of that
chain is the tuple of its even coordinates: ``(u2, u4)`` for n = 4 and
``(u,)`` for n = 3, each a scalar or a numpy array of replicas.

The chain's formula lives in :func:`odd_coordinates` and
:func:`reduced_rates`: every coordinate is gamma with rate the sum of its two
neighbours in ``(x, u1, ..., un, b)``.  A block is the plain tuple of one
step's innovations ``(g1, ..., gn)`` (see :func:`draw_block`); :func:`step`
divides each even innovation by its rate, and :func:`step_full` also returns
the odd coordinates.  All formulas are written in one fixed literal grouping
so that coupled trajectories stay bit-stable and floating-point evaluation
preserves the componentwise order.

The chain's stationary law pi is the posterior of the hierarchy
``x | u1 ~ Gamma(a1, rate u1)``, ``u_i | u_{i+1} ~ Gamma(a_{i+1}, rate
u_{i+1})``, ``u_n ~ Gamma(a_{n+1}, rate b)``; :func:`draw_pi` samples its even
coordinates exactly, with no chain.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import RngStream

__all__ = [
    "ModelParams",
    "ParamError",
    "validate_params",
    "block_shapes",
    "draw_block",
    "as_state",
    "odd_coordinates",
    "reduced_rates",
    "step",
    "step_full",
    "draw_pi",
]

PI_ROUND = 32_768  # proposals per round of draw_pi; the first round of a call is its pilot
# below this pilot acceptance the 2e5 draws of estimate-pi's default take over 2e7 proposals
PI_ACCEPTANCE_FLOOR = 0.01


class ParamError(ValueError):
    """A model or run parameter is out of range; the message names the condition."""


@dataclass(frozen=True)
class ModelParams:
    """Problem instance: data ``x``, top rate ``b``, shapes ``a1..a_{n+1}``."""

    n: int
    x: float
    b: float
    a: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        validate_params(self)

    @cached_property
    def shapes(self):
        """Gamma shapes a_i + a_{i+1} of the innovation block."""
        return block_shapes(self)

    @property
    def sum_tail(self):
        """a2+a3+a4+a5 for n=4, a2+a3 for n=3 (the one-shot exponent)."""
        if self.n == 4:
            return self.a[1] + self.a[2] + self.a[3] + self.a[4]
        return self.a[1] + self.a[2]


def validate_params(p: ModelParams) -> ModelParams:
    """Check all parameter conditions, naming the first violated one."""
    if p.n not in (3, 4):
        raise ParamError(f"n must be 3 or 4, got {p.n}")
    for name, v in (("x", p.x), ("b", p.b), *((f"a{i}", ai) for i, ai in enumerate(p.a, start=1))):
        if not math.isfinite(v):
            raise ParamError(f"{name} must be finite, got {v}")
    if not p.x > 0:
        raise ParamError("x <= 0")
    if not p.b > 0:
        raise ParamError("b <= 0")
    if len(p.a) != p.n + 1:
        raise ParamError(f"a must have length n+1 = {p.n + 1}, got {len(p.a)}")
    for i, ai in enumerate(p.a, start=1):
        if not ai > 0:
            raise ParamError(f"a{i} <= 0")
    a = p.a
    if p.n == 4:
        pairs = [(1, 4), (2, 5), (2, 3), (3, 4), (4, 5)]
    else:
        pairs = [(1, 4), (2, 3)]
    for i, j in pairs:
        if not a[i - 1] + a[j - 1] > 1:
            raise ParamError(f"a{i}+a{j} <= 1")
    if p.n == 4 and not a[0] + a[1] > 1.0 / 3.0:
        raise ParamError("a1+a2 <= 1/3")  # the dominating process D and r-hat need mu2 = a1 + a2 - 1/3 > 0
    return p


def block_shapes(p: ModelParams):
    return tuple(p.a[i] + p.a[i + 1] for i in range(p.n))


def draw_block(p: ModelParams, rng: RngStream, size=None) -> tuple:
    """Draw one block ``(g1, ..., gn)``, g_i ~ Gamma(a_i + a_{i+1}, 1) independent across i.

    Each g_i is a scalar, or an array of shape ``size`` for vectorized replicas.
    """
    return tuple([rng.gamma(s, size=size) for s in p.shapes])


def as_state(s):
    """A state as the tuple of its even coordinates; a bare scalar is the n = 3 state ``(s,)``."""
    return (s,) if np.ndim(s) == 0 else tuple(s)


def odd_coordinates(s, g_odd, p: ModelParams):
    """The odd coordinates ``(u1, u3)`` drawn from ``g_odd = (g1, g3)`` given the even state.

    ``u1 = g1 / (x + u2)``; ``u3 = g3 / (u2 + u4)`` for n = 4 and
    ``g3 / (u2 + b)`` for n = 3.
    """
    g1, g3 = g_odd
    z = (p.x, *s, p.b)
    return g1 / (z[0] + z[1]), g3 / (z[1] + z[2])


def reduced_rates(s, g_odd, p: ModelParams):
    """Conditional gamma rates of the next even coordinates given the state and (g1, g3).

    ``(u1 + u3, u3 + b)`` for n = 4 and ``(u1 + u3,)`` for n = 3, with the odd
    coordinates of :func:`odd_coordinates`.
    """
    u1, u3 = odd_coordinates(s, g_odd, p)
    if p.n == 3:
        return (u1 + u3,)
    return u1 + u3, u3 + p.b


def step(s, gammas, p: ModelParams):
    """One update of the even-coordinate chain: each even innovation over its rate.

    ``gammas`` is the block ``(g1, ..., gn)``.
    """
    return tuple(map(operator.truediv, gammas[1::2], reduced_rates(s, gammas[0::2], p)))


def step_full(s, g, p: ModelParams):
    """One update of the 4-coordinate kernel (odd coordinates, then even).

    The output does not depend on the input u1 or u3; coordinates 2 and 4
    agree with :func:`step` on (u2, u4).
    """
    even = (s[1], s[3])
    u1, u3 = odd_coordinates(even, g[0::2], p)
    u2, u4 = step(even, g, p)
    return (u1, u2, u3, u4)


def _pi_proposals(p: ModelParams, rng: RngStream, m):
    """``m`` prior draws of the even state, and whether each is accepted as a draw from pi.

    ``u_n, ..., u2`` come from the prior.  With u1 integrated out, x given u2
    has likelihood proportional to ``u2^a2 / (x + u2)^(a1 + a2)``, largest at
    ``u2* = a2 x / a1``; a proposal is accepted with probability
    ``L(u2) / L(u2*)``.
    """
    u = rng.gamma(p.a[-1], size=m) / p.b
    coords = [u]
    for shape in p.a[p.n - 1:1:-1]:  # a_n, ..., a_3
        u = rng.gamma(shape, size=m) / u
        coords.append(u)
    a1, a2 = p.a[0], p.a[1]
    mode = a2 * p.x / a1
    log_lik = a2 * np.log(u / mode) - (a1 + a2) * np.log((p.x + u) / (p.x + mode))
    accept = np.log(rng.uniform(size=m)) <= log_lik
    return tuple(coords[::-2]), accept  # (u2, u4) or (u2,)


def draw_pi(p: ModelParams, rng: RngStream, size: int):
    """``size`` exact i.i.d. draws of the even state from pi, and the proposals they took.

    Proposes in rounds of ``PI_ROUND`` (see :func:`_pi_proposals`) until
    ``size`` are accepted; surplus acceptances of the last round are dropped.
    Returns ``(state, proposals)``: ``state`` is a tuple of arrays of length
    ``size`` and ``proposals`` counts the proposals up to the last kept draw,
    so ``size / proposals`` estimates the acceptance.  Raises
    :class:`ParamError` when the first round, the pilot, accepts less than
    ``PI_ACCEPTANCE_FLOOR``.
    """
    parts, kept, proposals = [], 0, 0
    while kept < size:
        state, accept = _pi_proposals(p, rng, PI_ROUND)
        if not parts and accept.mean() < PI_ACCEPTANCE_FLOOR:
            raise ParamError(
                f"the exact pi sampler accepts {accept.mean():.3g} of {PI_ROUND} pilot proposals, "
                f"below the floor {PI_ACCEPTANCE_FLOOR}"
            )
        idx = np.flatnonzero(accept)[: size - kept]
        parts.append(tuple(c[idx] for c in state))
        kept += idx.size
        proposals += int(idx[-1]) + 1 if kept == size else PI_ROUND
    return tuple(np.concatenate(c) for c in zip(*parts)), proposals
