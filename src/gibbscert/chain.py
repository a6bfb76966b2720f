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
]


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

