"""Total-variation bound evaluation, threshold solving, and equilibrium functionals.

``evaluate_bound`` computes the literal bound formulas; the argument ``t`` is
the *theorem* index (the bounded distance is between the chains at wall-clock
step ``t + 3`` for n = 4, ``t + 2`` for n = 3).  ``minimal_t`` inverts the
bound for a target accuracy by exponential-then-binary search; since total
variation never exceeds 1, the comparison uses the clamped bound (only the
degenerate target eps = 1 is affected).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain import ModelParams, ParamError, draw_pi
from .constants import ConstantsTable
from .coupling import envelope_init
from .rng import RngStream

__all__ = ["BoundSpec", "evaluate_bound", "wall_clock_step", "minimal_t", "PiFunctionals", "estimate_pi_functionals"]

THEOREMS = ("fixed_start_small_j0", "fixed_start", "equilibrium_start", "n3")
PI_BATCH = 16_384  # exact draws held at once by estimate_pi_functionals


@dataclass(frozen=True)
class BoundSpec:
    """A bound formula bundled with its constants and starting quantities.

    Fixed-start forms use ``r0``/``j0``; the equilibrium-start form uses
    ``e_r0_minus_1`` (an upper bound or estimate of the mean excess ratio at
    start) and ``e_j0``.  ``sum_a`` is a2+a3+a4+a5 for n = 4 and a2+a3 for
    n = 3.  A spec whose theorem does not apply raises :class:`ParamError`:
    ``n3`` is the n = 3 theorem and the others are n = 4 theorems,
    ``fixed_start_small_j0`` needs ``j0 <= eta``, and since every start has
    ``R0 >= 1`` and ``J0 = k*m + 1/(k*m) >= 2``, ``e_r0_minus_1 >= 0`` and
    ``e_j0 >= 2``.
    """

    theorem: str
    table: ConstantsTable
    sum_a: float
    r0: Optional[float] = None
    j0: Optional[float] = None
    e_r0_minus_1: Optional[float] = None
    e_j0: Optional[float] = None

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ParamError(f"unknown theorem {self.theorem!r}")
        if (self.theorem == "n3") != (self.table.n == 3):
            raise ParamError(f"theorem {self.theorem} does not apply to an n={self.table.n} model")
        if self.theorem in ("fixed_start_small_j0", "fixed_start", "n3"):
            if self.r0 is None or self.r0 < 1:
                raise ParamError("r0 >= 1 required")
            if self.theorem != "fixed_start_small_j0" and (self.j0 is None or self.j0 <= 0):
                raise ParamError("j0 > 0 required")
            if self.theorem == "fixed_start_small_j0" and self.j0 is not None and self.j0 > self.table.eta:
                raise ParamError(f"fixed_start_small_j0 requires j0 <= eta = {self.table.eta}, got {self.j0}")
        else:
            if self.e_r0_minus_1 is None or self.e_j0 is None:
                raise ParamError("equilibrium_start requires e_r0_minus_1 and e_j0")
            if not 0 <= self.e_r0_minus_1 < math.inf:
                raise ParamError(f"e_r0_minus_1 must be non-negative and finite, got {self.e_r0_minus_1}")
            if not 2 <= self.e_j0 < math.inf:
                raise ParamError(f"e_j0 must be at least 2 and finite, got {self.e_j0}")


def evaluate_bound(spec: BoundSpec, t) -> float:
    """The bound value at theorem index ``t`` (unclamped; TV itself is <= 1)."""
    tab = spec.table
    r, d, beta, eta = tab.r, tab.d, tab.beta, tab.eta
    t = float(t)
    geom = lambda expnt: r ** expnt
    tail = beta ** (math.floor(t / 2.0) + 3)
    if spec.theorem == "fixed_start_small_j0":
        return 3.0 * geom(t / (2.0 * d)) * spec.sum_a * (spec.r0 - 1.0)
    if spec.theorem == "fixed_start":
        return 3.0 * geom(t / (4.0 * d)) * spec.sum_a * (spec.r0 - 1.0) + (max(spec.j0, eta) / eta) * tail
    if spec.theorem == "equilibrium_start":
        return 3.0 * geom(t / (4.0 * d)) * spec.sum_a * spec.e_r0_minus_1 + (spec.e_j0 / eta + 1.0) * tail
    # n3
    return geom(t / (2.0 * d)) * (1.0 + 3.0 * spec.sum_a * (spec.r0 - 1.0)) + (max(spec.j0, eta) / eta) * tail


def wall_clock_step(p: ModelParams, t):
    """The wall-clock step of the coupled chains whose distance theorem index ``t`` bounds."""
    return t + (3 if p.n == 4 else 2)


def minimal_t(spec: BoundSpec, epsilon: float) -> int:
    """Smallest theorem index t with min(1, bound(t)) <= epsilon."""
    if not (0 < epsilon <= 1):
        raise ParamError(f"epsilon must be in (0, 1], got {epsilon}")
    clamped = lambda t: min(1.0, evaluate_bound(spec, t))
    if clamped(0) <= epsilon:
        return 0
    hi = 1
    while clamped(hi) > epsilon:
        hi *= 2
        if hi > 2 ** 62:
            raise RuntimeError("bound does not reach epsilon")
    lo = hi // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if clamped(mid) <= epsilon:
            hi = mid
        else:
            lo = mid + 1
    return hi


@dataclass
class PiFunctionals:
    """Monte Carlo estimates of the equilibrium start functionals.

    For n = 4, ``c_pi`` estimates E_pi[max{1, v2, v4} / min{1, v2, v4}] and
    ``c_j`` estimates E_pi[2m + 1/(2m)] with m = min{1, v2, v4}: the
    quantities entering the equilibrium-start bound for the start (1, 1).
    For n = 3 the analogues are E_pi[max{1, v}/min{1, v}] and
    E_pi[m + 1/m] with m = min{1, v}.  The draws are exact and independent,
    so the standard errors are plain i.i.d. ones; ``acceptance`` is the
    fraction of proposals that :func:`~gibbscert.chain.draw_pi` kept.
    """

    c_pi: float
    c_pi_se: float
    c_j: float
    c_j_se: float
    n_draws: int
    acceptance: float


def estimate_pi_functionals(p: ModelParams, n_samples: int = 200_000, rng: Optional[RngStream] = None) -> PiFunctionals:
    """Sample means of the equilibrium start functionals over exact draws from pi.

    Draws ``PI_BATCH`` states at a time, applies :func:`envelope_init` from
    the all-ones start to each and keeps only the running sums and sums of
    squares, so memory does not grow with ``n_samples``.
    """
    if n_samples < 1:
        raise ParamError(f"n_samples must be at least 1, got {n_samples}")
    if rng is None:
        rng = RngStream(0)
    ones = (1.0,) * (p.n // 2)
    sums, sum_squares, proposals = np.zeros(2), np.zeros(2), 0
    for start in range(0, n_samples, PI_BATCH):
        state, used = draw_pi(p, rng, min(PI_BATCH, n_samples - start))
        env = envelope_init(ones, state)
        f = np.stack((env.r0, env.j0))
        sums += f.sum(axis=1)
        sum_squares += (f * f).sum(axis=1)
        proposals += used
    mean = sums / n_samples
    if n_samples > 1:
        se = np.sqrt(np.maximum(sum_squares / n_samples - mean * mean, 0.0) / (n_samples - 1))
    else:
        se = np.full(2, math.inf)
    return PiFunctionals(
        c_pi=float(mean[0]), c_pi_se=float(se[0]), c_j=float(mean[1]), c_j_se=float(se[1]),
        n_draws=n_samples, acceptance=n_samples / proposals,
    )
