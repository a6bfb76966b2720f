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
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain import ModelParams, ParamError, draw_block, step
from .constants import ConstantsTable
from .coupling import envelope_init
from .rng import RngStream

__all__ = ["BoundSpec", "evaluate_bound", "wall_clock_step", "minimal_t", "PiFunctionals", "estimate_pi_functionals"]

THEOREMS = ("fixed_start_small_j0", "fixed_start", "equilibrium_start", "n3")
PI_CHAINS = 128  # independent chains (batches) behind the equilibrium functionals


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
    E_pi[m + 1/m] with m = min{1, v}.  Standard errors come from
    independent-chain batch means.
    """

    c_pi: float
    c_pi_se: float
    c_j: float
    c_j_se: float
    n_kept: int
    n_chains: int
    lag1_autocorr: float


def estimate_pi_functionals(
    p: ModelParams,
    burn_in: int = 100_000,
    n_samples: int = 200_000,
    thinning: int = 1,
    rng: Optional[RngStream] = None,
    autocorr_threshold: float = 0.5,
) -> PiFunctionals:
    """Ergodic-average estimates of the equilibrium start functionals.

    Runs ``PI_CHAINS`` independent chains from the all-ones start, discards
    ``burn_in`` steps, then averages the functionals over thinned samples.
    Each chain is one batch; the CI comes from the spread of batch means.
    Warns when the within-chain lag-1 autocorrelation of the heavy functional
    exceeds ``autocorr_threshold``.
    """
    if burn_in < 0:
        raise ParamError(f"burn_in must be non-negative, got {burn_in}")
    if n_samples < 1:
        raise ParamError(f"n_samples must be at least 1, got {n_samples}")
    if thinning < 1:
        raise ParamError(f"thinning must be at least 1, got {thinning}")
    if rng is None:
        rng = RngStream(0)
    per_chain = max(1, -(-n_samples // PI_CHAINS))
    ones = (1.0,) * (p.n // 2)
    state = (np.ones(PI_CHAINS),) * len(ones)

    def advance(s):
        return step(s, draw_block(p, rng, size=PI_CHAINS), p)

    for _ in range(burn_in):
        state = advance(state)

    f_pi = np.empty((per_chain, PI_CHAINS))
    f_j = np.empty((per_chain, PI_CHAINS))
    for k in range(per_chain):
        for _ in range(thinning):
            state = advance(state)
        env = envelope_init(ones, state)
        f_pi[k], f_j[k] = env.r0, env.j0

    batch_pi = f_pi.mean(axis=0)
    batch_j = f_j.mean(axis=0)
    c_pi = float(batch_pi.mean())
    c_j = float(batch_j.mean())
    se_pi = float(batch_pi.std(ddof=1) / math.sqrt(PI_CHAINS))
    se_j = float(batch_j.std(ddof=1) / math.sqrt(PI_CHAINS))

    if per_chain > 2:
        centered = f_pi - f_pi.mean(axis=0, keepdims=True)
        num = (centered[1:] * centered[:-1]).sum()
        den = (centered ** 2).sum()
        auto = float(num / den) if den > 0 else 0.0
    else:
        auto = 0.0
    if auto > autocorr_threshold:
        warnings.warn(
            f"lag-1 autocorrelation {auto:.3f} exceeds {autocorr_threshold}; "
            "consider more thinning",
            stacklevel=2,
        )
    return PiFunctionals(
        c_pi=c_pi, c_pi_se=se_pi, c_j=c_j, c_j_se=se_j,
        n_kept=per_chain * PI_CHAINS, n_chains=PI_CHAINS, lag1_autocorr=auto,
    )
