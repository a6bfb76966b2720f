"""Monte Carlo verification harness.

Runs replicated coupled trajectories, checks every proven pathwise
inequality on every step, estimates total variation by one-shot coupling,
verifies the probabilistic ingredients (drift conditions, stopping-time
contraction, excursion counts) at desk scale, and sweeps the deterministic
facts behind the constants and the coupling.

States are tuples of even coordinates, ``(u2, u4)`` for n = 4 and ``(u,)``
for n = 3 (a bare scalar is accepted for the latter), and a block is the tuple
of innovations ``(g1, ..., gn)`` from :func:`~gibbscert.chain.draw_block`.
The replica loop, the single-replica walk and the TV harness serve both
depths; only the checked per-step update
(:func:`~gibbscert.ratio_drift.ratio_step` with
:func:`~gibbscert.ratio_drift.check_pathwise`) and the bound theorem differ.
Every one-sided check allows ``SIGMAS`` standard errors.

Reproducibility contract: replicas are processed in fixed-size chunks and
chunk ``i`` always draws from ``RngStream(seed, stream_id=i)``, so results
are bit-identical across runs and across worker counts; workers only execute
independent chunks, and aggregation is ordered by chunk index.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from scipy import special as sp

from .bounds import BoundSpec, evaluate_bound, wall_clock_step
from .chain import ModelParams, ParamError, draw_block, reduced_rates, step, step_full
from .constants import ConstantsTable, compute_constants, ratio_expectation_closed_form
from .coupling import envelope_init, one_shot_attempt
from .gamma import check_density_envelope, gamma_tv, median_probabilities
from .ratio_drift import (
    PathwiseViolation, assert_pathwise, check_pathwise, compute_r_hat, drift_quantities, init_record, ratio_step,
)
from .rng import RngStream

__all__ = [
    "McConfig",
    "McReport",
    "ReplicaStats",
    "run_replicas",
    "estimate_tv_by_coupling",
    "verify_drift_mc",
    "history_states",
    "stopped_states",
    "one_shot_ratio_bound_mc",
    "stopping_time_mc",
    "moment_identity_mc",
    "verify_inequality_suite",
    "verify_auxiliary_math",
    "verify_suite",
    "tv_grid_reports",
    "default_drift_states",
    "trajectory",
]

SIGMAS = 3.0          # one-sided confidence width, in standard errors
VISIT_TMAX = 20       # excursion counts are tracked for t <= VISIT_TMAX
JCHECK_TMAX = 10      # the excursion J decay is checked for t <= JCHECK_TMAX
STOPPING_CAP = 5_000  # steps after which an unresolved stopping time is an error
IDENTITY_CHUNK = 2_000_000  # gamma pairs per stream in the moment identity
AUX_D_VALUES = (9.2551, 9.3047, 3.0)
AUX_BETAS = (7.0 / 9.0, 0.51, 0.6, 0.9, 0.99)
AUX_ENVELOPE_SHAPES = (0.5, 1.0, 3.0, 9.0, 25.0)
AUX_ENVELOPE_RATES = ((1.0, 2.0, 3.0, 4.0), (1.0, 1.1, 1.2, 1.3), (0.1, 0.5, 5.0, 50.0), (0.2, 0.21, 7.0, 7.5))
AUX_MEDIAN_SHAPES = tuple(np.logspace(-2.0, 2.0, 81))


@dataclass
class McConfig:
    """Sizing and seeding for the Monte Carlo experiments."""

    n_replicas: int = 10_000
    horizon: int = 1_000
    seed: int = 20_240_801
    workers: Optional[int] = None
    chunk_size: int = 8_192

    def __post_init__(self):
        if self.n_replicas < 100:
            raise ParamError(f"n_replicas must be at least 100 for CI-based checks, got {self.n_replicas}")
        if self.horizon < 1:
            raise ParamError(f"horizon must be at least 1, got {self.horizon}")
        if self.workers is not None and self.workers < 1:
            raise ParamError(f"workers must be at least 1, got {self.workers}")


@dataclass
class McReport:
    """One verification result: estimate vs one-sided theoretical target."""

    name: str
    estimate: float
    ci_halfwidth: float
    target: float
    passed: bool
    n: int
    runtime_s: float
    note: str = ""
    extra: dict = field(default_factory=dict)

    @staticmethod
    def one_sided(name, estimate, se, target, n, runtime_s, note="", extra=None):
        half = SIGMAS * se
        return McReport(
            name=name, estimate=float(estimate), ci_halfwidth=float(half),
            target=float(target), passed=bool(estimate <= target + half),
            n=int(n), runtime_s=float(runtime_s), note=note, extra=extra or {},
        )

    @staticmethod
    def pass_fail(name, passed, n, runtime_s, note=""):
        """A check without an estimate: 0.0 when it passes, 1.0 when it fails, against target 0."""
        return McReport(name=name, estimate=0.0 if passed else 1.0, ci_halfwidth=0.0, target=0.0,
                        passed=passed, n=n, runtime_s=runtime_s, note=note)


def _mean_se(total, total_sq, n):
    """Mean and standard error of ``n`` values from their sum and sum of squares."""
    mean = total / n
    return mean, np.sqrt(np.maximum(total_sq / n - mean ** 2, 0.0) / n)


def _binomial_se(freq, n):
    """Standard error of a frequency over ``n`` independent trials."""
    return math.sqrt(max(freq * (1 - freq), 0.0) / n)


def _sample_se(values):
    """Standard error of the mean of a sample, from its ddof=1 spread."""
    return float(values.std(ddof=1) / math.sqrt(values.size))


def _column_sums(parts):
    """Field-wise sums of per-chunk result tuples, added in chunk order."""
    return [sum(column) for column in zip(*parts)]


def _chunks(n, chunk_size):
    return [min(chunk_size, n - start) for start in range(0, n, chunk_size)]


def _run_chunked(fn, n, cfg: McConfig):
    """Run ``fn(chunk_id, size)`` over fixed chunks; results in chunk order."""
    sizes = _chunks(n, cfg.chunk_size)
    workers = cfg.workers or 1
    if workers <= 1 or len(sizes) <= 1:
        return [fn(i, m) for i, m in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, i, m) for i, m in enumerate(sizes)]
        return [f.result() for f in futures]


def _broadcast_state(s, m):
    return tuple(np.full(m, float(c)) for c in s)


# ---------------------------------------------------------------------------
# replica sweeps with pathwise checking


@dataclass
class ReplicaStats:
    """Aggregates over replicated coupled trajectories."""

    n: int
    horizon: int
    r0: float
    j0: float
    mean_ratio: np.ndarray        # E[R_t], t = 0..horizon
    se_ratio: np.ndarray
    visits_hist: np.ndarray         # counts of |S_bar_t| = k for t, k <= VISIT_TMAX


def run_replicas(p: ModelParams, U0, W0, cfg: McConfig, table: Optional[ConstantsTable] = None) -> ReplicaStats:
    """Run the coupled ratio process over replicas, checking every step.

    Aborts (raises :class:`PathwiseViolation`) if any proven inequality fails
    beyond the floating-point slack on any step of any replica.  For n = 3
    the pair is coupled directly (the ratio needs no auxiliary process) and
    the scalar-chain inequalities are checked instead.
    """
    table = table or compute_constants(p)
    eta = table.eta
    env = envelope_init(U0, W0)
    horizon = cfg.horizon

    def chunk_fn(chunk_id, m):
        rng = RngStream(cfg.seed, stream_id=chunk_id)
        rec = init_record(_broadcast_state(env.u0, m), _broadcast_state(env.w0, m))
        s1 = np.zeros(horizon + 1)
        s2 = np.zeros(horizon + 1)
        s1[0] = np.sum(rec.ratio)
        s2[0] = np.sum(np.square(rec.ratio))
        cum = np.zeros(m, dtype=np.int64)
        hist = np.zeros((VISIT_TMAX + 1, VISIT_TMAX + 2), dtype=np.int64)
        for t in range(1, horizon + 1):
            block = draw_block(p, rng, size=m)
            nxt = ratio_step(rec, block, p)
            assert_pathwise(check_pathwise(rec, nxt, block, p), rec, nxt)
            s1[t] = np.sum(nxt.ratio)
            s2[t] = np.sum(np.square(nxt.ratio))
            if t <= VISIT_TMAX:
                cum += (nxt.j <= eta)
                hist[t] += np.bincount(cum, minlength=VISIT_TMAX + 2)
            rec = nxt
        return s1, s2, hist

    s1, s2, hist = _column_sums(_run_chunked(chunk_fn, cfg.n_replicas, cfg))
    n = cfg.n_replicas
    mean, se = _mean_se(s1, s2, n)
    return ReplicaStats(
        n=n, horizon=horizon, r0=float(env.r0), j0=float(env.j0),
        mean_ratio=mean, se_ratio=se, visits_hist=hist,
    )


def _trajectory_row(rec, p: ModelParams):
    if p.n == 3:
        return {"t": rec.t, "u": float(rec.u[0]), "w": float(rec.w[0]), "R": float(rec.ratio),
                "K1": float(rec.k1), "K2": float(rec.k2), "J": float(rec.j)}
    return {
        "t": rec.t, "u2": float(rec.u[0]), "u4": float(rec.u[1]),
        "w2": float(rec.w[0]), "w4": float(rec.w[1]),
        "v2": float(rec.v[0]), "v4": float(rec.v[1]),
        "R": float(rec.ratio), "Q": float(rec.q), "K1": float(rec.k1),
        "K2": float(rec.k2), "J": float(rec.j), "D": float(rec.d),
    }


def _walk(p: ModelParams, U0, W0, horizon: int, seed: int):
    """The records of one seeded coupled trajectory at t = 0..horizon."""
    rng = RngStream(seed, stream_id=0)
    rec = init_record(U0, W0)
    yield rec
    for _ in range(horizon):
        rec = ratio_step(rec, draw_block(p, rng), p)
        yield rec


def trajectory(p: ModelParams, U0, W0, horizon: int, seed: int):
    """Single-replica coupled trajectory as a list of per-step row dicts.

    Columns follow the n = 4 record (t, u2, ..., D); for n = 3 the scalar
    analogue (t, u, w, R, K1, K2, J) is emitted.
    """
    return [_trajectory_row(rec, p) for rec in _walk(p, U0, W0, horizon, seed)]


# ---------------------------------------------------------------------------
# one-shot coupling TV estimation


def _one_shot_indicators(p: ModelParams, u, w, rng: RngStream):
    """Miscoupling indicator and conditional miscoupling probability.

    One :func:`~gibbscert.coupling.one_shot_attempt` per even coordinate and
    replica, with shared (g1, g3); no residuals are drawn.  The conditional
    probability ``1 - prod_i overlap_i`` integrates the vertical coordinate
    out analytically.
    """
    shapes = p.shapes
    g_odd = [rng.gamma(a, size=u[0].shape) for a in shapes[0::2]]
    miss, cond = False, None
    for alpha, ru, rw in zip(shapes[1::2], reduced_rates(u, g_odd, p), reduced_rates(w, g_odd, p)):
        _, coal = one_shot_attempt(alpha, ru, rw, rng)
        tv, _ = gamma_tv(alpha, ru, rw)
        miss = miss | ~coal
        cond = tv if cond is None else 1.0 - (1.0 - cond) * (1.0 - tv)
    return miss, cond


def estimate_tv_by_coupling(p: ModelParams, U0, W0, t: int, cfg: McConfig,
                            table: Optional[ConstantsTable] = None) -> McReport:
    """Estimate TV at theorem index ``t`` via uniform coupling + one shot.

    The envelope chains are uniformly coupled up to the step before the
    wall-clock step the theorem bounds (``t + 3`` for n = 4, ``t + 2`` for
    n = 3), and a one-shot coalescence attempt drives the last transition;
    the estimate is the miscoupling fraction.  The conditional
    (vertical-coordinate-integrated) estimate of the same probability is
    reported alongside; it resolves probabilities far below 1/n_replicas.
    """
    table = table or compute_constants(p)
    wall_clock_t = wall_clock_step(p, t)
    env = envelope_init(U0, W0)
    r0, j0 = float(env.r0), float(env.j0)

    def chunk_fn(chunk_id, m):
        rng = RngStream(cfg.seed, stream_id=chunk_id)
        u = _broadcast_state(env.u0, m)
        w = _broadcast_state(env.w0, m)
        for _ in range(1, wall_clock_t):
            g = draw_block(p, rng, size=m)
            u, w = step(u, g, p), step(w, g, p)
        miss, cond = _one_shot_indicators(p, u, w, rng)
        return int(miss.sum()), float(cond.sum()), float(np.square(cond).sum())

    t0 = time.perf_counter()
    n_miss, cond_sum, cond_sq = _column_sums(_run_chunked(chunk_fn, cfg.n_replicas, cfg))
    n = cfg.n_replicas
    frac = n_miss / n
    cond_mean, cond_se = _mean_se(cond_sum, cond_sq, n)

    if p.n == 4:
        theorem = "fixed_start_small_j0" if j0 <= table.eta else "fixed_start"
    else:
        theorem = "n3"
    spec = BoundSpec(theorem=theorem, table=table, sum_a=p.sum_tail, r0=r0, j0=j0)
    bound = min(1.0, evaluate_bound(spec, t))
    report = McReport.one_sided(
        name=f"tv_coupling_n{p.n}_t{t}", estimate=frac, se=_binomial_se(frac, n), target=bound,
        n=n, runtime_s=time.perf_counter() - t0,
        note=f"one-shot at wall-clock step {wall_clock_t}",
        extra={
            "conditional": cond_mean, "conditional_se": cond_se,
            "wall_clock_t": wall_clock_t, "r0": r0, "j0": j0, "bound": bound,
        },
    )
    # the conditional estimator must respect the same bound
    report.passed = report.passed and (cond_mean <= bound + SIGMAS * cond_se)
    return report


# ---------------------------------------------------------------------------
# drift verification at fixed states


def history_states(p: ModelParams, seed: int, starts: Sequence, steps: Sequence[int]):
    """Chain-consistent (full state, producing block, t) triples.

    Each start is advanced the requested number of steps with its own stream
    so the drift identities that rely on the state's history hold exactly.
    """
    out = []
    for k, ((u2, u4), n_steps) in enumerate(zip(starts, steps)):
        rng = RngStream(seed, stream_id=9_000 + k)
        full, block = (None, float(u2), None, float(u4)), None
        for _ in range(n_steps):
            block = draw_block(p, rng)
            full = step_full(full, block, p)
        out.append((tuple(float(c) for c in full), block, n_steps))
    return out


def verify_drift_mc(p: ModelParams, states, n: int, seed: int,
                    table: Optional[ConstantsTable] = None):
    """One-step conditional drift checks at fixed history-consistent states.

    For each (full state, producing block, t): empirical E[K1'] vs
    zeta1*K1 + C1, E[K2'] vs zeta2*K2 + C2, and, when J >= eta, E[J'] vs
    beta*J; all one-sided.  State ``i`` draws its ``n`` next steps from
    ``RngStream(seed, 5000 + i)``.
    """
    table = table or compute_constants(p)
    reports = []
    for i, (full, block, t) in enumerate(states):
        k1, k2, j, _ = drift_quantities(full, block, p, t)
        stream = RngStream(seed, stream_id=5_000 + i)
        t0 = time.perf_counter()
        g = draw_block(p, stream, size=n)
        k1n, k2n, jn, _ = drift_quantities(step_full(full, g, p), g, p, t + 1)
        rt = time.perf_counter() - t0
        reports.append(McReport.one_sided(
            f"drift_k1_state{i}", k1n.mean(), _sample_se(k1n), table.zeta1 * k1 + table.c1,
            n, rt, note=f"state t={t}, K1={k1:.4g}"))
        reports.append(McReport.one_sided(
            f"drift_k2_state{i}", k2n.mean(), _sample_se(k2n), table.zeta2 * k2 + table.c2,
            n, rt, note=f"state t={t}, K2={k2:.4g}"))
        if j >= table.eta:
            reports.append(McReport.one_sided(
                f"drift_j_state{i}", jn.mean(), _sample_se(jn), table.beta * j,
                n, rt, note=f"J={j:.4g} >= eta"))
    return reports


# ---------------------------------------------------------------------------
# inequality-level checks


def stopped_states(p: ModelParams, U0, W0, times: Sequence[int], seed: int):
    """Coupled records frozen at fixed times along one seeded trajectory."""
    want = sorted(set(int(t) for t in times))
    recs = list(_walk(p, U0, W0, max(want, default=0), seed))
    return [recs[t] for t in want]


def one_shot_ratio_bound_mc(p: ModelParams, records, trials: int, seed: int):
    """One-shot miscoupling frequency vs 1 - R^{-(a2+a3+a4+a5)} at stopped states.

    Record ``i`` draws its ``trials`` attempts from ``RngStream(seed, 3000 + i)``.
    """
    reports = []
    for i, rec in enumerate(records):
        stream = RngStream(seed, stream_id=3_000 + i)
        t0 = time.perf_counter()
        miss, _ = _one_shot_indicators(p, _broadcast_state(rec.u, trials), _broadcast_state(rec.w, trials), stream)
        freq = float(miss.mean())
        target = 1.0 - float(rec.ratio) ** (-p.sum_tail)
        reports.append(McReport.one_sided(
            f"one_shot_ratio_state{i}", freq, _binomial_se(freq, trials), target, trials,
            time.perf_counter() - t0, note=f"R_t={float(rec.ratio):.6g} at t={rec.t}"))
    return reports


@dataclass
class StoppingTimeData:
    """Per-replica quantities at the first entrance S of J into {J <= eta}."""

    s_time: np.ndarray
    r_at_s: np.ndarray
    rhat_at_s: np.ndarray
    q_at_s: np.ndarray
    r_at_s2: np.ndarray
    jcheck_sums: np.ndarray       # sums of J-hat_{0,t}, t = 1..JCHECK_TMAX
    jcheck_sumsq: np.ndarray
    j0: float
    n: int


def stopping_time_mc(p: ModelParams, U0, W0, cfg: McConfig,
                     table: Optional[ConstantsTable] = None) -> StoppingTimeData:
    """Track R, r-hat, and Q at S = first t >= 1 with J_t <= eta, plus R_{S+2}.

    r-hat (:func:`~gibbscert.ratio_drift.compute_r_hat`) is evaluated only
    on the replicas that enter at the current step.
    """
    table = table or compute_constants(p)
    eta = table.eta
    env = envelope_init(U0, W0)

    def chunk_fn(chunk_id, m):
        rng = RngStream(cfg.seed, stream_id=chunk_id)
        rec = init_record(_broadcast_state(U0, m), _broadcast_state(W0, m))
        s_time = np.full(m, -1, dtype=np.int64)
        r_s = np.full(m, np.nan)
        rhat_s = np.full(m, np.nan)
        q_s = np.full(m, np.nan)
        r_s2 = np.full(m, np.nan)
        jc_sum = np.zeros(JCHECK_TMAX + 1)
        jc_sq = np.zeros(JCHECK_TMAX + 1)
        t = 0
        while True:
            t += 1
            if t > STOPPING_CAP:
                raise RuntimeError("stopping time did not resolve within cap")
            rec = ratio_step(rec, draw_block(p, rng, size=m), p)
            hit = (s_time < 0) & (rec.j <= eta)
            s_time[hit] = t
            r_s[hit] = rec.ratio[hit]
            rhat_s[hit] = compute_r_hat(tuple(c[hit] for c in rec.u), tuple(c[hit] for c in rec.v), p)
            at_s1 = s_time == t - 1
            q_s[at_s1] = rec.q[at_s1]
            at_s2 = s_time == t - 2
            r_s2[at_s2] = rec.ratio[at_s2]
            if t <= JCHECK_TMAX:
                alive = s_time < 0  # J has stayed above eta through t
                vals = np.where(alive, rec.j, 0.0)
                jc_sum[t] += vals.sum()
                jc_sq[t] += np.square(vals).sum()
            if np.all(s_time >= 0) and t >= int(s_time.max()) + 2 and t >= JCHECK_TMAX:
                break
        return (s_time, r_s, rhat_s, q_s, r_s2), (jc_sum, jc_sq)

    per_replica, sums = zip(*_run_chunked(chunk_fn, cfg.n_replicas, cfg))
    s_time, r_s, rhat_s, q_s, r_s2 = map(np.concatenate, zip(*per_replica))
    jc_sum, jc_sq = _column_sums(sums)
    return StoppingTimeData(
        s_time=s_time, r_at_s=r_s, rhat_at_s=rhat_s, q_at_s=q_s, r_at_s2=r_s2,
        jcheck_sums=jc_sum, jcheck_sumsq=jc_sq, j0=float(env.j0), n=cfg.n_replicas,
    )


def moment_identity_mc(a2: float, a4: float, n_pairs: int, seed: int):
    """MC estimate of E[(g2/g4 + g4/g2)/(g2 + g4)] for unit-rate gammas."""
    total = 0.0
    for cid, m in enumerate(_chunks(n_pairs, IDENTITY_CHUNK)):
        rng = RngStream(seed, stream_id=7_000 + cid)
        g2 = rng.gamma(a2, size=m)
        g4 = rng.gamma(a4, size=m)
        total += float(np.sum((g2 / g4 + g4 / g2) / (g2 + g4)))
    return total / n_pairs


def _worst_margin_report(name, cases, n, runtime_s):
    """One report over ``(margin, note)`` cases: the largest margin, passing when it is <= 0."""
    worst, worst_note = -math.inf, ""
    for margin, note in cases:
        if margin > worst:
            worst, worst_note = margin, note
    return McReport(name=name, estimate=worst, ci_halfwidth=0.0, target=0.0,
                    passed=worst <= 0.0, n=n, runtime_s=runtime_s, note=worst_note)


def _paired_one_sided(name, lhs, rhs, runtime_s, note=""):
    """Check E[lhs] <= E[rhs] via the paired differences lhs - rhs."""
    diff = lhs - rhs
    return McReport.one_sided(name, float(diff.mean()), _sample_se(diff), 0.0, diff.size, runtime_s, note=note)


def _checked_sweep(p: ModelParams, U0, W0, cfg: McConfig, table: ConstantsTable):
    """:func:`run_replicas` as ``(stats, violation, runtime_s)``; a violation is returned as its state dump."""
    t0 = time.perf_counter()
    try:
        stats, violation = run_replicas(p, U0, W0, cfg, table), None
    except PathwiseViolation as exc:
        stats, violation = None, str(exc)
    return stats, violation, time.perf_counter() - t0


def _excursion_reports(stats: ReplicaStats, table: ConstantsTable, rt: float):
    """(c) excursion-count bound and (f) ratio decay curve of a sweep from a J0 <= eta start."""
    if stats.j0 > table.eta:
        raise ValueError("the excursion-count check requires a start with J0 <= eta")

    def excursion_count(t, k):
        freq = stats.visits_hist[t, k] / stats.n
        se = _binomial_se(freq, stats.n)
        target = min(1.0, math.comb(t, k) * table.beta ** (t - k))
        return freq - (target + SIGMAS * se), f"(t={t}, k={k}): freq={freq:.4g} vs {target:.4g}"

    def ratio_decay(t):
        mean = stats.mean_ratio[t + 2]
        se = stats.se_ratio[t + 2]
        target = 1.0 + 3.0 * table.r ** (t / (2.0 * table.d)) * (stats.r0 - 1.0)
        return mean - (target + SIGMAS * se), f"t={t}: E[R_(t+2)]={mean:.6g} vs {target:.6g}"

    return [
        _worst_margin_report(
            "excursion_counts",
            (excursion_count(t, k) for t in range(1, VISIT_TMAX + 1) for k in range(t + 1)), stats.n, rt),
        _worst_margin_report("ratio_decay_curve", map(ratio_decay, (1, 2, 5, 10, 20, 50)), stats.n, rt),
    ]


def verify_inequality_suite(p: ModelParams, cfg: McConfig,
                            table: Optional[ConstantsTable] = None,
                            probe_times=(0, 1, 2, 3, 5, 8, 12, 20, 35, 60),
                            probe_trials: Optional[int] = None,
                            identity_pairs: int = 1_000_000):
    """The full inequality-level MC verification battery for an n = 4 model.

    A :class:`PathwiseViolation` in the excursion sweep fails both of its
    rows, with the state dump as their note.
    """
    table = table or compute_constants(p)
    reports = []

    # (a) one-shot ratio-power bound at stopped states along a seeded trajectory
    recs = stopped_states(p, (1.0, 2.0), (0.5, 4.0), probe_times, cfg.seed + 17)
    reports += one_shot_ratio_bound_mc(p, recs, probe_trials or cfg.n_replicas, cfg.seed)

    # (b) stopped-ratio contraction, stopped Q bound, and excursion J decay,
    # all from one stopping-time run
    t0 = time.perf_counter()
    data = stopping_time_mc(p, (0.02, 0.02), (1.0, 1.0), cfg, table)
    rt = time.perf_counter() - t0
    reports.append(_paired_one_sided(
        "stopped_ratio_contraction", data.r_at_s2 - 1.0, table.r * (data.r_at_s - 1.0),
        rt, note="E[R_{S+2}-1] <= r E[R_S-1], S = first J <= eta"))
    reports.append(_paired_one_sided(
        "stopped_q_bound", data.q_at_s * data.r_at_s,
        data.rhat_at_s * (data.r_at_s - 1.0) + 1.0,
        rt, note="E[Q_S R_S] <= E[r-hat_S (R_S - 1)] + 1"))

    def j_decay(t):
        mean, se = _mean_se(data.jcheck_sums[t], data.jcheck_sumsq[t], data.n)
        target = table.beta ** t * max(table.eta, data.j0)
        return mean - (target + SIGMAS * se), f"t={t}: E[J-check]={mean:.4g} vs {target:.4g}"

    reports.append(_worst_margin_report(
        "excursion_j_decay", map(j_decay, range(1, data.jcheck_sums.size)), data.n, rt))

    # (c) and (f) from one sweep started at J0 <= eta
    sweep_cfg = replace(cfg, horizon=max(VISIT_TMAX, 52), seed=cfg.seed + 29)
    stats, violation, rt = _checked_sweep(p, (1.0, 2.0), (0.5, 4.0), sweep_cfg, table)
    if violation:
        reports += [McReport.pass_fail(name, False, cfg.n_replicas, rt, violation)
                    for name in ("excursion_counts", "ratio_decay_curve")]
    else:
        reports += _excursion_reports(stats, table, rt)

    # (e) closed-form moment identity
    for (s2, s4) in ((p.shapes[1], p.shapes[3]), (2.0, 2.0)):
        t0 = time.perf_counter()
        mc = moment_identity_mc(s2, s4, identity_pairs, cfg.seed + 41)
        cf = ratio_expectation_closed_form(s2, s4)
        rel = abs(mc - cf) / cf
        reports.append(McReport(
            name=f"moment_identity_{s2:g}_{s4:g}", estimate=rel, ci_halfwidth=0.0,
            target=0.01, passed=rel <= 0.01, n=identity_pairs,
            runtime_s=time.perf_counter() - t0,
            note=f"mc={mc:.6g} closed={cf:.6g}"))
    return reports


def _first_failure_report(name, failures, n):
    """A deterministic sweep as one report: the first note ``failures`` yields fails it."""
    t0 = time.perf_counter()
    note = next(failures, "")
    return McReport.pass_fail(name, not note, n, time.perf_counter() - t0, note)


def _log_binom(t, k):
    return sp.gammaln(t + 1) - sp.gammaln(k + 1) - sp.gammaln(t - k + 1)


def _secant_failures(xs, ys):
    for a, b in ((1.0, 2.0), (0.5, 3.0), (2.0, 2.5)):
        g = (xs[:, None] / b + ys[None, :]) / (xs[:, None] / a + ys[None, :])
        if not np.all(np.diff(g, axis=0) <= 1e-12):
            yield f"not decreasing in x for (a,b)=({a},{b})"
        if not np.all(np.diff(g, axis=1) >= -1e-12):
            yield f"not increasing in y for (a,b)=({a},{b})"


def verify_auxiliary_math():
    """Deterministic sweeps for the calculus and gamma facts behind the constants and the coupling."""
    binomial = (
        f"binomial bound fails at t={t}, d={d}" for d in AUX_D_VALUES for t in range(1, 1001)
        if _log_binom(t, int(t // d)) > (t / d) * (math.log(d) + 1.0) + 1e-9
    )
    y = np.logspace(math.log10(0.01), 2, 2000)
    ybetay = (
        f"y*beta^y bound fails for beta={beta}" for beta in AUX_BETAS
        if not np.all(y * beta ** y <= 2.0 * beta ** (y / 2.0) / (math.e * abs(math.log(beta))) * (1 + 1e-12))
    )
    grid = np.logspace(-2, 2, 200)
    envelope = (
        f"density envelope fails for shape={a}, rates={rates}"
        for a in AUX_ENVELOPE_SHAPES for rates in AUX_ENVELOPE_RATES
        if not check_density_envelope(a, rates, y)
    )
    median = (
        f"P[g <= a] or P[g >= a - 1/3] below 1/2 for g ~ Gamma(a={a:.6g}, 1)"
        for a in AUX_MEDIAN_SHAPES if min(median_probabilities(a)) < 0.5
    )
    return [
        _first_failure_report("aux_binomial_bound", binomial, 1000 * len(AUX_D_VALUES)),
        _first_failure_report("aux_ybetay_bound", ybetay, y.size * len(AUX_BETAS)),
        _first_failure_report("aux_secant_monotone", _secant_failures(grid, grid), grid.size * grid.size * 3),
        _first_failure_report("aux_density_envelope", envelope,
                              y.size * len(AUX_ENVELOPE_SHAPES) * len(AUX_ENVELOPE_RATES)),
        _first_failure_report("aux_median_quarter", median, len(AUX_MEDIAN_SHAPES)),
    ]


# ---------------------------------------------------------------------------
# orchestration


def tv_grid_reports(p: ModelParams, U0, W0, t_grid, cfg: McConfig,
                    table: Optional[ConstantsTable] = None):
    """TV estimates on a grid plus a strict-decay report.

    Soundness (estimate below the clamped bound) is asserted for both the
    indicator fraction and the conditional estimate; strict decrease across
    the grid is asserted on the conditional estimate, which still resolves
    probabilities below 1/n_replicas once chains have numerically coalesced.
    A grid of fewer than two points has no decay to show and fails it.
    """
    table = table or compute_constants(p)
    reports = [estimate_tv_by_coupling(p, U0, W0, t, cfg, table) for t in t_grid]
    conds = [r.extra["conditional"] for r in reports]
    fracs = [r.estimate for r in reports]
    strict = len(conds) > 1 and all(b < a for a, b in zip(conds, conds[1:]))
    frac_noninc = all(b <= a for a, b in zip(fracs, fracs[1:]))
    reports.append(McReport(
        name=f"tv_decay_n{p.n}", estimate=0.0 if strict else 1.0, ci_halfwidth=0.0,
        target=0.0, passed=strict and frac_noninc, n=cfg.n_replicas, runtime_s=0.0,
        note=f"conditional estimates {['%.3g' % c for c in conds]}",
        extra={"conditional": conds, "fraction": fracs, "t_grid": list(t_grid)},
    ))
    return reports


def default_drift_states(p: ModelParams, seed: int):
    """Twenty chain-consistent test states spanning moderate and extreme J."""
    states = history_states(
        p, seed,
        starts=[(1.0, 1.0), (0.5, 4.0), (1.0, 2.0), (5.0, 5.0), (0.2, 0.2),
                (10.0, 1.0), (1.0, 10.0), (3.0, 0.3), (0.05, 0.05), (100.0, 100.0)],
        steps=[1, 1, 1, 1, 1, 3, 3, 3, 1, 1],
    )
    states += history_states(
        p, seed + 1,
        starts=[(0.005, 0.005), (200.0, 200.0), (0.01, 5.0), (2.0, 2.0), (0.8, 1.3),
                (30.0, 0.02), (0.02, 30.0), (7.0, 0.5), (0.001, 0.001), (500.0, 1.0)],
        steps=[1, 1, 1, 2, 2, 1, 1, 2, 1, 1],
    )
    return states


DEFAULT_STARTS = {4: ((1.0, 2.0), (0.5, 4.0)), 3: ((1.0,), (4.0,))}


def _pathwise_report(p: ModelParams, U0, W0, cfg: McConfig, table: ConstantsTable) -> McReport:
    """The replica sweep as one report; a :class:`PathwiseViolation` fails it with its state dump."""
    _, violation, rt = _checked_sweep(p, U0, W0, cfg, table)
    note = violation or f"{cfg.n_replicas} replicas x {cfg.horizon} steps, all pathwise checks"
    return McReport.pass_fail("pathwise_suite", violation is None, cfg.n_replicas * cfg.horizon, rt, note)


def verify_suite(p: ModelParams, cfg: McConfig, t_grid=(5, 10, 25, 50, 100)):
    """The full verification battery for one model (used by the CLI)."""
    table = compute_constants(p)
    U0, W0 = DEFAULT_STARTS[p.n]
    reports = [_pathwise_report(p, U0, W0, cfg, table)]
    if p.n == 4:
        states = default_drift_states(p, cfg.seed + 3)
        reports += verify_drift_mc(p, states, max(10_000, cfg.n_replicas), cfg.seed, table)
        reports += verify_inequality_suite(p, cfg, table)
    reports += tv_grid_reports(p, U0, W0, t_grid, cfg, table)
    reports += verify_auxiliary_math()
    return reports
