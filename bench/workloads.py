"""The benchmark's workloads: one gibbscert command each, with its output check.

Each workload names the model whose constants set-up computes, the command
line (the seed and worker count are filled in per run), its nominal chain
steps, and a check of the CSV the command writes.  A check returns a list of
problems; an empty list means the output is correct.
"""
from __future__ import annotations

import csv
import math

N4_MODEL = dict(n=4, x=2.0, b=3.0, a=(1.0, 2.0, 3.0, 4.0, 5.0))
N3_MODEL = dict(n=3, x=1.0, b=2.0, a=(1.0, 2.0, 3.0, 4.0))

# verify at its defaults: 1e4 replicas x 1e3 steps, t-grid 5,10,25,50,100
CERTIFY_REPLICAS, CERTIFY_HORIZON = 10_000, 1_000
CERTIFY_T_GRID = (5, 10, 25, 50, 100)
# estimate-pi at its defaults: 128 chains, 100k burn-in, 200k samples, thinning 1
PI_CHAINS, PI_BURN_IN, PI_SAMPLES, PI_THINNING = 128, 100_000, 200_000, 1
# simulate n=3: many replicas, short horizon (ten chunks of at most 8192)
SWEEP_REPLICAS, SWEEP_HORIZON = 80_000, 500

# reference upper bounds for the equilibrium start functionals (README)
C_PI_REFERENCE, C_J_REFERENCE = 31065.0, 59.0
REL_SLACK = 1e-10


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _finite(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_certify(path):
    rows = _rows(path)
    if not rows or rows[0][:6] != ["check", "estimate", "ci_halfwidth", "target", "passed", "n"]:
        return ["unexpected verify header"]
    body = {r[0]: r for r in rows[1:]}
    problems = [f"{name} did not pass: {r[1:4]}" for name, r in body.items() if r[4] != "True"]
    expected = (
        ["pathwise_suite", "stopped_ratio_contraction", "stopped_q_bound", "excursion_j_decay",
         "excursion_counts", "ratio_decay_curve", "moment_identity_5_9", "moment_identity_2_2",
         "tv_decay_n4", "aux_binomial_bound", "aux_ybetay_bound", "aux_secant_monotone"]
        + [f"drift_k{k}_state{i}" for i in range(20) for k in (1, 2)]
        + [f"one_shot_ratio_state{i}" for i in range(10)]
        + [f"tv_coupling_n4_t{t}" for t in CERTIFY_T_GRID]
    )
    problems += [f"missing check {name}" for name in expected if name not in body]
    if "pathwise_suite" in body and body["pathwise_suite"][5] != str(CERTIFY_REPLICAS * CERTIFY_HORIZON):
        problems.append("pathwise_suite did not cover every replica-step")
    return problems


def check_sweep(path):
    rows = _rows(path)
    if not rows or rows[0] != ["t", "mean_R", "mean_R_minus_1", "se_R"]:
        return ["unexpected simulate header"]
    body = rows[1:]
    if len(body) != SWEEP_HORIZON + 1:
        return [f"expected {SWEEP_HORIZON + 1} rows, got {len(body)}"]
    if [r[0] for r in body] != [str(t) for t in range(SWEEP_HORIZON + 1)]:
        return ["t column is not 0..horizon"]
    if not all(_finite(v) for r in body for v in r[1:]):
        return ["non-finite value in simulate output"]
    mean = [float(r[1]) for r in body]
    up = [t for t in range(1, len(mean)) if mean[t] > mean[t - 1] * (1.0 + REL_SLACK)]
    if up:
        return [f"mean_R increases at t={up[:5]}"]
    if min(mean) < 1.0 - REL_SLACK:
        return ["mean_R below 1"]
    return []


def check_equilibrium(path):
    rows = _rows(path)
    if not rows or rows[0] != ["functional", "estimate", "se", "ci99_lo", "ci99_hi"]:
        return ["unexpected estimate-pi header"]
    body = {r[0]: r for r in rows[1:]}
    problems = []
    for name, ref in (("C_pi", C_PI_REFERENCE), ("C_J", C_J_REFERENCE)):
        r = body.get(name)
        if r is None or not all(_finite(v) for v in r[1:]):
            problems.append(f"{name} missing or not finite")
        elif not (0.0 < float(r[1]) and float(r[4]) <= ref and float(r[2]) > 0.0):
            problems.append(f"{name} = {r[1]} (ci99_hi {r[4]}) outside (0, {ref}]")
    return problems


def se_certify(path):
    """Relative standard error of the miscoupling fraction at the first TV grid point."""
    row = {r[0]: r for r in _rows(path)[1:]}[f"tv_coupling_n4_t{CERTIFY_T_GRID[0]}"]
    return float(row[2]) / 3.0 / float(row[1])  # ci_halfwidth is three standard errors


def se_sweep(path):
    """Relative standard error of E[R_1 - 1]."""
    row = _rows(path)[2]
    return float(row[3]) / float(row[2])


def se_equilibrium(path):
    """C_pi standard error divided by C_pi."""
    row = {r[0]: r for r in _rows(path)[1:]}["C_pi"]
    return float(row[2]) / float(row[1])


WORKLOADS = {
    "certify-n4": dict(
        model=N4_MODEL,
        argv=["verify", "--x", "2", "--b", "3", "--a", "1,2,3,4,5"],
        steps=CERTIFY_REPLICAS * CERTIFY_HORIZON,
        check=check_certify, se_rel=se_certify,
    ),
    "equilibrium-n4": dict(
        model=N4_MODEL,
        argv=["estimate-pi", "--x", "2", "--b", "3", "--a", "1,2,3,4,5"],
        # the per-chain sample count is rounded up, as estimate_pi_functionals does
        steps=PI_CHAINS * (PI_BURN_IN + -(-PI_SAMPLES // PI_CHAINS) * PI_THINNING),
        check=check_equilibrium, se_rel=se_equilibrium,
    ),
    "sweep-n3": dict(
        model=N3_MODEL,
        argv=["simulate", "--x", "1", "--b", "2", "--a", "1,2,3,4",
              "--replicas", str(SWEEP_REPLICAS), "--horizon", str(SWEEP_HORIZON)],
        steps=SWEEP_REPLICAS * SWEEP_HORIZON,
        check=check_sweep, se_rel=se_sweep,
    ),
}


def command(name, seed, workers, output):
    """The full CLI argument list of a workload run."""
    return WORKLOADS[name]["argv"] + ["--seed", str(seed), "--workers", str(workers), "--output", output]
