"""Command-line front end.

Subcommands: ``constants``, ``bound``, ``min-t``, ``simulate``, ``verify``,
``estimate-pi``.  Model parameters come from flags or a flat ``key=value``
config file (flags override the file; the ``GIBBSCERT_SEED`` environment
variable overrides the seed from either source).  Exit codes: 0 success,
1 verification failure, 2 configuration error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from .bounds import BoundSpec, estimate_pi_functionals, evaluate_bound, minimal_t, wall_clock_step
from .chain import ModelParams, ParamError
from .constants import compute_constants
from .coupling import envelope_init
from .rng import RngStream
from .verify import DEFAULT_STARTS, McConfig, trajectory, run_replicas, verify_suite

CONFIG_KEYS = {
    "n": int, "x": float, "b": float, "a": str, "seed": int, "replicas": int,
    "horizon": int, "workers": int, "epsilon": float, "format": str,
    "output": str, "u0": str, "w0": str, "burn_in": int, "n_samples": int,
    "thinning": int, "theorem": str, "t_grid": str,
    "e_r0_minus_1": float, "e_j0": float,
}

DEFAULT_SEED = 20_240_801


class ConfigError(Exception):
    pass


def _parse_floats(text):
    try:
        return tuple(float(v) for v in str(text).split(",") if v != "")
    except ValueError as exc:
        raise ConfigError(f"cannot parse number list {text!r}") from exc


def _t_grid(values, default, increasing=False):
    """Theorem indices from ``t_grid``: non-negative integers; with ``increasing``, two or more, strictly rising."""
    grid = []
    for v in _parse_floats(values.get("t_grid", default)):
        if not (v >= 0 and v.is_integer()):
            raise ConfigError(f"t-grid entries must be non-negative integers, got {int(v) if v.is_integer() else v}")
        grid.append(int(v))
    if increasing and not (len(grid) > 1 and all(a < b for a, b in zip(grid, grid[1:]))):
        raise ConfigError(f"verify needs at least two strictly increasing t-grid points, got {grid}")
    return grid


def _read_config_file(path):
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"malformed config line {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            caster = CONFIG_KEYS[key]
            try:
                values[key] = caster(raw.strip())
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {raw.strip()!r}") from exc
    return values


def _add_common(sub):
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--n", type=int, help="chain depth (3 or 4; default inferred from a)")
    sub.add_argument("--x", type=float, help="observed data value")
    sub.add_argument("--b", type=float, help="top-level rate")
    sub.add_argument("--a", help="comma-separated shape parameters a1..a_{n+1}")
    sub.add_argument("--seed", type=int, help=f"master seed (default {DEFAULT_SEED})")
    sub.add_argument("--workers", type=int,
                     help="forked worker processes for verify, worker threads for simulate "
                          "(results are worker-count independent)")
    sub.add_argument("--output", help="output file (default stdout)")
    sub.add_argument("--format", choices=("csv", "text"), help="output format (default csv)")


def build_parser():
    parser = argparse.ArgumentParser(prog="gibbscert")
    subs = parser.add_subparsers(dest="mode", required=True)

    sp = subs.add_parser("constants", help="emit the rate-constants table")
    _add_common(sp)

    sp = subs.add_parser("bound", help="evaluate the TV bound over a t grid")
    _add_common(sp)
    sp.add_argument("--theorem", choices=("fixed_start_small_j0", "fixed_start", "equilibrium_start", "n3"))
    sp.add_argument("--u0", help="start of the first chain (comma pair for n=4, scalar for n=3)")
    sp.add_argument("--w0", help="start of the second chain")
    sp.add_argument("--e-r0-minus-1", type=float, dest="e_r0_minus_1",
                    help="E_pi[R0-1] (or an upper bound) for the equilibrium_start theorem")
    sp.add_argument("--e-j0", type=float, dest="e_j0", help="E_pi[J0] for the equilibrium_start theorem")
    sp.add_argument("--t-grid", dest="t_grid", help="comma-separated theorem indices")

    sp = subs.add_parser("min-t", help="smallest t with bound <= epsilon")
    _add_common(sp)
    sp.add_argument("--theorem", choices=("fixed_start_small_j0", "fixed_start", "equilibrium_start", "n3"))
    sp.add_argument("--u0")
    sp.add_argument("--w0")
    sp.add_argument("--e-r0-minus-1", type=float, dest="e_r0_minus_1")
    sp.add_argument("--e-j0", type=float, dest="e_j0")
    sp.add_argument("--epsilon", type=float)

    sp = subs.add_parser("simulate", help="run replicated coupled trajectories")
    _add_common(sp)
    sp.add_argument("--replicas", type=int)
    sp.add_argument("--horizon", type=int)
    sp.add_argument("--u0")
    sp.add_argument("--w0")
    sp.add_argument("--dump-trajectory", dest="dump_trajectory",
                    help="write the per-step record of one replica to this CSV path")

    sp = subs.add_parser("verify", help="run the full verification suite")
    _add_common(sp)
    sp.add_argument("--replicas", type=int)
    sp.add_argument("--horizon", type=int)
    sp.add_argument("--t-grid", dest="t_grid")
    sp.add_argument("--quick", action="store_true", help="smaller sizes for a smoke run")

    sp = subs.add_parser("estimate-pi", help="estimate the equilibrium start functionals from exact draws of pi")
    _add_common(sp)
    sp.add_argument("--n-samples", type=int, dest="n_samples", help="exact draws from pi (default 200000)")
    # kept so that a chain setting exits 2 with a reason instead of a usage error
    sp.add_argument("--burn-in", type=int, dest="burn_in", help=argparse.SUPPRESS)
    sp.add_argument("--thinning", type=int, help=argparse.SUPPRESS)
    return parser


def _merged(args):
    """File values, overridden by flags, then the seed env override."""
    values = {}
    if args.config:
        values.update(_read_config_file(args.config))
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    env_seed = os.environ.get("GIBBSCERT_SEED")
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"GIBBSCERT_SEED must be an integer, got {env_seed!r}") from exc
    return values


def _model_from(values):
    for key in ("a", "x", "b"):
        if key not in values:
            raise ConfigError(f"missing required parameter {key}")
    a = _parse_floats(values["a"])
    n = int(values.get("n", len(a) - 1))
    return ModelParams(n=n, x=float(values["x"]), b=float(values["b"]), a=a)


def _fmt(v):
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return repr(float(v))  # normalizes numpy scalars too
    return str(v)


def _emit(rows, header, values):
    """Write rows as CSV or aligned text to the configured destination."""
    fmt = values.get("format", "csv")
    lines = []
    if fmt == "csv":
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
    else:
        widths = [max(len(h), max((len(_fmt(r[i])) for r in rows), default=0)) for i, h in enumerate(header)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            lines.append("  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths)))
    text = "\n".join(lines) + "\n"
    out = values.get("output")
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _default_starts(values, p):
    """Start states as tuples of even coordinates: comma pairs for n=4, scalars for n=3."""
    starts = []
    for name, default in zip(("u0", "w0"), DEFAULT_STARTS[p.n]):
        s = _parse_floats(values[name]) if name in values else default
        if len(s) != len(default):
            raise ConfigError(f"{name} must have {len(default)} comma-separated value(s) for n={p.n}")
        if not all(0 < c < math.inf for c in s):
            raise ConfigError(f"{name} must be strictly positive and finite, got {values[name]!r}")
        starts.append(s)
    return starts


def _bound_spec(values, p, table):
    theorem = values.get("theorem") or ("n3" if p.n == 3 else "fixed_start")
    # the equilibrium-start bound reads the two start functionals, every other theorem the two starts
    foreign = ("u0", "w0") if theorem == "equilibrium_start" else ("e_r0_minus_1", "e_j0")
    for key in foreign:
        if key in values:
            raise ConfigError(f"--{key.replace('_', '-')} does not apply to theorem {theorem}")
    if theorem == "equilibrium_start":
        if "e_r0_minus_1" not in values or "e_j0" not in values:
            raise ConfigError("equilibrium_start requires --e-r0-minus-1 and --e-j0")
        return BoundSpec(theorem="equilibrium_start", table=table, sum_a=p.sum_tail,
                         e_r0_minus_1=float(values["e_r0_minus_1"]), e_j0=float(values["e_j0"]))
    env = envelope_init(*_default_starts(values, p))
    return BoundSpec(theorem=theorem, table=table, sum_a=p.sum_tail, r0=float(env.r0), j0=float(env.j0))


def _cmd_constants(values, p):
    table = compute_constants(p)
    rows = [(name, val) for name, val in table.as_rows()]
    _emit(rows, ("constant", "value"), values)
    return 0


def _cmd_bound(values, p):
    table = compute_constants(p)
    spec = _bound_spec(values, p, table)
    grid = _t_grid(values, "0,1,2,5,10,20,50,100,200,500,1000")
    rows = []
    for t in grid:
        raw = evaluate_bound(spec, t)
        rows.append((t, wall_clock_step(p, t), raw, min(1.0, raw)))
    _emit(rows, ("t", "wall_clock_t", "bound", "clamped_bound"), values)
    return 0


def _cmd_min_t(values, p):
    table = compute_constants(p)
    spec = _bound_spec(values, p, table)
    eps = float(values.get("epsilon", 1e-5))
    t = minimal_t(spec, eps)
    _emit([(spec.theorem, eps, t, wall_clock_step(p, t))], ("theorem", "epsilon", "t", "wall_clock_t"), values)
    return 0


def _mc_config(values, replicas, horizon):
    return McConfig(
        n_replicas=int(values.get("replicas", replicas)),
        horizon=int(values.get("horizon", horizon)),
        seed=int(values.get("seed", DEFAULT_SEED)),
        workers=int(values.get("workers", os.cpu_count() or 1)),
    )


def _cmd_simulate(values, p):
    u0, w0 = _default_starts(values, p)
    cfg = _mc_config(values, 10_000, 1_000)
    dump = values.get("dump_trajectory")
    if dump:
        rows = trajectory(p, u0, w0, cfg.horizon, cfg.seed)
        text = ",".join(rows[0]) + "\n"
        for row in rows:
            text += ",".join(_fmt(v) for v in row.values()) + "\n"
        with open(dump, "w", newline="") as fh:
            fh.write(text)
    stats = run_replicas(p, u0, w0, cfg)
    rows = [(t, stats.mean_ratio[t], stats.mean_ratio[t] - 1.0, stats.se_ratio[t])
            for t in range(stats.horizon + 1)]
    _emit(rows, ("t", "mean_R", "mean_R_minus_1", "se_R"), values)
    return 0


def _cmd_verify(values, p):
    quick = bool(values.get("quick"))
    cfg = _mc_config(values, 1_000 if quick else 10_000, 100 if quick else 1_000)
    grid = _t_grid(values, "5,10,25,50,100", increasing=True)
    reports = verify_suite(p, cfg, t_grid=tuple(grid))
    # wall-clock runtime stays out of the CSV so reruns are byte-identical
    if values.get("format", "csv") == "text":
        rows = [(r.name, r.estimate, r.ci_halfwidth, r.target, r.passed, r.n,
                 round(r.runtime_s, 3), r.note) for r in reports]
        header = ("check", "estimate", "ci_halfwidth", "target", "passed", "n", "runtime_s", "note")
    else:
        rows = [(r.name, r.estimate, r.ci_halfwidth, r.target, r.passed, r.n, r.note)
                for r in reports]
        header = ("check", "estimate", "ci_halfwidth", "target", "passed", "n", "note")
    _emit(rows, header, values)
    failed = [r for r in reports if not r.passed]
    if failed:
        sys.stderr.write(f"{len(failed)} verification check(s) failed: "
                         + ", ".join(r.name for r in failed) + "\n")
        return 1
    return 0


def _cmd_estimate_pi(values, p):
    for key in ("burn_in", "thinning"):
        if key in values:
            raise ConfigError(f"--{key.replace('_', '-')} does not apply: estimate-pi draws exactly from pi, "
                              "with no chain to burn in or thin")
    est = estimate_pi_functionals(
        p,
        n_samples=int(values.get("n_samples", 200_000)),
        rng=RngStream(int(values.get("seed", DEFAULT_SEED)), stream_id=0),
    )
    rows = [
        ("C_pi", est.c_pi, est.c_pi_se, est.c_pi - 2.576 * est.c_pi_se, est.c_pi + 2.576 * est.c_pi_se),
        ("C_J", est.c_j, est.c_j_se, est.c_j - 2.576 * est.c_j_se, est.c_j + 2.576 * est.c_j_se),
    ]
    _emit(rows, ("functional", "estimate", "se", "ci99_lo", "ci99_hi"), values)
    return 0


COMMANDS = {
    "constants": _cmd_constants,
    "bound": _cmd_bound,
    "min-t": _cmd_min_t,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "estimate-pi": _cmd_estimate_pi,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        values = _merged(args)
        if args.mode == "simulate" and hasattr(args, "dump_trajectory") and args.dump_trajectory:
            values["dump_trajectory"] = args.dump_trajectory
        if args.mode == "verify" and getattr(args, "quick", False):
            values["quick"] = True
        p = _model_from(values)
        return COMMANDS[args.mode](values, p)
    except (ConfigError, ParamError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
