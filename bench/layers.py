"""Which gibbscert attributes the traced run wraps, and the per-layer metrics.

Wrappers go on the names callers look up at call time: ``verify`` imported
``ratio_step`` and friends by name, so ``gibbscert.verify.ratio_step`` is
wrapped rather than ``gibbscert.ratio_drift.ratio_step``.  Per replica-step
figures divide by the workload's nominal chain steps, the same denominator as
``steps_per_s``.
"""
from __future__ import annotations

import numpy as np

from tracer import self_times, totals

ROOT_SPAN = "cli.main"  # the span around the whole command


def _size(out):
    return int(np.size(out))


def install(tracer):
    """Wrap the entry points of every layer the workloads reach.

    The command's own calls (``verify_suite``, ``run_replicas``,
    ``estimate_pi_functionals``) are wrapped in ``gibbscert.cli`` so that
    ``cli.self_s`` is only the CLI's parsing and CSV writing.
    """
    import gibbscert.cli as cli
    import gibbscert.ratio_drift as ratio_drift
    import gibbscert.verify as verify
    from gibbscert.rng import RngStream

    for name in ("verify_suite", "run_replicas"):
        tracer.wrap(cli, name, f"verify.{name}")
    tracer.wrap(cli, "estimate_pi_functionals", "bounds.estimate_pi_functionals")
    for name in ("run_replicas", "stopping_time_mc", "tv_grid_reports", "default_drift_states",
                 "verify_drift_mc", "moment_identity_mc", "verify_auxiliary_math"):
        tracer.wrap(verify, name, f"verify.{name}")
    tracer.wrap(verify, "_run_chunked", "verify.pool", submits="verify.chunk")
    tracer.wrap(verify, "draw_block", "chain.draw_block")
    tracer.wrap(ratio_drift, "step_reduced", "chain.step_reduced")
    for name in ("ratio_step", "check_pathwise", "assert_pathwise"):
        tracer.wrap(verify, name, f"ratio_drift.{name}")
    tracer.wrap(verify, "reduced_rates", "coupling.reduced_rates")
    tracer.wrap(verify, "gamma_tv", "gamma.gamma_tv")
    tracer.wrap(RngStream, "gamma", "rng.gamma", work=_size)
    tracer.wrap(RngStream, "uniform", "rng.uniform", work=_size)


def metrics(spans, steps, workers, wall_s):
    """Per-layer figures from one traced command.

    ``wall_s`` is the command's wall time, measured outside its root span.
    """
    agg = totals(spans)

    def get(name, field):
        return agg.get(name, (0, 0, 0, 0))[field]

    calls = lambda name: get(name, 0)
    incl_s = lambda *names: sum(get(n, 1) for n in names) / 1e9
    self_ns = lambda name: get(name, 2)
    per_step = lambda name: self_ns(name) / steps

    variates = get("rng.gamma", 3) + get("rng.uniform", 3)
    root_span = next(s for s in spans if s.name == ROOT_SPAN)
    main = root_span.thread

    # pools whose chunks ran on other threads: their wall, busy and blocked time
    pool_wall = busy = 0
    chunks_by_pool = {}
    for s in spans:
        if s.name == "verify.chunk":
            chunks_by_pool.setdefault(s.cause, []).append(s)
    for s in spans:
        if s.name == "verify.pool":
            chunks = chunks_by_pool.get(s.id, [])
            if any(c.thread != main for c in chunks):
                pool_wall += s.end - s.start
                busy += sum(c.end - c.start for c in chunks)

    own = self_times(spans)
    main_self = sum(own[s.id] for s in spans if s.thread == main)

    return {
        "rng.variates": variates,
        "rng.calls": calls("rng.gamma") + calls("rng.uniform"),
        "rng.ns_per_variate": (self_ns("rng.gamma") + self_ns("rng.uniform")) / variates if variates else 0.0,
        "chain.draw_block_ns": per_step("chain.draw_block"),
        "chain.step_reduced_ns": per_step("chain.step_reduced"),
        "ratio_drift.ratio_step_ns": per_step("ratio_drift.ratio_step"),
        "ratio_drift.check_pathwise_ns": per_step("ratio_drift.check_pathwise"),
        "ratio_drift.assert_pathwise_ns": per_step("ratio_drift.assert_pathwise"),
        "verify.run_replicas_s": incl_s("verify.run_replicas"),
        "verify.stopping_time_s": incl_s("verify.stopping_time_mc"),
        "verify.tv_grid_s": incl_s("verify.tv_grid_reports"),
        "verify.drift_s": incl_s("verify.default_drift_states", "verify.verify_drift_mc"),
        "verify.moment_identity_s": incl_s("verify.moment_identity_mc"),
        "verify.aux_math_s": incl_s("verify.verify_auxiliary_math"),
        "verify.replica_loop_ns": per_step("verify.chunk"),
        "verify.chunks": calls("verify.chunk"),
        "verify.worker_busy_share": busy / (workers * pool_wall) if pool_wall else 0.0,
        "verify.pool_wait_s": self_ns("verify.pool") / 1e9,
        "coupling.reduced_rates_s": incl_s("coupling.reduced_rates"),
        "gamma.gamma_tv_s": incl_s("gamma.gamma_tv"),
        "bounds.estimate_pi_ns": per_step("bounds.estimate_pi_functionals"),
        "cli.self_s": self_ns(ROOT_SPAN) / 1e9,
        "trace.accounted_share": main_self / 1e9 / wall_s,
    }
