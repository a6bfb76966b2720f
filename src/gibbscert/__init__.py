"""gibbscert: convergence-bound certificates for hierarchical gamma Gibbs samplers.

Computes the rate constants and total-variation bounds for the depth-3 and
depth-4 hierarchical gamma Gibbs chains, and verifies every ingredient
(pathwise inequalities, drift conditions, coupling overlap probabilities) by
seeded, reproducible Monte Carlo.
"""
from .bounds import BoundSpec, PiFunctionals, estimate_pi_functionals, evaluate_bound, minimal_t
from .chain import (
    ModelParams,
    ParamError,
    draw_block,
    draw_pi,
    reduced_rates,
    step,
    step_full,
    validate_params,
)
from .constants import ConstantsTable, compute_constants, compute_constants_n3, compute_constants_n4, ratio_expectation_closed_form
from .coupling import EnvelopeInit, envelope_init, one_shot_attempt
from .gamma import check_density_envelope, gamma_cdf, gamma_logpdf, gamma_tv, median_probabilities
from .ratio_drift import (
    CoupledRecord,
    PathwiseViolation,
    check_pathwise,
    compute_omegas,
    compute_q,
    compute_r_hat,
    drift_quantities,
    init_record,
    ratio_step,
)
from .rng import RngStream
from .verify import (
    McConfig,
    McReport,
    estimate_tv_by_coupling,
    run_replicas,
    verify_auxiliary_math,
    verify_drift_mc,
    verify_inequality_suite,
    verify_suite,
)

__version__ = "0.1.0"
