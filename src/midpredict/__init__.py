"""Design and validation toolkit for high-gain sub-predictor chains on
input-delayed, uniformly observable nonlinear systems.

The pieces: an expression DSL and canonical-system model, gain synthesis
that assigns a dominant root of maximal multiplicity, a quasipolynomial
spectrum scanner, delay-axis stability partitions, LMI-certified gain
margins with cascade sizing, a fixed-step delay simulator, and evaluations
of competing sufficient conditions.
"""

import os

# The LMI oracle's eigh calls are on matrices of at most 56 x 56, where
# multithreaded BLAS costs more than it saves; set before numpy loads. A
# value already in the environment wins.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .expressions import (
    EvaluationError,
    ExpressionError,
    ParseError,
    UnknownNameError,
    eval_expression,
    parse_expression,
    to_source,
)
from .gainmargin import (
    ChainDesign,
    LmiVariables,
    MarginBracket,
    assemble_W,
    design_chain,
    lmi_feasible,
    max_gain_margin,
    upper_bound_gamma,
    verify_certificate,
)
from .margins import (
    CrossingSet,
    StabilityPartition,
    crossing_frequencies,
    crossing_points,
    hurwitz_check,
    partition_for_gain,
    stability_partition,
)
from .model import (
    CanonicalSystem,
    aggregate_lipschitz,
    canonical_weights,
    check_triangular,
    demo_system,
    dilate,
    dilated_error_transform,
    load_system,
    make_system,
    parse_system_config,
    shift_map,
)
from .polynomials import rightmost_root, sturm_root_certificate
from .simulate import (
    SimConfig,
    SimulationTrace,
    fit_decay_rate,
    integrate,
    run_demo_variant,
)
from .spectrum import (
    Quasipolynomial,
    SpectrumResult,
    count_roots_region,
    default_certification_rect,
    qp_eval,
    rightmost_in_region,
    roots_in_region,
)
from .synthesis import (
    GainVector,
    delay_free_poly,
    gain_from_derivative_system,
    gain_star,
    multiplicity_at,
    scale_gain,
    sigma_star,
)
from .tradeoff import (
    TradeoffVerdict,
    ahmed_conditions,
    ahmed_necessary,
    lei_conditions,
    lyapunov_solve,
    matrix_norms,
)
